"""Transform correctness: characters, round trips, Parseval, convolution."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pchaos import (
    ExperimentConfig,
    GuardExceeded,
    InsufficientLevel,
    LevelMismatch,
    MalformedIndex,
    Spectrum,
    StepFunction,
    character_value,
    convolve,
    convolve_functions,
    forward,
    group_sub,
    growth_study,
    inverse,
    linf_norm,
    naive_forward,
    polynomial_spectrum,
    random_chaos,
)
from pchaos.config import MAX_DIRECT_CELLS
from pchaos import transform
from pchaos.transform import _group_sub_table, _stage_kernel, _tensor_dft, character_matrix

OMEGA3 = np.exp(2j * np.pi / 3)


def random_function(p, level, seed):
    rng = np.random.default_rng(seed)
    size = p**level
    return StepFunction(p, level, rng.standard_normal(size) + 1j * rng.standard_normal(size))


class TestRademacher:
    """R_k^l is the character with Paley index l p^k."""

    def test_first_third_cell(self):
        # cell [1/3, 2/3) has first digit 1, so R_0 = omega there
        assert character_value(1 * 3**0, 3, 1, 1) == pytest.approx(OMEGA3)

    def test_zero_exponent(self):
        assert character_value(0 * 5**2, 5, 4, 77) == pytest.approx(1.0)

    def test_classical_sign(self):
        # cell [1/2, 1) at p=2
        assert character_value(1 * 2**0, 2, 1, 1) == pytest.approx(-1.0)

    def test_insufficient_level(self):
        with pytest.raises(InsufficientLevel):
            character_value(1 * 2**3, 2, 3, 0)

    def test_cell_off_grid(self):
        with pytest.raises(MalformedIndex):
            character_value(1, 2, 3, 8)
        with pytest.raises(GuardExceeded):
            character_value(1, 17, 1, 0)


class TestCharacter:
    def test_trivial(self):
        for c in range(9):
            assert character_value(0, 3, 2, c) == pytest.approx(1.0)

    def test_p2_product_of_signs(self):
        # cell 3 has digits (1, 1)
        assert character_value(3, 2, 2, 3) == pytest.approx(1.0)

    def test_p3_digit_powers(self):
        # index 5 = 2 + 1*3 on cell 4 = (1,1): omega^2 * omega = 1
        assert character_value(5, 3, 2, 4) == pytest.approx(1.0)

    def test_position_reads_its_fractional_digit(self):
        # cell 7 = (c_1, c_2) = (2, 1) at p=3: position 0 reads c_1, position 1 reads c_2
        assert character_value(1, 3, 2, 7) == pytest.approx(OMEGA3**2)
        assert character_value(3, 3, 2, 7) == pytest.approx(OMEGA3)

    @pytest.mark.parametrize("p,level", [(2, 5), (3, 4), (5, 3)])
    def test_multiplicativity(self, p, level):
        rng = np.random.default_rng(11)
        size = p**level
        for _ in range(25):
            m = int(rng.integers(0, size))
            x = int(rng.integers(0, size))
            z = int(rng.integers(0, size))
            lhs = character_value(m, p, level, group_sub(p, level, x, z))
            rhs = character_value(m, p, level, x) * np.conjugate(character_value(m, p, level, z))
            assert abs(lhs - rhs) <= 1e-14


class TestForward:
    def test_constant(self):
        s = forward(StepFunction(3, 2, np.ones(9)))
        expected = np.zeros(9, complex)
        expected[0] = 1.0
        np.testing.assert_allclose(s.coeffs, expected, atol=1e-14)

    def test_two_point_by_hand(self):
        # 1 + r_0 has values [2, 0]; both coefficients are 1
        s = forward(StepFunction(2, 1, [2.0, 0.0]))
        np.testing.assert_allclose(s.coeffs, [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("p,level", [(2, 3), (3, 2), (5, 2)])
    def test_orthonormality(self, p, level):
        size = p**level
        for m in range(size):
            values = [character_value(m, p, level, c) for c in range(size)]
            s = forward(StepFunction(p, level, values))
            expected = np.zeros(size, complex)
            expected[m] = 1.0
            np.testing.assert_allclose(s.coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("p,level", [(2, 10), (3, 6), (5, 4), (7, 3)])
    def test_round_trip(self, p, level):
        f = random_function(p, level, seed=p * 100 + level)
        back = inverse(forward(f))
        scale = np.abs(f.values).max()
        assert np.abs(back.values - f.values).max() / scale <= 1e-10

    @pytest.mark.parametrize("p,level", [(2, 9), (3, 5), (4, 4)])
    def test_parseval(self, p, level):
        f = random_function(p, level, seed=p + level)
        s = forward(f)
        lhs = (np.abs(f.values) ** 2).sum() * p**-level
        rhs = (np.abs(s.coeffs) ** 2).sum()
        assert abs(lhs - rhs) / lhs <= 1e-10


class TestInverse:
    def test_unit_spectrum(self):
        e0 = np.zeros(8, complex)
        e0[0] = 1.0
        f = inverse(Spectrum(2, 3, e0))
        np.testing.assert_allclose(f.values, np.ones(8), atol=1e-15)

    @pytest.mark.parametrize("p,level,m", [(2, 3, 5), (3, 2, 7)])
    def test_unit_gives_character(self, p, level, m):
        e = np.zeros(p**level, complex)
        e[m] = 1.0
        f = inverse(Spectrum(p, level, e))
        expected = [character_value(m, p, level, c) for c in range(p**level)]
        np.testing.assert_allclose(f.values, expected, atol=1e-13)


class TestFastVsNaive:
    @pytest.mark.parametrize("p", range(2, 17))
    def test_all_small_sizes(self, p):
        # complex input at every base and level the reference admits, both
        # kernel signs: inverse(s) = conj(p^L naive_forward(conj s))
        level = 0
        while p**level <= MAX_DIRECT_CELLS:
            f = random_function(p, level, seed=13 * p + level)
            ref = naive_forward(f).coeffs
            assert np.abs(forward(f).coeffs - ref).max() / np.abs(ref).max() <= 1e-12
            flipped = StepFunction(p, level, np.conjugate(f.values))
            ref = np.conjugate(naive_forward(flipped).coeffs) * p**level
            fast = inverse(Spectrum(p, level, f.values)).values
            assert np.abs(fast - ref).max() / np.abs(ref).max() <= 1e-12
            level += 1

    @pytest.mark.parametrize("p,level", [(5, 4), (7, 3), (3, 7)])
    def test_blocks_match_full_table(self, p, level):
        # cell counts that are not a multiple of the row block
        f = random_function(p, level, seed=p + 7 * level)
        full = (np.conjugate(character_matrix(p, level)) @ f.values) * p**-level
        assert np.abs(naive_forward(f).coeffs - full).max() <= 1e-15

    @pytest.mark.parametrize("p", range(2, 17))
    def test_every_stage_split(self, p, monkeypatch):
        # levels 1..2g+1: one short stage, full stages, and full stages with
        # a shorter last one; the guard is raised to reach 5^5 and 13^3..16^3
        g = _stage_digits(p)
        monkeypatch.setattr(transform, "MAX_DIRECT_CELLS", p ** (2 * g + 1))
        rng = np.random.default_rng(p)
        for level in range(1, 2 * g + 2):
            size = p**level
            real = rng.standard_normal(size)
            for values in (real, real + 1j * rng.standard_normal(size)):
                f = StepFunction(p, level, values)
                ref = naive_forward(f).coeffs
                assert np.abs(forward(f).coeffs - ref).max() / np.abs(ref).max() <= 1e-12
                flipped = StepFunction(p, level, np.conjugate(f.values))
                ref = np.conjugate(naive_forward(flipped).coeffs) * size
                fast = inverse(Spectrum(p, level, f.values)).values
                assert np.abs(fast - ref).max() / np.abs(ref).max() <= 1e-12

    def test_character_matrix_guard(self):
        with pytest.raises(GuardExceeded):
            character_matrix(2, 15)

    def test_naive_forward_guard(self):
        with pytest.raises(GuardExceeded):
            naive_forward(StepFunction(2, 12, np.zeros(2**12)))

    def test_naive_forward_memory(self):
        # a full 2187 x 2187 table and its conjugate would take ~146 MiB
        f = random_function(3, 7, seed=3)
        tracemalloc.start()
        try:
            naive_forward(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20


def _stage_digits(p):
    """Digits per stage: the largest g with p^g within the stage cap."""
    g = 1
    while p ** (g + 1) <= transform._STAGE_CELLS:
        g += 1
    return g


def _exp_kernel(p, g, sign):
    """Level-g character table from the exp formula: row v, column u,
    phase sum_i v_i u_(g-1-i) over base-p digits least significant first."""
    digits = np.arange(p**g)[:, None] // p ** np.arange(g) % p
    phase = (digits @ digits[:, ::-1].T) % p
    return np.exp(sign * 2j * np.pi * phase / p)


def _kernel_path(values, p, level, sign, real=False):
    """The stage loop with exp-built kernels: stages of _stage_digits(p)
    digits and a shorter last one. Each contracts the top digits and stores
    the new ones just above the digits already written: the first stage as
    a^T K (the table is symmetric), blocks at least a stage wide as one
    product per block, narrower ones as one product and a transposing copy.
    `real` runs float64 operands with the kernel's real part."""
    a = np.ascontiguousarray(values, dtype=np.float64 if real else np.complex128)
    j = 0
    while j < level:
        g = min(_stage_digits(p), level - j)
        kernel = _exp_kernel(p, g, sign)
        if real:
            kernel = np.ascontiguousarray(kernel.real)
        rows = p ** (level - j - g)
        if j == 0:
            a = a.reshape(p**g, rows).T @ kernel
        elif rows == 1 or p**j >= transform._STAGE_CELLS:
            a = kernel @ a.reshape(p**g, rows, p**j).transpose(1, 0, 2)
        else:
            a = (kernel @ a.reshape(p**g, -1)).reshape(p**g, rows, p**j)
            a = np.ascontiguousarray(a.transpose(1, 0, 2))
        j += g
    return a.reshape(p**level)


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("p", range(2, 17))
@pytest.mark.parametrize("sign", [1, -1])
def test_kernel_from_root_table_is_exp_formula(p, sign):
    for g in range(1, _stage_digits(p) + 1):
        expected = _exp_kernel(p, g, sign)
        complex_kernel = _stage_kernel(p, g, sign, np.dtype(np.complex128))
        np.testing.assert_array_equal(_bits(complex_kernel), _bits(expected))
        if p == 2:
            for dtype in (np.float64, np.float32):
                real = _stage_kernel(p, g, sign, np.dtype(dtype))
                assert real.dtype == dtype and not real.flags.writeable
                assert set(np.unique(real)) == {-1.0, 1.0}
                np.testing.assert_array_equal(real, expected.real)


class TestRealBaseTwo:
    """Real p=2 input runs the stages in float64 with the exact +-1 kernel;
    all other input the complex kernel."""

    def test_sign_spectrum_synthesises_exact_integers(self):
        # every level through three full stages and a shorter last one; the
        # exact values are the complex exp-kernel path's, rounded
        rng = np.random.default_rng(1)
        for level in range(1, 18):
            signs = rng.choice([-1.0, 1.0], 2**level)
            values = inverse(Spectrum(2, level, signs)).values
            assert not values.imag.any()
            np.testing.assert_array_equal(
                values.real, np.round(_kernel_path(signs, 2, level, 1).real)
            )

    @pytest.mark.parametrize("level", range(1, 12))
    def test_real_input_matches_naive(self, level):
        f = StepFunction(2, level, np.random.default_rng(level).standard_normal(2**level))
        fast = forward(f).coeffs
        ref = naive_forward(f).coeffs
        assert np.abs(fast - ref).max() / np.abs(ref).max() <= 1e-12

    def test_round_trip_level_16(self):
        rng = np.random.default_rng(16)
        f = StepFunction(2, 16, rng.standard_normal(2**16))
        back = inverse(forward(f)).values
        assert np.abs(back - f.values).max() / np.abs(f.values).max() <= 1e-12
        # integer sums and the 2^-16 scale are exact, so signs come back bit for bit
        signs = Spectrum(2, 16, rng.choice([-1.0, 1.0], 2**16))
        np.testing.assert_array_equal(forward(inverse(signs)).coeffs, signs.coeffs)

    def test_level_zero(self):
        assert forward(StepFunction(2, 0, [3.0])).coeffs.tolist() == [3.0]
        assert inverse(Spectrum(2, 0, [-2.0])).values.tolist() == [-2.0]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_and_negative_zero_imaginary_input(self, sign):
        # all three run the float64 stages and return their float64 result
        real = np.random.default_rng(4).standard_normal(2**6)
        expected = _tensor_dft(real + 0j, 2, 6, sign)
        assert expected.dtype == np.float64
        negative_zero = real.astype(np.complex128)
        negative_zero.imag = -0.0
        for values in (real, negative_zero):
            out = _tensor_dft(values, 2, 6, sign)
            assert out.dtype == np.float64
            np.testing.assert_array_equal(_bits(out), _bits(expected))

    @pytest.mark.parametrize("level", [0, 1, 5, 6, 11, 17])
    def test_float32_input_stays_float32(self, level):
        # integers with sum |c| < 2^24: every partial sum is exact in float32
        ints = np.random.default_rng(level).integers(-60, 61, 2**level).astype(np.float64)
        assert np.abs(ints).sum() < 2**24
        for sign in (1, -1):
            out = _tensor_dft(ints.astype(np.float32), 2, level, sign)
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, _tensor_dft(ints, 2, level, sign))
        assert _tensor_dft(np.ones(9, np.float32), 3, 2, 1).dtype == np.complex128

    @pytest.mark.parametrize("p,level", [(2, 0), (2, 1), (2, 7), (2, 13), (3, 4)])
    def test_public_results_stay_complex(self, p, level):
        # forward and inverse widen the loop's result to complex128, the
        # float64 one with +0.0 imaginary parts, after forward's scaling
        real = np.random.default_rng(level).standard_normal(p**level)
        coeffs = forward(StepFunction(p, level, real)).coeffs
        values = inverse(Spectrum(p, level, real)).values
        scaled = _tensor_dft(real, p, level, -1) * p ** (-level)
        for out, raw in ((coeffs, scaled), (values, _tensor_dft(real, p, level, 1))):
            assert out.dtype == np.complex128
            np.testing.assert_array_equal(_bits(out), _bits(raw.astype(np.complex128)))
            if p == 2:
                assert not _bits(out.imag).any()

    @pytest.mark.parametrize("p,level", [(2, 9), (3, 7), (5, 4), (16, 3), (2, 12), (7, 4)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_other_input_is_the_kernel_path(self, p, level, sign):
        rng = np.random.default_rng(p + level)
        size = p**level
        inputs = [rng.standard_normal(size) + 1j * rng.standard_normal(size)]
        inputs.append(rng.standard_normal(size) + 0j)
        for values in inputs:
            real = p == 2 and not values.imag.any()
            np.testing.assert_array_equal(
                _bits(_tensor_dft(values, p, level, sign)),
                _bits(_kernel_path(values.real if real else values, p, level, sign, real)),
            )


class TestConvolve:
    def test_unit_element(self):
        # the all-ones coefficient array is the point mass at zero
        rng = np.random.default_rng(5)
        a = Spectrum(3, 2, rng.standard_normal(9) + 1j * rng.standard_normal(9))
        unit = Spectrum(3, 2, np.ones(9, complex))
        np.testing.assert_allclose(convolve(a, unit).coeffs, a.coeffs)

    def test_zero(self):
        a = Spectrum(2, 2, np.arange(4, dtype=complex))
        zero = Spectrum(2, 2, np.zeros(4, complex))
        assert not convolve(a, zero).coeffs.any()

    @pytest.mark.parametrize("p,level", [(2, 3), (3, 2), (3, 4)])
    def test_matches_direct_convolution(self, p, level):
        f = random_function(p, level, seed=21)
        g = random_function(p, level, seed=22)
        via_spectra = convolve(forward(f), forward(g))
        direct = forward(convolve_functions(f, g))
        assert np.abs(via_spectra.coeffs - direct.coeffs).max() <= 1e-12

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            convolve(Spectrum(2, 2, np.zeros(4)), Spectrum(2, 3, np.zeros(8)))

    @pytest.mark.parametrize("p,level", [(2, 5), (3, 4), (5, 3), (16, 2)])
    def test_direct_convolution_is_the_defining_sum(self, p, level):
        # several row blocks at each base; every x - z from scalar group_sub
        f = random_function(p, level, seed=23)
        g = random_function(p, level, seed=24)
        size = p**level
        expected = np.zeros(size, dtype=complex)
        for x in range(size):
            for z in range(size):
                expected[x] += f.values[group_sub(p, level, x, z)] * g.values[z]
        expected *= p ** (-level)
        assert np.abs(convolve_functions(f, g).values - expected).max() <= 1e-12

    def test_direct_convolution_memory(self):
        # a dense 2187 x 2187 gather beside its index table would take ~110 MiB
        f = random_function(3, 7, seed=25)
        g = random_function(3, 7, seed=26)
        tracemalloc.start()
        try:
            convolve_functions(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    @pytest.mark.parametrize("p,level", [(2, 4), (3, 3), (5, 2)])
    def test_sub_table_is_group_sub(self, p, level):
        table = _group_sub_table(p, level)
        size = p**level
        for x in range(size):
            for z in range(size):
                assert table[x, z] == group_sub(p, level, x, z)


def test_step_function_validation():
    with pytest.raises(LevelMismatch):
        StepFunction(2, 2, [1.0, 2.0])
    with pytest.raises(GuardExceeded):
        StepFunction(17, 1, np.zeros(17))


def test_integral():
    f = StepFunction(2, 2, [4.0, 0.0, 0.0, 0.0])
    assert f.integral() == pytest.approx(1.0)


class TestReusedBuffers:
    """With a caller-owned `buffers` dict the stage loop reuses two buffers
    per dtype across calls; its results are bit-identical to fresh buffers."""

    @pytest.mark.parametrize("p", [2, 3, 5, 16])
    def test_bit_identical_inside_and_outside(self, p):
        # levels 1..2g+1 take the first stage alone, stacked GEMMs, narrow
        # blocks with a transposing copy (p >= 3) and a short last stage;
        # one dict replays them smallest first, growing the buffers, and
        # then largest first, reusing them inside a larger allocation
        rng = np.random.default_rng(p)
        cases = []
        for level in range(1, 2 * _stage_digits(p) + 2):
            real = rng.standard_normal(p**level)
            for values in (real, real + 1j * rng.standard_normal(p**level)):
                for sign in (1, -1):
                    cases.append((values, level, sign, _tensor_dft(values, p, level, sign)))
        buffers = {}
        for values, level, sign, expected in cases + cases[::-1]:
            before = values.copy()
            out = _tensor_dft(values, p, level, sign, buffers)
            np.testing.assert_array_equal(_bits(out), _bits(expected))
            np.testing.assert_array_equal(_bits(values), _bits(before))

    @pytest.mark.parametrize("p,level", [(2, 12), (3, 7), (5, 5), (16, 3)])
    def test_public_results_are_owned(self, p, level):
        # a second call leaves the first call's result and its input as
        # they were
        rng = np.random.default_rng(level)
        size = p**level
        for ensemble in ("signs", "unimodular"):

            def draw():
                values = rng.standard_normal(size)
                return values if ensemble == "signs" else values + 1j * rng.standard_normal(size)

            f, s = StepFunction(p, level, draw()), Spectrum(p, level, draw())
            Q = random_chaos(p, 1, level - 1, rng, ensemble)
            results = [forward(f).coeffs, inverse(s).values]
            results.append(inverse(polynomial_spectrum(Q, level)).values)
            kept = [r.copy() for r in results + [f.values, s.coeffs]]
            forward(StepFunction(p, level, draw()))
            inverse(Spectrum(p, level, draw()))
            other = random_chaos(p, 1, level - 1, rng, ensemble)
            inverse(polynomial_spectrum(other, level))
            linf_norm(other)
            for result, copy in zip(results + [f.values, s.coeffs], kept):
                np.testing.assert_array_equal(_bits(result), _bits(copy))

    def test_calls_share_memory_only_through_one_dict(self):
        values = np.random.default_rng(0).standard_normal(2**12)
        assert not np.shares_memory(_tensor_dft(values, 2, 12, 1), _tensor_dft(values, 2, 12, 1))
        buffers = {}
        first = _tensor_dft(values, 2, 12, 1, buffers)
        assert np.shares_memory(first, _tensor_dft(values, 2, 12, -1, buffers))
        # three stages again, in the front of the same buffer
        assert np.shares_memory(first, _tensor_dft(values[:2**11], 2, 11, 1, buffers))
        assert not np.shares_memory(first, _tensor_dft(values, 2, 12, 1, {}))
        assert not np.shares_memory(first, _tensor_dft(values, 2, 12, 1))

    def test_threads_keep_their_own_buffers(self):
        # more threads than cores and a short switch interval interleave the
        # rows' stage loops; a shared buffer would corrupt some row
        configs = [
            ExperimentConfig(p=2, d=2, N_values=(8, 10, 11), trials=4, seed=seed)
            for seed in range(3)
        ] + [ExperimentConfig(p=3, d=2, N_values=(5, 6), trials=4, seed=0, ensemble="unimodular")]
        serial = [[r.to_dict() for r in growth_study(cfg).rows] for cfg in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(configs)) as pool:
                futures = [pool.submit(growth_study, cfg) for cfg in configs]
                threaded = [[r.to_dict() for r in f.result(timeout=60).rows] for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

"""Chaos polynomial norms, projections and the decomposition identity."""

import tracemalloc

import numpy as np
import pytest

from pchaos import (
    ChaosPolynomial,
    ChaosTerm,
    CombinatorialBlowup,
    DegenerateInput,
    GuardExceeded,
    InsufficientLevel,
    InvalidExponent,
    InvalidOrder,
    NonFiniteValue,
    character_value,
    convolve_with_measure,
    decomposition_residual,
    enumerate_Nd,
    forward,
    inverse,
    lemma1_measure,
    lemma2_measure,
    linf_norm,
    lq_norm,
    paley_encode,
    polynomial_spectrum,
    project_J,
    project_order,
    random_chaos,
    rho_y_measure,
    sidon_ratio,
    term_indices,
)
from pchaos import chaos, config


def all_ones(p, d, N):
    return ChaosPolynomial(p, N, {t: 1.0 for t in enumerate_Nd(p, d, N)})


def on_cells(Q, level=None):
    """Q on every cell of `level` (default N+1), by the public route."""
    return inverse(polynomial_spectrum(Q, Q.N + 1 if level is None else level))


def stage_loops(Q):
    """linf_norm(Q) and every stage loop it ran, as (level, dtype handed
    in, copy of the result before the sup-norm reduces it in place)."""
    calls, tensor_dft = [], chaos._tensor_dft

    def spy(values, p, level, **kwargs):
        result = tensor_dft(values, p, level, **kwargs)
        calls.append((level, values.dtype, result.copy()))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chaos, "_tensor_dft", spy)
        sup_and_cell = linf_norm(Q)
    return sup_and_cell, calls


class TestSynthesize:
    def test_single_term_is_character(self):
        term = ChaosTerm((0, 2), (1, 2))
        Q = ChaosPolynomial(3, 2, {term: 1.0})
        f = on_cells(Q)
        m = paley_encode(term, 3)
        expected = [character_value(m, 3, 3, c) for c in range(27)]
        np.testing.assert_allclose(f.values, expected, atol=1e-13)
        _, [(level, _, values)] = stage_loops(Q)
        assert level == 3
        np.testing.assert_array_equal(values, f.values)

    def test_order2_all_ones_by_hand(self):
        # exact integers at p=2, by the public route and by the sup-norm's
        # stage loop, which takes the cells with top digit 0 (the first half)
        Q = all_ones(2, 2, 2)
        expected = [3, -1, -1, -1, -1, -1, -1, 3]
        np.testing.assert_array_equal(on_cells(Q).values, expected)
        _, [(level, _, values)] = stage_loops(Q)
        assert level == 2
        np.testing.assert_array_equal(values, expected[:4])

    def test_zero_polynomial(self):
        Q = ChaosPolynomial(2, 2, {})
        assert not on_cells(Q).values.any()
        _, [(level, _, values)] = stage_loops(Q)
        assert level == 3 and not values.any()

    def test_level_too_small(self):
        Q = all_ones(2, 1, 3)
        with pytest.raises(InsufficientLevel):
            on_cells(Q, level=2)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        A = random_chaos(3, 2, 3, rng, "unimodular")
        B = random_chaos(3, 2, 3, rng, "unimodular")
        combined = ChaosPolynomial(
            3, 3, {t: A.coeffs.get(t, 0) + 2j * B.coeffs.get(t, 0)
                   for t in set(A.coeffs) | set(B.coeffs)}
        )
        lhs = on_cells(combined).values
        rhs = on_cells(A).values + 2j * on_cells(B).values
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestNorms:
    def test_aligned_rademacher_sum(self):
        Q = all_ones(2, 1, 3)
        sup, cell = linf_norm(Q)
        assert sup == pytest.approx(4.0)
        assert cell == 0

    @pytest.mark.parametrize("p,d,N", [(2, 2, 6), (3, 2, 4), (5, 1, 3)])
    def test_argmax_cell_is_a_plain_int(self, p, d, N):
        Q = random_chaos(p, d, N, np.random.default_rng(p + d + N), "unimodular")
        sup, cell = linf_norm(Q)
        values = np.abs(inverse(polynomial_spectrum(Q, N + 1)).values)
        assert type(cell) is int
        assert cell == int(np.argmax(values))
        assert sup == pytest.approx(values.max(), rel=1e-12)

    def test_order2_sup(self):
        sup, _ = linf_norm(all_ones(2, 2, 2))
        assert sup == pytest.approx(3.0)

    def test_zero(self):
        assert linf_norm(ChaosPolynomial(2, 1, {}))[0] == 0.0

    def test_lq_closed_form(self):
        assert lq_norm([1, 1, 1], 4 / 3) == pytest.approx(3**0.75)

    def test_lq_single(self):
        for q in (0.5, 1.0, 4 / 3, 2.0):
            assert lq_norm([3 - 4j], q) == pytest.approx(5.0)

    def test_l1_is_plain_sum(self):
        values = [1.0, -2.0, 2j]
        assert lq_norm(values, 1.0) == pytest.approx(5.0)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            lq_norm([1.0], 0.0)

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_exponent(self, q):
        # nan gave nan and inf gave 1.0, neither of them a norm
        with pytest.raises(InvalidExponent):
            lq_norm([1.0, -2.0], q)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", [2, 3])
    def test_linf_refuses_a_sup_past_float64(self, p):
        # finite coefficients whose sum overflows: inf at p=2, nan at p=3
        Q = ChaosPolynomial.from_indices(p, 1, [1, p], [1e308, 1e308])
        with pytest.raises(NonFiniteValue):
            linf_norm(Q)
        with pytest.raises(NonFiniteValue):
            sidon_ratio(Q)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_lq_rescales_at_the_ends_of_float64(self):
        # the plain sums overflow to inf and underflow to 0
        assert lq_norm([1e200, 1e200], 2) == pytest.approx(2**0.5 * 1e200, rel=1e-15)
        assert lq_norm([1e-200, 1e-200], 2) == pytest.approx(2**0.5 * 1e-200, rel=1e-15)
        assert lq_norm([0.0, 0.0], 2) == 0.0
        # the ratio is scale-free, so huge coefficients give that of ones
        big = ChaosPolynomial.from_indices(2, 2, [3, 5], [1e300, 1e300])
        ones = ChaosPolynomial.from_indices(2, 2, [3, 5], [1.0, 1.0])
        assert sidon_ratio(big) == pytest.approx(sidon_ratio(ones), rel=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e308, np.nan], [np.inf]])
    def test_lq_refuses_a_norm_past_float64(self, values):
        with pytest.raises(NonFiniteValue):
            lq_norm(values, 1.0)

    def test_lq_in_range_keeps_the_plain_sum(self):
        values = np.random.default_rng(3).standard_normal(50) * 1e3 + 1j
        for q in (0.5, 1.0, 4 / 3, 2.0):
            assert lq_norm(values, q) == float((np.abs(values) ** q).sum() ** (1.0 / q))

    def test_row_lq_norms_keep_the_scalar_power(self):
        # numpy's array power rounds some 1/q powers differently from the
        # scalar one in the last bit; every row and lq_norm keep the scalar's
        rng = np.random.default_rng(4)
        block = np.exp(2j * np.pi * rng.random((64, 36))) * rng.integers(1, 5, (64, 1))
        for q in (0.5, 1.0, 4 / 3, 1.5, 2.0):
            expected = _bits(np.array([(m**q).sum() ** (1.0 / q) for m in np.abs(block)]))
            assert _bits(chaos._row_lq_norms(block, q)).tolist() == expected.tolist()
            assert _bits(np.array([lq_norm(row, q) for row in block])).tolist() == expected.tolist()

    def test_parseval_coefficient_level(self):
        rng = np.random.default_rng(4)
        Q = random_chaos(3, 2, 4, rng, "unimodular")
        f = on_cells(Q)
        l2_function = np.sqrt((np.abs(f.values) ** 2).sum() * 3.0**-f.level)
        l2_coeffs = lq_norm(Q.values, 2.0)
        assert abs(l2_function - l2_coeffs) <= 1e-10

    def test_triangle_inequality_spot(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            A = random_chaos(2, 2, 4, rng, "unimodular")
            B = random_chaos(2, 2, 4, rng, "unimodular")
            combined = ChaosPolynomial(
                2, 4, {t: A.coeffs[t] + B.coeffs[t] for t in A.coeffs}
            )
            assert linf_norm(combined)[0] <= linf_norm(A)[0] + linf_norm(B)[0] + 1e-12


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _real_coefficients(d, N, rng):
    indices = term_indices(2, d, N)
    return ChaosPolynomial.from_indices(2, N, indices, rng.standard_normal(indices.size))


class TestRealBaseTwoSup:
    """A p=2 polynomial with all-real coefficients is scattered, synthesised
    and reduced to its sup in a float dtype (float32 for integers with sum
    |c| < 2^24, else float64); every other one in complex128. All give the
    sup and cell of the complex grid, bit for bit."""

    @staticmethod
    def _assert_sup_of_grid(Q):
        """Check linf_norm(Q) against the grid its stage loop returned and
        the public route's; return the dtype the stage loop returned."""
        (sup, cell), [(_, _, working)] = stage_loops(Q)
        for values in (working.astype(np.complex128), on_cells(Q).values):
            assert values.dtype == np.complex128
            magnitudes = np.abs(values)
            arg = int(np.argmax(magnitudes))
            assert _bits(np.float64(sup)) == _bits(magnitudes[arg])
            assert type(cell) is int and cell == arg
        return working.dtype

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sign_and_real_polynomials_every_level(self, d):
        # levels 1..17: up to three full 5-digit stages and a shorter last one
        rng = np.random.default_rng(d)
        for N in range(d - 1, 17):
            signs, real = random_chaos(2, d, N, rng, "signs"), _real_coefficients(d, N, rng)
            for Q, dtype in ((signs, np.float32), (real, np.float64)):
                assert self._assert_sup_of_grid(Q) == dtype

    def test_sign_sup_is_an_exact_integer(self):
        Q = random_chaos(2, 2, 16, np.random.default_rng(3), "signs")
        sup, _ = linf_norm(Q)
        assert sup == int(sup) > 0

    def test_negative_zero_imaginary_parts_take_the_float_path(self):
        Q = _real_coefficients(2, 9, np.random.default_rng(5))
        values = Q.values.astype(np.complex128)
        values.imag = -0.0
        negative = ChaosPolynomial.from_indices(2, 9, Q.indices, values)
        assert _bits(negative.values.imag).all()
        (sup, cell), (plain_sup, plain_cell) = linf_norm(negative), linf_norm(Q)
        assert _bits(np.float64(sup)) == _bits(np.float64(plain_sup))
        assert cell == plain_cell
        assert self._assert_sup_of_grid(negative) == np.float64

    @pytest.mark.parametrize("p,d,N", [(2, 2, 9), (2, 3, 12), (3, 2, 6), (3, 3, 8), (5, 2, 4), (7, 1, 3)])
    def test_complex_and_higher_bases_stay_complex(self, p, d, N):
        rng = np.random.default_rng(p * N)
        Q = random_chaos(p, d, N, rng, "unimodular")
        assert self._assert_sup_of_grid(Q) == np.complex128
        if p > 2:
            signs = random_chaos(p, d, N, rng, "signs")
            assert self._assert_sup_of_grid(signs) == np.complex128

    @pytest.mark.parametrize("ensemble", ["signs", "unimodular"])
    def test_guard_refuses_before_allocating(self, ensemble, monkeypatch):
        Q = random_chaos(2, 2, 16, np.random.default_rng(0), ensemble)
        monkeypatch.setattr(config, "MAX_CELLS", 2**16)
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceeded):
                linf_norm(Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # the 2^17-cell grid alone is 1 MiB


def _with_orders(orders, N, values):
    """p=2 polynomial on every term of the given orders at top position N,
    coefficients from `values(size)`."""
    indices = np.concatenate([term_indices(2, d, N) for d in orders])
    return ChaosPolynomial.from_indices(2, N, indices, values(indices.size))


class TestHalfGridSup:
    """A p=2 polynomial with integer coefficients (sum |c| < 2^53) and
    orders of one parity has its sup taken on the half grid of cells with
    top digit 0; every other polynomial on the full grid. Both give the
    full grid's sup and first maximal cell bit for bit."""

    @staticmethod
    def _sup(Q, full_route):
        (sup, cell), calls = stage_loops(Q)
        assert [level == Q.N + 1 for level, _, _ in calls] == [full_route]
        magnitudes = np.abs(on_cells(Q).values)
        arg = int(np.argmax(magnitudes))
        assert _bits(np.float64(sup)) == _bits(magnitudes[arg])
        assert type(cell) is int and cell == arg
        return sup

    @pytest.mark.parametrize("orders", [(1, 3), (2, 4), (2,)])
    def test_one_parity_signs_take_the_half_grid(self, orders):
        rng = np.random.default_rng(sum(orders))
        for N in range(max(orders) - 1, 13):
            Q = _with_orders(orders, N, lambda n: rng.choice([-1.0, 1.0], n))
            self._sup(Q, full_route=False)

    def test_level_one(self):
        # N=0: the folded grid has level 0, a single cell
        for c in (1.0, -3.0):
            Q = ChaosPolynomial.from_indices(2, 0, [1], [c])
            assert self._sup(Q, full_route=False) == abs(c)

    @pytest.mark.parametrize(
        "orders, values",
        [
            ((1, 2), lambda rng, n: rng.choice([-1.0, 1.0], n)),
            ((2,), lambda rng, n: rng.choice([-1.0, 1.0], n) + 0.5),
            ((2,), lambda rng, n: rng.choice([-1.0, 1.0], n) * 2.0**51),
            ((2,), lambda rng, n: rng.choice([-1.0, 1.0], n) * (1 + 1j)),
            ((), None),
        ],
        ids=["mixed-parity", "non-integer", "sum-past-2^53", "complex", "zero-terms"],
    )
    def test_other_polynomials_take_the_full_grid(self, orders, values):
        rng = np.random.default_rng(len(orders))
        for N in (3, 8, 11):
            if orders:
                Q = _with_orders(orders, N, lambda n: values(rng, n))
            else:
                Q = ChaosPolynomial.from_indices(2, N, [], [])
            self._sup(Q, full_route=True)

    def test_guard_reads_the_full_level(self):
        # the folded grid would have level 24, within the cap
        Q = ChaosPolynomial.from_indices(2, 24, [3, 5, 2**24 + 1], [1.0, -1.0, 1.0])
        with pytest.raises(GuardExceeded, match="level 25 exceeds the supported cap 24"):
            linf_norm(Q)


def _with_total(orders, N, total, rng):
    """p=2 polynomial on every term of the given orders at top position N,
    positive integer coefficients summing to `total`: its sup is `total`,
    attained first on cell 0, where every character is 1."""
    indices = np.concatenate([term_indices(2, d, N) for d in orders])
    weights = rng.integers(1, 1000, indices.size)
    values = weights * (total // weights.sum())
    values[-1] += total - values.sum()
    return ChaosPolynomial.from_indices(2, N, indices, values.astype(np.float64))


class TestFloat32Tier:
    """A p=2 polynomial with real integer coefficients and sum |c| < 2^24 is
    synthesised in float32 on either route, where every partial sum is an
    exact integer; from 2^24 on, and with non-integer real coefficients, in
    float64; complex and p >= 3 polynomials in complex128. Sup and cell are
    the complex grid's bit for bit."""

    @staticmethod
    def _routed(Q):
        """linf_norm(Q), whether it took the full grid, the dtype of every
        array the stage loop was handed and that of every one it returned."""
        (sup, cell), calls = stage_loops(Q)
        magnitudes = np.abs(on_cells(Q).values)
        arg = int(np.argmax(magnitudes))
        assert _bits(np.float64(sup)) == _bits(magnitudes[arg])
        assert type(cell) is int and cell == arg
        full = any(level == Q.N + 1 for level, _, _ in calls)
        return (sup, cell), full, [dtype for _, dtype, _ in calls], [r.dtype for _, _, r in calls]

    @pytest.mark.parametrize(
        "total, dtype", [(2**24 - 1, np.float32), (2**24, np.float64), (2**24 + 1, np.float64)]
    )
    @pytest.mark.parametrize("orders, full_route", [((2,), False), ((1, 2), True)])
    def test_sum_of_magnitudes_picks_the_dtype(self, total, dtype, orders, full_route):
        # 2^24 + 1 has no float32 value: only a float64 route returns it
        Q = _with_total(orders, 8, total, np.random.default_rng(total))
        assert np.abs(Q.values).sum() == total
        (sup, cell), full, dtypes, _ = self._routed(Q)
        assert (sup, cell) == (total, 0)
        assert full is full_route and dtypes == [dtype]

    @pytest.mark.parametrize(
        "p, orders, values, dtype",
        [
            (2, (1, 2), lambda rng, n: rng.integers(-3, 4, n) + 0j, np.float32),
            (2, (2,), lambda rng, n: rng.choice([-1.0, 1.0], n) + 0.5, np.float64),
            (2, (2,), lambda rng, n: rng.choice([-1.0, 1.0], n) * (1 + 1j), np.complex128),
            (2, (2,), lambda rng, n: np.conj(rng.choice([-1.0, 1.0], n) + 0j), np.float32),
            (3, (2,), lambda rng, n: rng.choice([-1.0, 1.0], n) + 0j, np.complex128),
        ],
        ids=["mixed-parity-integer", "non-integer", "complex", "negative-zero-imaginary", "p=3"],
    )
    def test_dtype_of_other_polynomials(self, p, orders, values, dtype):
        rng = np.random.default_rng(p + len(orders))
        for N in (3, 8):
            indices = np.concatenate([term_indices(p, d, N) for d in orders])
            Q = ChaosPolynomial.from_indices(p, N, indices, values(rng, indices.size))
            _, _, dtypes, returned = self._routed(Q)
            assert dtypes == returned == [dtype]


class TestSupNormCore:
    """`_row_sups` takes the sup-norm of every row of a coefficient block on
    one polynomial's terms, with one scatter grid per (dtype, half grid)
    pair; each row's sup and cell are linf_norm's on that row alone, bit
    for bit, through the same stage loop."""

    @pytest.mark.parametrize(
        "p, orders, N, grids",
        [(2, (2,), 8, 4), (2, (1, 2), 8, 3), (3, (2,), 5, 1)],
        ids=["p=2-one-parity", "p=2-mixed-parity", "p=3"],
    )
    def test_rows_match_linf_norm_alone(self, p, orders, N, grids):
        rng = np.random.default_rng(N + len(orders))
        indices = np.concatenate([term_indices(p, d, N) for d in orders])
        # the block's columns follow Q.indices, the canonical term order
        Q = ChaosPolynomial.from_indices(p, N, indices, np.zeros(indices.size))
        n = indices.size
        block = np.array([
            rng.choice([-1.0, 1.0], n),  # float32, half grid at one parity
            rng.choice([-1.0, 1.0], n) * 2.0**19,  # sum |c| >= 2^24: exact float64
            rng.choice([-1.0, 1.0], n) + 0.5,  # inexact float64, full grid
            rng.choice([-1.0, 1.0], n) * (1 + 1j),  # complex128
            np.conj(rng.choice([-1.0, 1.0], n) + 0j),  # -0.0 imaginary parts
            rng.choice([-1.0, 1.0], n),  # the first pair's grid again
        ])
        assert np.abs(block[1]).sum() >= 2**24 and _bits(block[4].imag).all()
        handed, tensor_dft = [], chaos._tensor_dft

        def spy(values, p, level, **kwargs):
            handed.append((values, level, values.dtype))
            return tensor_dft(values, p, level, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chaos, "_tensor_dft", spy)
            sups, cells = chaos._row_sups(Q, block)
        assert len({id(values) for values, _, _ in handed}) == grids
        assert handed[0][0] is handed[5][0]
        for row, sup, cell, (_, level, dtype) in zip(block, sups, cells, handed):
            alone = ChaosPolynomial.from_indices(p, N, Q.indices, row)
            (alone_sup, alone_cell), [(alone_level, alone_dtype, _)] = stage_loops(alone)
            assert _bits(np.float64(sup)) == _bits(np.float64(alone_sup))
            assert type(cell) is int and cell == alone_cell
            assert (level, dtype) == (alone_level, alone_dtype)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-inf-j"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_a_non_finite_coefficient_in_any_row_is_refused(self, p, bad):
        Q = random_chaos(p, 2, 5, np.random.default_rng(p), "signs")
        for r in range(3):
            block = np.ones((3, Q.indices.size), dtype=np.complex128)
            block[r, r] = bad
            with pytest.raises(NonFiniteValue):
                chaos._row_sups(Q, block)


class TestSidonRatio:
    def test_order2_all_ones(self):
        assert sidon_ratio(all_ones(2, 2, 2)) == pytest.approx(3**-0.25)

    def test_exact_first_order(self):
        rng = np.random.default_rng(17)
        terms = enumerate_Nd(2, 1, 9)
        for _ in range(20):
            coeffs = rng.standard_normal(len(terms))
            Q = ChaosPolynomial(2, 9, dict(zip(terms, coeffs)))
            assert abs(sidon_ratio(Q) - 1.0) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        Q = random_chaos(3, 2, 3, rng, "unimodular")
        scaled = ChaosPolynomial(3, 3, {t: 7.5 * c for t, c in Q.coeffs.items()})
        assert sidon_ratio(scaled) == pytest.approx(sidon_ratio(Q))

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            sidon_ratio(ChaosPolynomial(2, 1, {}))


class TestProjectJ:
    def test_p2_identity(self):
        Q = all_ones(2, 2, 3)
        assert project_J(Q, [1, 1, 1, 1]).coeffs == Q.coeffs

    def test_p3_selection(self):
        terms = enumerate_Nd(3, 1, 1)
        Q = ChaosPolynomial(3, 1, {t: complex(i + 1) for i, t in enumerate(terms)})
        kept = project_J(Q, [1, 2])
        assert set(kept.coeffs) == {ChaosTerm((0,), (1,)), ChaosTerm((1,), (2,))}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_convolution_route_agrees(self, seed):
        rng = np.random.default_rng(seed)
        Q = random_chaos(3, 2, 4, rng, "unimodular")
        J = [int(x) for x in rng.integers(1, 3, size=5)]
        nu = lemma1_measure(3, 2, J, 5)
        route = convolve_with_measure(Q, nu)
        direct = polynomial_spectrum(project_J(Q, J), 5)
        assert np.abs(route.coeffs - direct.coeffs).max() <= 1e-8

    def test_young_bound(self):
        rng = np.random.default_rng(23)
        Q = random_chaos(3, 2, 4, rng, "unimodular")
        J = [int(x) for x in rng.integers(1, 3, size=5)]
        nu = lemma1_measure(3, 2, J, 5)
        sup, _ = linf_norm(Q)
        convolved_sup = np.abs(inverse(convolve_with_measure(Q, nu)).values).max()
        bound = nu.provenance["variation_bound"]
        assert convolved_sup <= nu.variation * sup + 1e-8
        assert convolved_sup <= bound * sup + 1e-8

    def test_rejects_mixed(self):
        Q = ChaosPolynomial(
            2, 1, {ChaosTerm((0,), (1,)): 1.0, ChaosTerm((0, 1), (1, 1)): 1.0}
        )
        with pytest.raises(InvalidOrder):
            project_J(Q, [1, 1])


class TestDecomposition:
    def test_p2_trivial(self):
        Q = all_ones(2, 2, 4)
        assert decomposition_residual(Q) == 0.0

    def test_p3_first_order(self):
        terms = enumerate_Nd(3, 1, 1)
        Q = ChaosPolynomial(3, 1, {t: complex(i - 1.5) for i, t in enumerate(terms)})
        assert decomposition_residual(Q) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_p3_random(self, seed):
        rng = np.random.default_rng(seed)
        Q = random_chaos(3, 2, 3, rng, "unimodular")
        assert decomposition_residual(Q) <= 1e-10

    def test_reconstruction_identity(self):
        # summing the projections over all exponent sequences reproduces Q
        rng = np.random.default_rng(3)
        Q = random_chaos(3, 2, 2, rng, "unimodular")
        from itertools import product

        acc = {t: 0j for t in Q.coeffs}
        for J in product(range(1, 3), repeat=3):
            for t, c in project_J(Q, J).coeffs.items():
                acc[t] += c
        scale = 2.0 ** -(3 - 2)
        for t, c in Q.coeffs.items():
            assert abs(c - scale * acc[t]) <= 1e-10

    def test_guard(self):
        term = ChaosTerm((0,), (1,))
        Q = ChaosPolynomial(3, 20, {term: 1.0})
        with pytest.raises(CombinatorialBlowup):
            decomposition_residual(Q)


class TestProjectOrder:
    def test_identity_and_zero(self):
        Q = all_ones(2, 2, 3)
        assert project_order(Q, 2).coeffs == Q.coeffs
        assert project_order(Q, 1).coeffs == {}

    def test_p2_mixed_by_hand(self):
        t1 = ChaosTerm((0,), (1,))
        t2 = ChaosTerm((0, 1), (1, 1))
        Q = ChaosPolynomial(2, 1, {t1: 1.0, t2: 1.0})
        part = project_order(Q, 1)
        assert part.coeffs == {t1: 1.0}
        nu = lemma2_measure(2, 2, 1, 2)
        route = convolve_with_measure(Q, nu)
        direct = polynomial_spectrum(part, 2)
        assert np.abs(route.coeffs - direct.coeffs).max() <= 1e-8

    def test_order_above_maximum(self):
        with pytest.raises(InvalidOrder):
            project_order(all_ones(2, 2, 3), 3)

    @pytest.mark.parametrize("p,d", [(2, 3), (3, 2)])
    def test_convolution_route_and_norm_bound(self, p, d):
        rng = np.random.default_rng(p + d)
        coeffs = {}
        for s in range(1, d + 1):
            for term in enumerate_Nd(p, s, 4):
                coeffs[term] = complex(rng.standard_normal(), rng.standard_normal())
        Q = ChaosPolynomial(p, 4, coeffs)
        sup, _ = linf_norm(Q)
        for s in range(1, d + 1):
            part = project_order(Q, s)
            nu = lemma2_measure(p, d, s, 5)
            route = convolve_with_measure(Q, nu)
            direct = polynomial_spectrum(part, 5)
            assert np.abs(route.coeffs - direct.coeffs).max() <= 1e-8
            assert linf_norm(part)[0] <= nu.variation * sup + 1e-8


class TestScalingIdentity:
    @pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_sign_scaling(self, p, d):
        rng = np.random.default_rng(10 * p + d)
        N, level = 4, 5
        J = [int(x) for x in rng.integers(1, p, size=level)]
        signs = [int(x) for x in rng.integers(0, 2, size=level) * 2 - 1]
        matched = [
            t for t in enumerate_Nd(p, d, N)
            if all(l == J[k] for k, l in zip(t.ks, t.ls))
        ]
        coeffs = rng.standard_normal(len(matched)) + 1j * rng.standard_normal(len(matched))
        Q = ChaosPolynomial(p, N, dict(zip(matched, coeffs)))
        rho = rho_y_measure(p, J, signs, level)
        out = convolve_with_measure(Q, rho)
        expected = np.zeros_like(out.coeffs)
        for t, c in Q.coeffs.items():
            scale = np.prod([signs[k] for k in t.ks]) / 2.0**d
            expected[paley_encode(t, p)] = c * scale
        assert np.abs(out.coeffs - expected).max() <= 1e-10


def test_polynomial_validation():
    with pytest.raises(InvalidExponent):
        ChaosPolynomial(2, 3, {ChaosTerm((0,), (2,)): 1.0})
    from pchaos import MalformedIndex

    with pytest.raises(MalformedIndex):
        ChaosPolynomial(2, 1, {ChaosTerm((0, 2), (1, 1)): 1.0})


def test_coefficient_vector_order():
    terms = enumerate_Nd(3, 2, 2)
    Q = ChaosPolynomial(3, 2, {t: complex(i) for i, t in enumerate(terms)})
    np.testing.assert_allclose(Q.values.real, np.arange(len(terms)))

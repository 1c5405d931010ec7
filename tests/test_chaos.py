"""Chaos polynomial norms, projections and the decomposition identity."""

import tracemalloc

import numpy as np
import pytest

from pchaos import (
    CellIndex,
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
from pchaos import chaos
from pchaos.chaos import synthesize


def all_ones(p, d, N):
    return ChaosPolynomial(p, N, {t: 1.0 for t in enumerate_Nd(p, d, N)})


class TestSynthesize:
    def test_single_term_is_character(self):
        term = ChaosTerm((0, 2), (1, 2))
        Q = ChaosPolynomial(3, 2, {term: 1.0})
        f = synthesize(Q)
        m = paley_encode(term, 3)
        expected = [character_value(m, CellIndex(3, 3, c)) for c in range(27)]
        np.testing.assert_allclose(f.values, expected, atol=1e-13)

    def test_order2_all_ones_by_hand(self):
        f = synthesize(all_ones(2, 2, 2))
        np.testing.assert_allclose(
            f.values.real, [3, -1, -1, -1, -1, -1, -1, 3], atol=1e-13
        )

    def test_zero_polynomial(self):
        Q = ChaosPolynomial(2, 2, {})
        assert not synthesize(Q).values.any()

    def test_level_too_small(self):
        with pytest.raises(InsufficientLevel):
            synthesize(all_ones(2, 1, 3), level=2)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        A = random_chaos(3, 2, 3, rng, "unimodular")
        B = random_chaos(3, 2, 3, rng, "unimodular")
        combined = ChaosPolynomial(
            3, 3, {t: A.coeffs.get(t, 0) + 2j * B.coeffs.get(t, 0)
                   for t in set(A.coeffs) | set(B.coeffs)}
        )
        lhs = synthesize(combined).values
        rhs = synthesize(A).values + 2j * synthesize(B).values
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestNorms:
    def test_aligned_rademacher_sum(self):
        Q = all_ones(2, 1, 3)
        sup, cell = linf_norm(Q)
        assert sup == pytest.approx(4.0)
        assert cell.index == 0

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

    def test_parseval_coefficient_level(self):
        rng = np.random.default_rng(4)
        Q = random_chaos(3, 2, 4, rng, "unimodular")
        f = synthesize(Q)
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
    and reduced to its sup in float64; every other one in complex128. Both
    give the sup and cell of the complex grid, bit for bit."""

    @staticmethod
    def _assert_sup_of_grid(Q):
        sup, cell = linf_norm(Q)
        level = Q.N + 1
        for values in (synthesize(Q).values, inverse(polynomial_spectrum(Q, level)).values):
            assert values.dtype == np.complex128
            magnitudes = np.abs(values)
            arg = int(np.argmax(magnitudes))
            assert _bits(np.float64(sup)) == _bits(magnitudes[arg])
            assert (cell.p, cell.level, cell.index) == (Q.p, level, arg)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sign_and_real_polynomials_every_level(self, d):
        # levels 1..17: up to three full 5-digit stages and a shorter last one
        rng = np.random.default_rng(d)
        for N in range(d - 1, 17):
            for Q in (random_chaos(2, d, N, rng, "signs"), _real_coefficients(d, N, rng)):
                assert chaos._cell_values(Q, N + 1, None).dtype == np.float64
                self._assert_sup_of_grid(Q)

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
        assert chaos._cell_values(negative, 10, None).dtype == np.float64
        (sup, cell), (plain_sup, plain_cell) = linf_norm(negative), linf_norm(Q)
        assert _bits(np.float64(sup)) == _bits(np.float64(plain_sup))
        assert cell.index == plain_cell.index
        self._assert_sup_of_grid(negative)

    @pytest.mark.parametrize("p,d,N", [(2, 2, 9), (2, 3, 12), (3, 2, 6), (3, 3, 8), (5, 2, 4), (7, 1, 3)])
    def test_complex_and_higher_bases_stay_complex(self, p, d, N):
        rng = np.random.default_rng(p * N)
        Q = random_chaos(p, d, N, rng, "unimodular")
        assert chaos._cell_values(Q, N + 1, None).dtype == np.complex128
        self._assert_sup_of_grid(Q)
        if p > 2:
            signs = random_chaos(p, d, N, rng, "signs")
            assert chaos._cell_values(signs, N + 1, None).dtype == np.complex128
            self._assert_sup_of_grid(signs)

    @pytest.mark.parametrize("ensemble", ["signs", "unimodular"])
    def test_guard_refuses_before_allocating(self, ensemble):
        Q = random_chaos(2, 2, 16, np.random.default_rng(0), ensemble)
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceeded):
                linf_norm(Q, max_cells=2**16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # the 2^17-cell grid alone is 1 MiB


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

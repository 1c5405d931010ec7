"""Riesz products, the shaped measure constructions and variation accounting."""

import itertools
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from pchaos import (
    ChaosPolynomial,
    ChaosTerm,
    CoefficientOutOfRange,
    EmptyIndexSet,
    GuardExceeded,
    IllConditionedSystem,
    InvalidExponent,
    InvalidOrder,
    LevelMismatch,
    MalformedIndex,
    NonFiniteValue,
    Spectrum,
    StepFunction,
    character_value,
    convolve_functions,
    forward,
    group_sub,
    inverse,
    lemma1_measure,
    lemma1_pattern_residual,
    lemma2_measure,
    lemma2_pattern_residual,
    lemma2_polynomial,
    paley_encode,
    project_order,
    random_chaos,
    rho_y_measure,
    riesz_density,
    term_indices,
)
from pchaos import chaos, cli, measures
from pchaos.baselines import LEMMA1_C1_BOUND
from pchaos.measures import MeasureRep, selector_nodes
from pchaos.transform import _row_lq_norms
from pchaos.padic import digit_matrix

from oracles import chaos_terms


class TestRieszDensity:
    def test_p2_expansion(self):
        d = riesz_density(2, 2, [1.0, 1.0], [1, 1])
        np.testing.assert_allclose(d.values.real, [4.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_p3_cosine(self):
        d = riesz_density(3, 1, [1.0], [1])
        np.testing.assert_allclose(d.values.real, [2.0, 0.5, 0.5], atol=1e-14)

    def test_zero_coefficients(self):
        d = riesz_density(3, 3, [0.0, 0.0, 0.0], [1, 2, 1])
        np.testing.assert_allclose(d.values.real, np.ones(27))

    def test_coefficient_out_of_range(self):
        with pytest.raises(CoefficientOutOfRange):
            riesz_density(2, 1, [1.5], [1])

    @pytest.mark.parametrize("bad", [True, np.True_, False])
    def test_bool_coefficient_refused(self, bad):
        # complex(True) ran it as a = 1
        with pytest.raises(CoefficientOutOfRange, match=f"coefficients must be numbers, got {bad!r}"):
            riesz_density(3, 1, [bad], [1])
        with pytest.raises(CoefficientOutOfRange, match="coefficients must be numbers"):
            riesz_density(3, 2, np.array([0.5, bad], dtype=object), [1, 2])
        with pytest.raises(CoefficientOutOfRange, match="coefficients must be numbers"):
            riesz_density(3, 1, np.array([bad]), [1])

    def test_reads_each_coefficient_and_exponent_once(self):
        # generators are consumed once: a second pass would find them empty
        a = [0.5, 0.25j, -0.5]
        density = riesz_density(3, 3, (x for x in a), (x for x in [1, 2, 1]))
        assert density.values.tobytes() == riesz_density(3, 3, a, [1, 2, 1]).values.tobytes()

    @pytest.mark.parametrize("p,level,seed", [(2, 6, 0), (3, 4, 1), (5, 3, 2)])
    def test_mass_properties(self, p, level, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            a = rng.random(level) * np.exp(2j * np.pi * rng.random(level))
            j = rng.integers(1, p, size=level)
            d = riesz_density(p, level, a, j)
            assert d.values.real.min() >= -1e-12
            assert np.abs(d.values.imag).max() <= 1e-12
            assert abs(d.integral() - 1.0) <= 1e-12
            assert abs(np.abs(d.values).sum() * p**-level - 1.0) <= 1e-12


def _selector_monomials(d):
    """lemma1's P in ascending monomial coefficients, expanded here as the
    sum over the target-1 nodes x_i of polyfromroots(other nodes) / below_i;
    pchaos reads P only at the letters of the alphabet."""
    nodes, targets = selector_nodes(d)
    coeffs = 0
    for i in np.flatnonzero(targets):
        others = np.delete(nodes, i)
        coeffs = coeffs + npoly.polyfromroots(others) / np.prod(nodes[i] - others)
    return nodes, targets, coeffs


def _letter_grid(d):
    """Every letter lemma1 caches P at, key u * _WIDTH + v, then the zero
    letter, and whether each is an interpolation node (u + v <= d)."""
    u, v = np.divmod(np.arange(measures._WIDTH**2), measures._WIDTH)
    letters = np.append(measures._letters(d, u, v), 0j)
    return letters, np.append(u + v <= d, True)


class TestSelectorSystem:
    def test_d1_nodes_and_targets(self):
        nodes, targets = selector_nodes(1)
        a = np.exp(2j * np.pi / 3)
        expected = [0.0, a**-1 / 2, a / 2, 1.0]
        np.testing.assert_allclose(nodes, expected, atol=1e-15)
        np.testing.assert_allclose(targets.real, [0.0, 0.0, 1.0, 1.0])
        assert len(nodes) == 4  # degree (d+1)(d+2)/2 = 3

    @pytest.mark.parametrize("d", range(1, 7))
    def test_nodes_distinct(self, d):
        # the smallest gap is 0.5, 0.25, 0.108, 0.0428, 0.0176 and 0.00748
        # at d = 1..6, so no distinctness floor needs checking at run time
        nodes, targets = selector_nodes(d)
        assert len(nodes) == (d + 1) * (d + 2) // 2 + 1
        gaps = np.abs(nodes[:, None] - nodes[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() >= 7e-3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_interpolation_reproduces_targets(self, d):
        # the expanded P meets its targets at the nodes, and the cached
        # values are the targets at every node letter, bit for bit
        nodes, targets, coeffs = _selector_monomials(d)
        values = npoly.polyval(nodes, coeffs)
        assert np.abs(values - targets).max() <= 1e-8
        assert coeffs[0] == 0  # point-mass weight vanishes exactly
        letters, node = _letter_grid(d)
        cached = measures._selector_solution(d)
        for x, value in zip(letters[node], cached[node]):
            assert value == targets[nodes == x].item()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_nodes_are_the_scalar_expression_bit_for_bit(self, d):
        # each node as Python's scalar complex arithmetic computes it
        expected = [0j] + [
            np.exp(2j * np.pi * (2 * i - (d - l)) / (2 * d + 1)) / 2 ** (d - l)
            for l in range(d + 1)
            for i in range(d - l + 1)
        ]
        nodes, targets = selector_nodes(d)
        assert nodes.tobytes() == np.array(expected, dtype=np.complex128).tobytes()
        matched = [0.0] + [float(i == d - l) for l in range(d + 1) for i in range(d - l + 1)]
        assert targets.tolist() == matched

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than float64"
    )
    @pytest.mark.parametrize("d", range(1, 7))
    def test_off_node_values_within_their_bound(self, d):
        # P's Lagrange form in long double through the same float64 nodes;
        # each cached off-node value lies within its a priori bound
        # 4 n eps sum_i |t_i| of it (the float values missed by at most
        # 8.4e-17, 0.13 of the bound, on an x86-64 80-bit long double)
        nodes, targets = selector_nodes(d)
        letters, node = _letter_grid(d)
        x = letters[~node]
        wide_nodes, wide_x = nodes.astype(np.clongdouble), x.astype(np.clongdouble)
        exact = np.zeros(len(x), dtype=np.clongdouble)
        bound = np.zeros(len(x))
        for i in np.flatnonzero(targets):
            others = np.delete(nodes, i)
            exact += np.prod(wide_x[:, None] - np.delete(wide_nodes, i), axis=1) / np.prod(
                wide_nodes[i] - np.delete(wide_nodes, i)
            )
            bound += np.abs(np.prod(x[:, None] - others, axis=1) / np.prod(nodes[i] - others))
        bound *= 4 * len(nodes) * np.finfo(float).eps
        cached = measures._selector_solution(d)[~node]
        assert (np.abs(cached.astype(np.clongdouble) - exact) <= bound).all()
        assert bound.max() <= 3e-15

    def test_rejects_unreachable_residual(self, monkeypatch):
        # no rounding bound is below 1e-30; the refused order is not cached
        measures._selector_solution.cache_clear()
        monkeypatch.setattr(measures, "CONSTRUCTION_TOL", 1e-30)
        for _ in range(2):
            with pytest.raises(IllConditionedSystem, match="rounding bound"):
                lemma1_measure(3, 2, [1, 2, 1], 3)

    def test_double_precision_limit(self):
        # every order up to the d <= 6 cap is admitted; d = 7 is refused
        # before any letter is evaluated
        assert lemma1_measure(2, 6, [1] * 6, 6).spectrum.coeffs[2**6 - 1] == 1
        with pytest.raises(GuardExceeded, match="order 7 exceeds the supported selector cap 6"):
            lemma1_measure(2, 7, [1] * 7, 7)

    def test_order_guard(self):
        with pytest.raises(GuardExceeded):
            selector_nodes(7)

    def test_solved_once_per_order(self, monkeypatch):
        # P is evaluated once per order, and never expanded into monomials
        def refuse(*args):
            raise AssertionError("lemma1 expanded its selector")

        measures._selector_solution.cache_clear()
        calls = []
        nodes = measures.selector_nodes
        monkeypatch.setattr(measures, "selector_nodes", lambda d: calls.append(d) or nodes(d))
        monkeypatch.setattr(measures, "_linear_product", refuse)
        first = lemma1_measure(3, 2, [1, 2, 1, 2], 4)
        for _ in range(3):
            again = lemma1_measure(3, 2, [1, 2, 1, 2], 4)
            assert again.spectrum.coeffs.tobytes() == first.spectrum.coeffs.tobytes()
        assert calls == [2]

    def test_cached_order_still_checks_its_argument(self):
        lemma1_measure(3, 1, [1, 2, 1], 3)
        lemma1_measure(3, 2, [1, 2, 1], 3)
        # True and 2.0 hash as the cached 1 and 2
        with pytest.raises(MalformedIndex, match="order must be an integer, got True"):
            lemma1_measure(3, True, [1, 2, 1], 3)
        with pytest.raises(MalformedIndex, match="order must be an integer, got 2.0"):
            lemma1_measure(3, 2.0, [1, 2, 1], 3)
        assert lemma1_measure(3, np.int64(2), [1, 2, 1], 3).provenance["d"] == 2

    def test_refused_order_raises_on_every_call(self, monkeypatch):
        # each call refuses the order again, before any index key is built
        def refuse(*args):
            raise AssertionError("the keys were built before the order check")

        monkeypatch.setattr(measures, "is_self_conjugate", refuse)
        for _ in range(3):
            with pytest.raises(GuardExceeded):
                lemma1_measure(2, 7, [1] * 7, 7)
            with pytest.raises(InvalidOrder):
                lemma1_measure(2, 0, [1], 1)

    def test_arrays_are_read_only(self):
        values = measures._selector_solution(3)
        with pytest.raises(ValueError):
            values[0] = 1.0
        nu = lemma1_measure(3, 3, [1, 2, 1, 2], 4)
        before = nu.spectrum.coeffs.tobytes()
        nu.spectrum.coeffs[:] = 7.0  # the measure owns its coefficients
        assert lemma1_measure(3, 3, [1, 2, 1, 2], 4).spectrum.coeffs.tobytes() == before
        with pytest.raises(InvalidOrder):
            selector_nodes(0)


class TestLemma1Measure:
    def test_p2_all_matched(self):
        nu = lemma1_measure(2, 1, [1, 1, 1, 1], 4)
        for k in range(4):
            assert abs(nu.spectrum.coeffs[2**k] - 1.0) <= 1e-6

    def test_p3_pattern(self):
        nu = lemma1_measure(3, 1, [1, 1, 1, 1], 4)
        for k in range(4):
            assert abs(nu.spectrum.coeffs[3**k] - 1.0) <= 1e-6
            assert abs(nu.spectrum.coeffs[2 * 3**k]) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_p3_d2_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        J = [int(x) for x in rng.integers(1, 3, size=6)]
        nu = lemma1_measure(3, 2, J, 6)
        matched, mismatched = lemma1_pattern_residual(nu, 2, J, 5)
        assert matched <= 1e-6 and mismatched <= 1e-6

    def test_pattern_is_exactly_zero(self):
        # every node letter takes its target: every matched order-d
        # coefficient is exactly 1 and every mismatched one exactly 0 (the
        # monomial route missed by up to 4e-11), at p = 2..16, d = 1..3 and
        # levels d..7 up to 2^20 cells, and at p = 2, 3, 5, 7, d = 4..6 and
        # levels d..d+2 up to 2^16 cells, two exponent sequences each
        rng = np.random.default_rng(30)
        grid = [(p, d, range(d, 8), 2**20) for p in range(2, 17) for d in (1, 2, 3)]
        grid += [(p, d, range(d, d + 3), 2**16) for p in (2, 3, 5, 7) for d in (4, 5, 6)]
        cases = 0
        for p, d, levels, cells in grid:
            for level in levels:
                if p**level > cells:
                    break
                for _ in range(2):
                    J = [int(x) for x in rng.integers(1, p, size=level)]
                    nu = lemma1_measure(p, d, J, level)
                    residual = lemma1_pattern_residual(nu, d, J, level - 1)
                    assert residual == (0.0, 0.0), (p, d, J)
                    cases += 1
        assert cases == 2 * (225 + 27)

    def test_variation_below_bound(self):
        nu = lemma1_measure(3, 2, [1, 2, 1, 2, 1], 5)
        assert nu.variation <= LEMMA1_C1_BOUND[2] + 1e-8
        assert abs(np.abs(inverse(nu.spectrum).values).mean() - nu.variation) <= 1e-12

    def test_coefficients_bounded_by_variation(self):
        nu = lemma1_measure(3, 2, [2, 1, 2, 1, 2], 5)
        assert np.abs(nu.spectrum.coeffs).max() <= nu.variation + 1e-8

    def test_builds_no_product_and_runs_no_transform(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("lemma1_measure reads its coefficients from the alphabet")

        monkeypatch.setattr(measures, "riesz_density", refused)
        monkeypatch.setattr(measures, "forward", refused)
        for p, d, level in [(2, 2, 5), (3, 3, 5), (4, 2, 4), (6, 1, 3)]:
            J = [1 + k % (p - 1) for k in range(level)]
            nu = lemma1_measure(p, d, J, level)
            assert max(lemma1_pattern_residual(nu, d, J, level - 1)) <= 1e-6

    def test_cell_guard_runs_before_the_exponents(self):
        # J = [1] is out of range 1..0 at p=1; the base is refused first
        with pytest.raises(GuardExceeded, match="base must be >= 2, got 1"):
            lemma1_measure(1, 1, [1], 1)
        with pytest.raises(GuardExceeded, match="level 25 exceeds"):
            lemma1_measure(2, 1, [1] * 25, 25)

    def test_alphabet_route_matches_the_transform_route(self):
        # P applied by polyval to the forward transform of the Riesz density
        # (the route lemma1_measure took before reading the alphabet). A
        # transform error e in a base coefficient moves P by up to
        # e sum_i i |c_i| (every base coefficient lies in the unit disc), and
        # that sum reaches 8.0e6 at d=3, where the two routes differ by up to
        # 1.2e-10; the transform is accurate to about 1e-15 here. The
        # measure evaluates P's Lagrange form, not its monomial coefficients,
        # so even at p=2, where the transform is exact, the routes agree only
        # to that tolerance. Its pattern residuals are no larger than the
        # monomial coefficients' own errors at the nodes. The check stays at
        # d <= 3: P's sensitivity put the transform route up to 7.5e-5, 1.9e5
        # and 4.5e17 off at d = 4, 5 and 6 (p = 2..7, levels d..6)
        rng = np.random.default_rng(27)
        cases = 0
        for p in range(2, 8):
            for d in (1, 2, 3):
                nodes, targets, c = _selector_monomials(d)
                slope = float((np.arange(len(c)) * np.abs(c)).sum())
                errors = np.abs(npoly.polyval(nodes, c) - targets)
                matched_error = errors[targets == 1].max()
                mismatched_error = errors[targets == 0].max()
                for level in range(7):
                    J = [int(x) for x in rng.integers(1, p, size=level)]
                    nu = lemma1_measure(p, d, J, level)
                    got = nu.spectrum.coeffs
                    if level >= d:
                        matched, mismatched = lemma1_pattern_residual(nu, d, J, level - 1)
                        assert matched <= matched_error, (p, d, level)
                        assert mismatched <= mismatched_error, (p, d, level)
                    rho_hat = measures._lemma1_base_spectrum(p, d, J, level).coeffs
                    expected = npoly.polyval(rho_hat, c)
                    scale = np.abs(expected).max()
                    tol = max(1e-10, 1e-15 * slope) * scale
                    assert np.abs(got - expected).max() <= tol, (p, d, level)
                    cases += 1
        assert cases == 6 * 3 * 7

    @pytest.mark.parametrize("d", range(1, 7))
    def test_order_d_coefficients_are_P_at_the_nodes(self, d):
        # every order-d letter is a node and takes its target, so every
        # order-d coefficient is P's target at its node exactly; a digit
        # outside {0, J_k, -J_k} gives P(0), exactly 0
        _, targets = selector_nodes(d)
        rng = np.random.default_rng(d)
        for p in (2, 3, 4, 5, 6, 7) if d <= 3 else (2, 3, 5):
            level = max(5, d)
            J = [int(x) for x in rng.integers(1, p, size=level)]
            coeffs = lemma1_measure(p, d, J, level).spectrum.coeffs
            indices = term_indices(p, d, level - 1)
            for index, digits in zip(indices, digit_matrix(indices, p, level)):
                u = v = 0
                for x, jk in zip(digits, J):
                    if x == 0 or (x == jk and (2 * jk) % p == 0):
                        continue
                    if x == jk:
                        u += 1
                    elif x == -jk % p:
                        v += 1
                    else:
                        assert coeffs[index] == 0
                        break
                else:
                    # block l = d-(u+v) of the node list, entry i = u
                    l = d - (u + v)
                    position = 1 + sum(d - k + 1 for k in range(l)) + u
                    assert coeffs[index] == targets[position], (p, index)
                    assert coeffs[index] == (v == 0), (p, index)

    @pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (4, 2)])
    def test_base_coefficients_in_alphabet(self, p, d):
        # the raw product coefficients on order-d indices live in the
        # finite alphabet that the shaping polynomial interpolates through
        rng = np.random.default_rng(d + p)
        level = 5
        J = [int(x) for x in rng.integers(1, p, size=level)]
        a = np.exp(2j * np.pi / (2 * d + 1))
        factors = [1.0 if (2 * jk) % p == 0 else a for jk in J]
        rho_hat = forward(riesz_density(p, level, factors, J))
        alphabet, _ = selector_nodes(d)
        for term in chaos_terms(p, d, level - 1):
            value = rho_hat.coeffs[paley_encode(term, p)]
            assert np.abs(alphabet - value).min() <= 1e-8


def _exact_selector(p, d, s):
    """lemma2's P in exact rationals: x p^s prod_{j != s} (x - p^-j) /
    (p^-s - p^-j) is p^(ds) x prod (p^j x - 1) / prod (p^j - p^s), whose
    product has integer coefficients. Ascending, constant term first."""
    ints = [1]
    for j in range(1, d + 1):
        if j != s:  # times (p^j x - 1)
            ints = [p**j * a - b for a, b in zip([0] + ints, ints + [0])]
    below = math.prod(p**j - p**s for j in range(1, d + 1) if j != s)
    return [Fraction(0)] + [Fraction(p ** (d * s) * c, below) for c in ints]


class TestLemma2:
    def test_hand_derived_polynomial(self):
        np.testing.assert_allclose(lemma2_polynomial(2, 2, 1), [0.0, -2.0, 8.0], atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_linear_case(self, p):
        np.testing.assert_allclose(lemma2_polynomial(p, 1, 1), [0.0, p], atol=1e-12)

    @pytest.mark.parametrize("p, level", [(2, 5), (3, 4), (5, 3)])
    def test_spectrum_matches_the_shaped_product(self, p, level):
        # the product prod_k (1 + (R_k + ... + R_k^(p-1))/p), built here on
        # the cells, has coefficient p^-m at every index of chaos order m;
        # P applied to its coefficients by polyval is the lemma2 measure
        omega = np.exp(2j * np.pi * np.arange(p) / p)
        factor = 1.0 + sum(omega**l for l in range(1, p)).real / p
        density = np.ones(1)
        for _ in range(level):
            density = np.multiply.outer(density, factor).reshape(-1)
        rho_hat = forward(StepFunction(p, level, density)).coeffs
        orders = [sum(digit != "0" for digit in np.base_repr(m, p)) for m in range(p**level)]
        np.testing.assert_allclose(rho_hat, float(p) ** -np.array(orders), rtol=0, atol=1e-12)
        for d in (1, 2, 3):
            for s in range(1, d + 1):
                expected = npoly.polyval(rho_hat, lemma2_polynomial(p, d, s))
                got = lemma2_measure(p, d, s, level).spectrum.coeffs
                # relative: the order-0 coefficient P(1) reaches 15625 at p=5, d=3
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "p, d, s, level", [(2, 8, 8, 8), (3, 6, 6, 6), (16, 4, 4, 4), (2, 12, 12, 12)]
    )
    def test_exact_where_the_float_product_was_not(self, p, d, s, level):
        # a float route through the product's spectrum and P's monomial
        # coefficients missed 1e-8 here (a killed residual of 3.3e4 at p=2, d=12)
        nu = lemma2_measure(p, d, s, level)
        assert lemma2_pattern_residual(nu, d, s, level - 1) == (0.0, 0.0)

    def test_variation_closed_form(self):
        # P(1) = 2 (2^12 - 1), P(1/2) = 1 and P(2^-m) = 0 for m = 2..12, so the
        # density is 8190 plus the 12 Rademacher functions: positive, and
        # its variation is its mean
        nu = lemma2_measure(2, 12, 1, 12)
        assert nu.spectrum.coeffs[0] == 8190
        assert abs(nu.variation - 8190) <= 1e-12 * 8190

    def test_builds_no_product_density(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lemma2_measure transformed or evaluated a grid")

        monkeypatch.setattr(measures, "forward", refuse)
        monkeypatch.setattr(npoly, "polyval", refuse)
        nu = lemma2_measure(3, 3, 2, 4)
        assert lemma2_pattern_residual(nu, 3, 2, 3) == (0.0, 0.0)

    def test_guards_run_before_the_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the selector was expanded")

        monkeypatch.setattr(measures, "_linear_product", refuse)
        # the level and the cell guard come before the polynomial
        with pytest.raises(LevelMismatch):
            lemma2_measure(2, 3000, 1, 0)
        with pytest.raises(GuardExceeded):
            lemma2_measure(2, 3000, 1, 25)
        # the leading coefficient's lower bound p^(s + s(s-1)/2 + s(d-s))
        # overflows, so no O(d^2) product runs
        for p, d, s in [(2, 3000, 1), (2, 300000, 7), (16, 300, 300), (3, 10**12, 1)]:
            with pytest.raises(NonFiniteValue, match="leaves the float64 range"):
                lemma2_polynomial(p, d, s)
            with pytest.raises(NonFiniteValue, match="leaves the float64 range"):
                lemma2_measure(p, d, s, 2)

    def test_coefficients_match_the_fraction_expansion(self):
        # the Newton solve missed by up to 1.4e126 relative at p=16, d=15,
        # s=1, and by more than 4e-15 in 1,489 of these 1,800 orders
        for p in range(2, 17):
            for d in range(1, 16):
                for s in range(1, d + 1):
                    got = lemma2_polynomial(p, d, s)
                    assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0
                    for c, exact in zip(got[1:], _exact_selector(p, d, s)[1:]):
                        assert abs(Fraction(c) - exact) <= 4e-15 * abs(exact), (p, d, s)

    def test_large_orders_keep_every_normal_coefficient(self):
        # the monic prod (x - p^-j) times the leading coefficient loses
        # what underflows in the monic product: at p=2, d=46, s=2 its
        # constant term, 2^-1079, is 0.0, so P's x coefficient, 2.6e-297,
        # came out 0.0. The scaled factors keep every coefficient in range
        for p in (2, 3, 10, 16):
            for d in range(16, 49):
                for s in (1, 2, d // 2, d - 1, d):
                    try:
                        got = lemma2_polynomial(p, d, s)
                    except NonFiniteValue:
                        continue
                    for c, exact in zip(got[1:], _exact_selector(p, d, s)[1:]):
                        if abs(exact) >= sys.float_info.min:
                            assert abs(Fraction(c) - exact) <= 4e-15 * abs(exact), (p, d, s)

    def test_refused_exactly_where_the_leading_coefficient_overflows(self):
        # over p = 2..7, d <= 80 and every s, the lower bound on the leading
        # coefficient refuses a subset of these orders before any work
        bound_refused = refused = 0
        for p in range(2, 8):
            for d in range(1, 81):
                for s in range(1, d + 1):
                    # 1 over p^-s prod (p^-s - p^-j), j != s, in ints
                    others = [j for j in range(1, d + 1) if j != s]
                    below = math.prod(p**j - p**s for j in others)
                    lead = Fraction(p ** (d * s + sum(others)), below)
                    power = s + s * (s - 1) // 2 + s * (d - s)
                    early = p**power > sys.float_info.max
                    overflow = abs(lead) > sys.float_info.max
                    assert overflow or not early, (p, d, s)
                    try:
                        lemma2_polynomial(p, d, s)
                    except NonFiniteValue:
                        assert overflow, (p, d, s)
                        refused += 1
                    else:
                        assert not overflow, (p, d, s)
                    bound_refused += early
        assert bound_refused == 12873
        assert refused == 12889

    def test_selector_past_the_float_range_is_refused(self):
        # P's monomial coefficients overflow float64 from d=45 at p=2;
        # the measure came back NaN
        with pytest.raises(NonFiniteValue, match="leaves the float64 range"):
            lemma2_measure(2, 45, 45, 2)

    @pytest.mark.parametrize("p, d, s", [(2, 45, 40), (3, 36, 30)])
    def test_variation_past_the_float_range_is_refused(self, p, d, s):
        # finite coefficients whose l1 norm overflows: the measure came back
        # with an infinite variation_bound, and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="lemma2 variation leaves the float64"):
                lemma2_measure(p, d, s, 2)

    def test_variation_whose_cell_sum_overflows_is_kept(self):
        # the 49 cells' |density| sum passes the float64 range, but the
        # variation does not: the sum is taken once more, scaled by the
        # largest cell, where it was refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu = lemma2_measure(7, 27, 22, 2)
        cells = np.abs(inverse(nu.spectrum).values)
        with np.errstate(over="ignore"):
            assert not math.isfinite(cells.sum())
        exact = sum(Fraction(float(c)) for c in cells) / 49
        assert abs(Fraction(nu.variation) - exact) <= 1e-15 * exact
        assert 7.0e306 < nu.variation <= nu.provenance["variation_bound"] < 9.9e306

    def test_p3_d3_s2_pattern(self):
        nu = lemma2_measure(3, 3, 2, 5)
        kept, killed = lemma2_pattern_residual(nu, 3, 2, 4)
        assert kept <= 1e-8 and killed <= 1e-8

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            lemma2_measure(2, 2, 3, 4)

    def test_pattern_refuses_an_order_above_d(self):
        # the loop over orders 1..d never read order 3: kept read 0.0
        nu = lemma2_measure(3, 2, 1, 3)
        with pytest.raises(InvalidOrder, match="selected order 3 not in 1..2"):
            lemma2_pattern_residual(nu, 2, 3, 2)
        with pytest.raises(InvalidOrder, match="order must be at least 1, got 0"):
            lemma2_pattern_residual(nu, 2, 0, 2)

    def test_pattern_refuses_an_order_without_terms(self):
        # order 3 has no term on the 2 positions 0..1: nothing to check
        nu = lemma2_measure(2, 3, 3, 2)
        with pytest.raises(EmptyIndexSet, match="order 3 exceeds the 2 available positions"):
            lemma2_pattern_residual(nu, 3, 3, 1)

    def test_variation_below_bound(self):
        nu = lemma2_measure(2, 2, 1, 4)
        assert nu.variation <= nu.provenance["variation_bound"] + 1e-8


class TestRhoY:
    def test_p3_d1_half(self):
        rho = rho_y_measure(3, [2, 1, 1], [1, 1, 1], 3)
        assert abs(rho.spectrum.coeffs[2] - 0.5) <= 1e-12
        assert abs(rho.variation - 1.0) <= 1e-12

    def test_p2_signed_halves(self):
        signs = [1, -1, 1, -1]
        rho = rho_y_measure(2, [1, 1, 1, 1], signs, 4)
        for k in range(4):
            assert abs(rho.spectrum.coeffs[2**k] - signs[k] / 2) <= 1e-12

    def test_sign_flip_negates_containing_terms(self):
        J = [1, 2, 1]
        base = rho_y_measure(3, J, [1, 1, 1], 3)
        flipped = rho_y_measure(3, J, [1, -1, 1], 3)
        for term in chaos_terms(3, 2, 2):
            if not all(l == J[k] for k, l in zip(term.ks, term.ls)):
                continue
            m = paley_encode(term, 3)
            sign = -1.0 if 1 in term.ks else 1.0
            assert abs(flipped.spectrum.coeffs[m] - sign * base.spectrum.coeffs[m]) <= 1e-12

    def test_rejects_bad_signs(self):
        with pytest.raises(CoefficientOutOfRange):
            rho_y_measure(2, [1, 1], [1, 2], 2)


class TestTotalVariation:
    def test_riesz_product_is_one(self):
        rng = np.random.default_rng(9)
        a = rng.random(4) * np.exp(2j * np.pi * rng.random(4))
        density = riesz_density(3, 4, a, rng.integers(1, 3, size=4))
        spectrum = forward(density)
        measure = MeasureRep(spectrum, 1.0, {"construction": "riesz"})
        values = inverse(measure.spectrum).values[None]
        assert abs(_row_lq_norms(values, 1.0, 3.0**-4)[0] - 1.0) <= 1e-12

    def test_point_mass(self):
        measure = MeasureRep(Spectrum(2, 3, np.ones(8, complex)), 1.0, {})
        values = inverse(measure.spectrum).values[None]
        assert abs(_row_lq_norms(values, 1.0, 2.0**-3)[0] - 1.0) <= 1e-12


class TestSpectralVsLiteralConvolutionPowers:
    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (3, 2)])
    def test_polynomial_in_measure_matches_convolution_powers(self, p, d):
        # build the shaped measure literally: c_0 * delta_0 + sum c_i rho^(*i)
        # with convolution powers taken in the cell domain
        level = 3
        rng = np.random.default_rng(p * 10 + d)
        J = [int(x) for x in rng.integers(1, p, size=level)]
        nu = lemma1_measure(p, d, J, level)
        coeffs = _selector_monomials(d)[2]
        a = np.exp(2j * np.pi / (2 * d + 1))
        factors = [1.0 if (2 * jk) % p == 0 else a for jk in J]
        rho = riesz_density(p, level, factors, J)

        delta_density = inverse(Spectrum(p, level, np.ones(p**level, complex)))
        literal = coeffs[0] * delta_density.values
        power = rho
        literal = literal + coeffs[1] * power.values
        for c in coeffs[2:]:
            power = convolve_functions(power, rho)
            literal = literal + c * power.values
        literal_hat = forward(StepFunction(p, level, literal))
        assert np.abs(literal_hat.coeffs - nu.spectrum.coeffs).max() <= 1e-10


@pytest.mark.parametrize("bad", [float("nan"), complex(float("inf"), 0.0), complex(0.0, float("nan"))])
def test_riesz_density_refuses_non_finite(bad):
    with pytest.raises(CoefficientOutOfRange, match="not finite"):
        riesz_density(3, 2, [0.5, bad], [1, 2])


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: lemma1_measure(2, 1, [1.9], 1), "exponents must be integers, got 1.9"),
        (lambda: riesz_density(3, 1, [0.5], [2.9]), "exponents must be integers, got 2.9"),
        (lambda: riesz_density(3, 1, [0.5], [True]), "exponents must be integers, got True"),
        (lambda: rho_y_measure(2, [1], [True], 1), "signs must be integers, got True"),
        (lambda: rho_y_measure(3, [1.0], [1], 1), "exponents must be integers, got 1.0"),
    ],
    ids=["lemma1-J", "riesz-j", "riesz-j-bool", "rho-y-signs", "rho-y-J"],
)
def test_refuses_exponents_and_signs_that_are_not_integers(build, bad):
    # int() would run J=(1,), j=2 and signs (1,) in their place
    with pytest.raises(MalformedIndex, match=bad):
        build()


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: riesz_density(3, True, [0.5], [1]), "level must be an integer, got True"),
        (
            lambda: ChaosPolynomial.from_indices(2, True, [1], [1.0]),
            "N must be an integer, got True",
        ),
        (lambda: lemma1_measure(3, True, [1, 2, 1], 3), "order must be an integer, got True"),
        (lambda: lemma2_measure(3, 2.0, 1, 3), "order must be an integer, got 2.0"),
        (lambda: rho_y_measure(2.0, [1], [1], 1), "p must be an integer, got 2.0"),
    ],
    ids=["riesz-level", "polynomial-N", "lemma1-d", "lemma2-d", "rho-y-p"],
)
def test_refuses_scalars_that_are_not_integers(build, bad):
    # the bools ran as level 1, N=1 and d=1; the floats ended in a TypeError
    with pytest.raises(MalformedIndex, match=bad):
        build()


def _mixed_polynomial():
    return ChaosPolynomial.from_indices(2, 2, [1, 3], [1.0, 1.0])


@pytest.mark.parametrize(
    "build, error, bad",
    [
        (lambda: character_value(1.5, 3, 2, 1), MalformedIndex, "expected a natural number, got 1.5"),
        (lambda: group_sub(3, 2, 1.5, 1), MalformedIndex, "cell index must be an integer, got 1.5"),
        (
            lambda: paley_encode(ChaosTerm((0,), (1,)), 2.5),
            MalformedIndex,
            "p must be an integer, got 2.5",
        ),
        (lambda: lemma2_polynomial(2.5, 2, 1), MalformedIndex, "p must be an integer, got 2.5"),
        (lambda: chaos._row_lq_norms(np.ones((1, 2)), True), InvalidExponent, "finite and positive, got True"),
        (lambda: chaos._row_lq_norms(np.ones((1, 2)), np.True_), InvalidExponent, "finite and positive, got True"),
        (lambda: term_indices(2, 2, 4.0), MalformedIndex, "N must be an integer, got 4.0"),
        (lambda: term_indices("3", 2, 4), MalformedIndex, "p must be an integer, got '3'"),
        (lambda: project_order(_mixed_polynomial(), 1.5), MalformedIndex, "order must be an integer, got 1.5"),
        (lambda: project_order(_mixed_polynomial(), 0), InvalidOrder, "order must be at least 1, got 0"),
        (lambda: term_indices(2, True, 4), MalformedIndex, "order must be an integer, got True"),
        (lambda: term_indices(2, 0, 4), InvalidOrder, "order must be at least 1, got 0"),
        (
            lambda: random_chaos(2, True, 3, np.random.default_rng(0)),
            MalformedIndex,
            "order must be an integer, got True",
        ),
        (lambda: selector_nodes(True), MalformedIndex, "order must be an integer, got True"),
        (lambda: selector_nodes(0), InvalidOrder, "order must be at least 1, got 0"),
        (lambda: lemma2_polynomial(2, 2, True), MalformedIndex, "order must be an integer, got True"),
        (lambda: lemma2_polynomial(2, 0, 1), InvalidOrder, "order must be at least 1, got 0"),
    ],
    ids=[
        "character-m", "group-sub-cell", "paley-encode-p", "lemma2-polynomial-p",
        "lq-q-bool", "lq-q-numpy-bool", "term-indices-N", "term-indices-p-str",
        "project-order-float", "project-order-0", "term-indices-d-bool", "term-indices-d-0",
        "random-chaos-d-bool", "lemma1-system-d-bool", "lemma1-system-d-0",
        "lemma2-polynomial-s-bool", "lemma2-polynomial-d-0",
    ],
)
def test_scalar_entry_points_refuse_what_is_not_an_admitted_integer(build, error, bad):
    # the non-integers ran on a rounded, truncated or bool value (q=1, d=1,
    # the zero polynomial, base 2.5) or ended in a TypeError; the orders
    # below 1 share the one order guard's message
    with pytest.raises(error, match=bad):
        build()


def _factor_table(p, ak, jk):
    """1 + Re(a_k w) for the roots w of exponent jk, in float64 as
    1 + (a_r w_r - a_i w_i)."""
    w = np.exp(2j * np.pi * ((jk * np.arange(p)) % p) / p)
    return 1.0 + (ak.real * w.real - ak.imag * w.imag)


def _broadcast_riesz_density(p, level, a, j):
    """Reference: the product by broadcasting, one reshaped factor per axis."""
    values = np.ones((p,) * level if level else (1,))
    for k, (ak, jk) in enumerate(zip(a, j)):
        shape = [1] * level
        shape[k] = p
        factor = _factor_table(p, ak, jk)
        values = values * factor.reshape(shape)
    return values.reshape(p**level)


def test_riesz_density_matches_the_broadcast_product_bit_for_bit():
    rng = np.random.default_rng(0)
    cases = 0
    for p in range(2, 17):
        level = 0
        while p**level <= 4096:
            for _ in range(5):
                a = [complex(x) for x in rng.random(level) * np.exp(2j * np.pi * rng.random(level))]
                j = [int(x) for x in rng.integers(1, p, size=level)]
                got = riesz_density(p, level, a, j).values
                expected = _broadcast_riesz_density(p, level, a, j)
                assert got.tobytes() == expected.astype(got.dtype).tobytes(), (p, level)
                cases += 1
            level += 1
    assert cases == 405


def _per_factor_riesz_density(p, level, a, j):
    """Reference: the per-factor route, each factor table built from the
    roots of its own exponent, multiplied out by outer products."""
    values = np.ones(())
    for ak, jk in zip(a, j):
        values = np.multiply.outer(values, _factor_table(p, ak, jk))
    return values.reshape(p**level)


def test_riesz_block_rows_match_the_per_factor_route_bit_for_bit():
    rng = np.random.default_rng(1)
    cases = 0
    for p in range(2, 17):
        level = 0
        while p**level <= 4096:
            rows = 4
            a = rng.random((rows, level)) * np.exp(2j * np.pi * rng.random((rows, level)))
            j = rng.integers(1, p, size=(rows, level))
            block = measures._riesz_block(p, level, a, j)
            assert block.shape == (rows, p**level) and block.dtype == np.float64
            for r in range(rows):
                expected = _per_factor_riesz_density(p, level, [complex(x) for x in a[r]], j[r])
                assert block[r].tobytes() == expected.tobytes(), (p, level, r)
                cases += 1
            level += 1
    assert cases == 4 * 81


def test_riesz_factor_tables_match_python_floats_bit_for_bit():
    # each factor table is 1 + (a_r w_r - a_i w_i) in Python floats from the
    # same table of roots, and each density the product of its tables left
    # to right, 1.0 * f_0 * f_1 * ..., factor 0 on the slowest digit; p=2
    # at levels 8 and 9 runs the per-digit steps
    rng = np.random.default_rng(5)
    rows, cases = 3, 0
    for p in range(2, 17):
        roots = np.exp(2j * np.pi * np.arange(p) / p).tolist()
        level = 1
        while p**level <= 512:
            a = (rng.random((rows, level)) * np.exp(2j * np.pi * rng.random((rows, level)))).tolist()
            j = rng.integers(1, p, size=(rows, level)).tolist()
            expected = []
            for ar, jr in zip(a, j):
                tables = [
                    [1.0 + (ak.real * roots[jk * x % p].real - ak.imag * roots[jk * x % p].imag)
                     for x in range(p)]
                    for ak, jk in zip(ar, jr)
                ]
                for factors in itertools.product(*tables):
                    value = 1.0
                    for f in factors:
                        value *= f
                    expected.append(value)
            block = measures._riesz_block(p, level, a, j)
            assert block.tobytes() == np.array(expected).tobytes(), (p, level)
            cases += 1
            level += 1
    assert cases == 46


def test_riesz_command_checks_are_the_riesz_mass_row(tmp_path, capsys):
    # the command summed the density as complex and verify's riesz-mass as
    # real; on this density the two integrals differ in the last bit
    a, j = [0.5 + 0.3j, 0.4 + 0.2j, 0.6 + 0.4j, 0.1 + 0.2j, 0.8 + 0.4j], [1, 2, 1, 1, 2]
    out = tmp_path / "rho.spec"
    assert cli.main([
        "riesz", "--p", "3", "--level", "5", "--a", "0.5+0.3j,0.4+0.2j,0.6+0.4j,0.1+0.2j,0.8+0.4j",
        "--j", "1,2,1,1,2", "--out", str(out),
    ]) == 0
    integrals, variations, minima = measures._riesz_mass(
        measures._riesz_block(3, 5, [a], [j]), 3, 5
    )
    assert json.loads(out.read_text())["checks"] == {
        "integral_error": abs(float(integrals[0]) - 1.0),
        "variation_error": abs(float(variations[0]) - 1.0),
        "min_density": float(minima[0]),
    }
    assert f"integral={integrals[0]:.12f} variation={variations[0]:.12f}" in capsys.readouterr().out


def test_riesz_block_refuses_as_riesz_density_does():
    a = np.full((3, 2), 0.5 + 0j)
    j = np.ones((3, 2), dtype=np.int64)
    a[2, 1] = 1.5
    with pytest.raises(CoefficientOutOfRange, match=r"\|a_k\| = 1.5 exceeds 1"):
        measures._riesz_block(3, 2, a, j)
    a[1, 0] = np.nan
    with pytest.raises(CoefficientOutOfRange, match=r"coefficient \(nan\+0j\) is not finite"):
        measures._riesz_block(3, 2, a, j)
    j[0, 1] = 3
    with pytest.raises(InvalidExponent, match="exponent 3 out of range 1..2"):
        measures._riesz_block(3, 2, a, j)
    with pytest.raises(LevelMismatch, match="need 3 coefficients and exponents, got 2 and 2"):
        measures._riesz_block(3, 3, [[0.5, 0.5]], [[1, 2]])
    with pytest.raises(GuardExceeded):
        measures._riesz_block(17, 1, [[0.5]], [[1]])


def test_integer_exponents_and_signs_of_any_integer_type():
    np.testing.assert_array_equal(
        riesz_density(3, 2, [0.5, 0.5], np.array([1, 2])).values,
        riesz_density(3, 2, [0.5, 0.5], [1, 2]).values,
    )
    measure = rho_y_measure(2, np.array([1]), np.array([-1]), 1)
    assert measure.provenance["signs"] == (-1,) and type(measure.provenance["signs"][0]) is int
    # an empty level-0 density stays valid
    assert riesz_density(3, 0, [], []).values.tolist() == [1.0]

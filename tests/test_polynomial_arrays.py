"""The array form of chaos polynomials: canonical order, validation and
the array routes against their scalar references."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pchaos import (
    ChaosPolynomial,
    ChaosTerm,
    GuardExceeded,
    InvalidOrder,
    MalformedIndex,
    NonFiniteValue,
    decomposition_residual,
    linf_norm,
    paley_encode,
    project_J,
    project_order,
    random_chaos,
    term_indices,
)
from oracles import chaos_terms, paley_decode


@pytest.mark.parametrize("p,d,N", [(2, 3, 3), (3, 2, 3), (5, 2, 2)])
def test_from_indices_matches_mapping_constructor(p, d, N):
    terms = [t for s in range(1, d + 1) for t in chaos_terms(p, s, N)]
    values = np.arange(len(terms)) + 0.5j
    by_terms = ChaosPolynomial(p, N, dict(zip(terms, values)))
    order = np.random.default_rng(p).permutation(len(terms))
    indices = np.array([paley_encode(t, p) for t in terms])
    by_indices = ChaosPolynomial.from_indices(p, N, indices[order], values[order])
    assert by_indices == by_terms
    assert list(by_indices.coeffs) == sorted(terms)
    assert dict(by_indices.coeffs) == dict(zip(terms, values))
    np.testing.assert_array_equal(
        by_indices.values, [dict(zip(terms, values))[t] for t in sorted(terms)]
    )
    assert by_indices.orders == tuple(range(1, d + 1))
    assert dict(project_order(by_indices, 1).coeffs) == {
        t: c for t, c in zip(terms, values) if t.order == 1
    }


def test_mapping_of_another_base_is_read_as_terms():
    # the coeffs mapping of a p=2 polynomial names terms, not base-2 indices
    Q2 = random_chaos(2, 2, 3, np.random.default_rng(4), "unimodular")
    Q3 = ChaosPolynomial(3, 3, Q2.coeffs)
    assert dict(Q3.coeffs) == dict(Q2.coeffs)
    np.testing.assert_array_equal(
        Q3.indices, [paley_encode(t, 3) for t in Q2.coeffs]
    )
    np.testing.assert_array_equal(Q3.values, Q2.values)
    with pytest.raises(MalformedIndex):
        ChaosPolynomial(2, 2, Q2.coeffs)  # position 3 exceeds the top position 2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_order_is_term_order(data):
    p = data.draw(st.integers(min_value=2, max_value=7))
    N = data.draw(st.integers(min_value=0, max_value=5))
    size = p ** (N + 1)
    indices = data.draw(st.sets(st.integers(min_value=1, max_value=size - 1), max_size=40))
    Q = ChaosPolynomial.from_indices(p, N, sorted(indices), np.ones(len(indices)))
    assert list(Q.coeffs) == sorted(paley_decode(n, p) for n in indices)


def test_pure_order_keeps_enumeration_order():
    indices = term_indices(3, 2, 4)
    values = np.exp(1j * np.arange(len(indices)))
    Q = ChaosPolynomial.from_indices(3, 4, indices, values)
    np.testing.assert_array_equal(Q.indices, indices)
    np.testing.assert_array_equal(Q.values, values)
    assert not Q.values.flags.writeable


def test_validation():
    with pytest.raises(MalformedIndex):
        ChaosPolynomial.from_indices(2, 2, [1, 1], [1.0, 2.0])  # duplicate term
    with pytest.raises(MalformedIndex):
        ChaosPolynomial.from_indices(2, 2, [0], [1.0])  # index 0 is no chaos term
    with pytest.raises(MalformedIndex):
        ChaosPolynomial.from_indices(2, 2, [8], [1.0])  # position 3 > N
    with pytest.raises(MalformedIndex):
        ChaosPolynomial.from_indices(2, 2, [1, 2], [1.0])
    with pytest.raises(GuardExceeded):
        ChaosPolynomial(16, 20, {})
    for bad in (np.inf, np.nan, complex(0, -np.inf)):
        with pytest.raises(NonFiniteValue):
            ChaosPolynomial.from_indices(2, 2, [1, 2], [1.0, bad])
        with pytest.raises(NonFiniteValue):
            ChaosPolynomial(2, 2, {ChaosTerm((0,), (1,)): bad})


def test_empty_polynomial():
    Q = ChaosPolynomial.from_indices(3, 2, [], [])
    assert Q == ChaosPolynomial(3, 2, {})
    assert Q.order == 0 and Q.orders == () and len(Q.coeffs) == 0
    assert linf_norm(Q)[0] == 0.0


@pytest.mark.parametrize("p,d,N", [(4, 2, 3), (5, 1, 2), (3, 3, 3)])
def test_decomposition_matches_projection_sum(p, d, N):
    # the product count against the defining sum of project_J over all J
    Q = random_chaos(p, d, N, np.random.default_rng(p * d), "unimodular")
    acc = {t: 0j for t in Q.coeffs}
    for J in product(range(1, p), repeat=N + 1):
        for t, c in project_J(Q, J).coeffs.items():
            acc[t] += c
    scale = float(p - 1) ** -(N + 1 - d)
    expected = max(abs(c - scale * acc[t]) for t, c in Q.coeffs.items())
    assert decomposition_residual(Q) <= max(expected, 1e-15)


def test_decomposition_exact_when_counts_are_powers_of_two():
    # count * c scaled by 1/count is exact for p = 3, so any miscount shows
    Q = random_chaos(3, 2, 4, np.random.default_rng(9), "unimodular")
    assert decomposition_residual(Q) == 0.0
    with pytest.raises(InvalidOrder):
        decomposition_residual(
            ChaosPolynomial.from_indices(3, 2, [1, 4], [1.0, 1.0])
        )

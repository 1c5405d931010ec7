"""Digit arithmetic, Paley round trips and index-set combinatorics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pchaos import (
    ChaosTerm,
    EmptyIndexSet,
    GuardExceeded,
    MalformedIndex,
    group_sub,
    paley_encode,
    term_indices,
)
from pchaos.padic import (
    check_cell,
    decode_terms,
    digit_matrix,
    encode_terms,
    exponent_match,
    from_digits,
    to_digits,
)

from oracles import chaos_terms, paley_decode


@pytest.mark.parametrize(
    "n,p,length,expected",
    [
        (5, 2, 4, (1, 0, 1, 0)),
        (0, 3, 2, (0, 0)),
        (7, 3, 3, (1, 2, 0)),
    ],
)
def test_to_digits(n, p, length, expected):
    assert to_digits(n, p, length) == expected


def test_to_digits_overflow():
    with pytest.raises(MalformedIndex):
        to_digits(9, 3, 2)
    with pytest.raises(MalformedIndex):
        to_digits(-1, 2, 3)


@pytest.mark.parametrize(
    "p,ks,ls,value",
    [
        (2, (0, 1), (1, 1), 3),
        (3, (0, 1), (2, 1), 5),
    ],
)
def test_paley_encode(p, ks, ls, value):
    assert paley_encode(ChaosTerm(ks, ls), p) == value


def test_paley_decode():
    # the library's one decoder on literal indices, and the scalar reference
    assert decode_terms(np.array([6, 19, 1]), 3, 3) == ([[1], [0, 2], [0]], [[2], [1, 2], [1]])
    assert paley_decode(6, 3) == ChaosTerm((1,), (2,))
    assert decode_terms(np.zeros(0, dtype=np.int64), 3, 3) == ([], [])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_paley_round_trip(data):
    p = data.draw(st.integers(min_value=2, max_value=16))
    d = data.draw(st.integers(min_value=1, max_value=4))
    ks = tuple(
        sorted(
            data.draw(
                st.sets(st.integers(min_value=0, max_value=10), min_size=d, max_size=d)
            )
        )
    )
    ls = tuple(
        data.draw(st.integers(min_value=1, max_value=p - 1)) for _ in range(d)
    )
    term = ChaosTerm(ks, ls)
    n = paley_encode(term, p)
    assert paley_decode(n, p) == term
    assert decode_terms(encode_terms(p, 10, [ks], [ls]), p, 11) == ([list(ks)], [list(ls)])
    assert encode_terms(p, 10, [ks], [ls]).tolist() == [n]


def test_scalar_digit_functions_refuse_what_is_not_an_integer():
    # 2.5 gave the digits (0.5, 1.0, 0.0), (1.5, 0) recombined to 1.5 and
    # (True, 1) to 3; numpy integers stay admitted
    with pytest.raises(MalformedIndex, match="expected a natural number, got 2.5"):
        to_digits(2.5, 2, 3)
    with pytest.raises(MalformedIndex, match="digits must be integers, got 1.5"):
        from_digits((1.5, 0), 2)
    with pytest.raises(MalformedIndex, match="digits must be integers, got True"):
        from_digits((True, 1), 2)
    assert from_digits((np.int64(1), np.uint8(1)), 2) == 3
    assert to_digits(np.int64(5), 2, 3) == (1, 0, 1)


def test_chaos_term_invariants():
    with pytest.raises(MalformedIndex):
        ChaosTerm((1, 1), (1, 1))
    with pytest.raises(MalformedIndex):
        ChaosTerm((2, 1), (1, 1))
    with pytest.raises(MalformedIndex):
        ChaosTerm((), ())


def test_chaos_term_refuses_values_that_are_not_integers():
    # int() would build ChaosTerm(ks=(0,), ls=(1,)) from these
    for ks, ls, bad in [((0.5,), (1,), "0.5"), ((0,), (1.7,), "1.7"), ((True,), (1,), "True")]:
        with pytest.raises(MalformedIndex, match=f"must be integers, got {bad}"):
            ChaosTerm(ks, ls)
    term = ChaosTerm((np.int64(0), np.int32(2)), (np.int64(1), np.uint8(1)))
    assert term == ChaosTerm((0, 2), (1, 1))
    assert all(type(x) is int for x in term.ks + term.ls)


def _cell(p, digits):
    """The cell with digit view (c_1, ..., c_L), first fractional digit first."""
    return from_digits(reversed(digits), p)


def test_cell_digits_round_trip():
    # cell 7 of level 2 at p=3 is [7/9, 8/9): c_1 = 2, c_2 = 1
    assert to_digits(7, 3, 2)[::-1] == (2, 1)
    assert _cell(3, (2, 1)) == 7
    check_cell(3, 2, 7)


@pytest.mark.parametrize(
    "p, level, c, error",
    [(3, 2, 9, MalformedIndex), (3, 2, -1, MalformedIndex), (17, 1, 0, GuardExceeded),
     (2, 25, 0, GuardExceeded)],
    ids=["past-grid", "negative", "base", "level"],
)
def test_check_cell_refuses(p, level, c, error):
    with pytest.raises(error):
        check_cell(p, level, c)


@pytest.mark.parametrize(
    "p,x,z,expected",
    [
        (3, (2, 1), (1, 2), (1, 2)),
        (2, (1, 1, 0), (1, 1, 0), (0, 0, 0)),
    ],
)
def test_group_sub(p, x, z, expected):
    level = len(x)
    assert group_sub(p, level, _cell(p, x), _cell(p, z)) == _cell(p, expected)


def test_group_sub_identity():
    assert group_sub(5, 3, 88, 0) == 88


def test_group_sub_refuses_cell_off_grid():
    # both cells share one (p, level) grid; a cell past it is refused
    with pytest.raises(MalformedIndex):
        group_sub(3, 2, 9, 0)
    with pytest.raises(MalformedIndex):
        group_sub(3, 2, 0, 9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_axioms(data):
    p = data.draw(st.integers(min_value=2, max_value=7))
    level = data.draw(st.integers(min_value=1, max_value=5))
    size = p**level
    x = data.draw(st.integers(min_value=0, max_value=size - 1))
    y = data.draw(st.integers(min_value=0, max_value=size - 1))
    x_plus_y = group_sub(p, level, x, group_sub(p, level, 0, y))  # x - (0 - y)
    assert group_sub(p, level, x, x) == 0
    assert group_sub(p, level, x_plus_y, y) == x


@pytest.mark.parametrize(
    "p,d,N,expected_indices",
    [
        (2, 1, 1, {1, 2}),
        (3, 1, 1, {1, 2, 3, 6}),
        (2, 2, 1, {3}),
    ],
)
def test_enumerate_examples(p, d, N, expected_indices):
    assert set(term_indices(p, d, N).tolist()) == expected_indices
    assert {paley_encode(t, p) for t in chaos_terms(p, d, N)} == expected_indices


@pytest.mark.parametrize("p,d,N", [(2, 2, 5), (3, 2, 4), (5, 3, 4), (4, 1, 6)])
def test_enumerate_count_and_order(p, d, N):
    terms = [paley_decode(n, p) for n in term_indices(p, d, N).tolist()]
    assert len(terms) == math.comb(N + 1, d) * (p - 1) ** d
    assert terms == sorted(terms)
    assert len(set(terms)) == len(terms)


def test_enumerate_empty():
    with pytest.raises(EmptyIndexSet, match="order 3 exceeds the 2 available positions"):
        term_indices(2, 3, 1)


def test_from_digits_rejects_bad_digit():
    with pytest.raises(MalformedIndex):
        from_digits((0, 3), 3)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_term_indices_match_scalar_encoding(data):
    p = data.draw(st.integers(min_value=2, max_value=7))
    N = data.draw(st.integers(min_value=0, max_value=5))
    d = data.draw(st.integers(min_value=1, max_value=min(N + 1, 3)))
    indices = term_indices(p, d, N)
    assert indices.dtype == np.int64
    assert indices.tolist() == [paley_encode(t, p) for t in chaos_terms(p, d, N)]
    digits = digit_matrix(indices, p, N + 1)
    assert [tuple(row) for row in digits.tolist()] == [
        to_digits(n, p, N + 1) for n in indices.tolist()
    ]


def test_term_indices_guards():
    with pytest.raises(EmptyIndexSet):
        term_indices(2, 3, 1)
    with pytest.raises(GuardExceeded):
        term_indices(1, 1, 1)
    with pytest.raises(GuardExceeded):
        term_indices(16, 1, 16)  # 16^17 Paley indices do not fit in int64
    with pytest.raises(GuardExceeded, match=r"2\^64 Paley indices exceed the int64 range"):
        term_indices(np.int64(2), 1, 63)  # np.int64(2) ** 64 wrapped to 0


def test_index_sets_refuse_a_base_past_the_cap():
    # p=17 would list 48 terms where every other entry point refuses it
    with pytest.raises(GuardExceeded, match="base 17 exceeds the supported cap 16"):
        term_indices(17, 1, 2)
    with pytest.raises(GuardExceeded, match="base must be >= 2, got 1"):
        term_indices(1, 1, 2)
    assert len(term_indices(16, 1, 2)) == 45


@pytest.mark.parametrize("p,d,N", [(2, 2, 3), (3, 2, 3), (5, 1, 2)])
def test_exponent_match_against_terms(p, d, N):
    # one sequence gives a mask over the terms; a stack of them, one mask row each
    indices = term_indices(p, d, N)
    terms = chaos_terms(p, d, N)
    sequences = np.array(list(itertools.product(range(1, p), repeat=N + 1)))
    stacked = exponent_match(indices, p, sequences)
    assert stacked.shape == (len(sequences), len(indices))
    for J, row in zip(sequences.tolist(), stacked):
        expected = [all(J[k] == l for k, l in zip(t.ks, t.ls)) for t in terms]
        assert exponent_match(indices, p, J).tolist() == expected == row.tolist()

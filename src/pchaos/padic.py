"""Base-p digit arithmetic, Paley indexing and chaos-term combinatorics.

Conventions fixed here and relied on everywhere else:

* Rademacher positions k are 0-based.
* A level-L cell is the plain int c of the interval [c p^-L, (c+1) p^-L),
  0 <= c < p^L. Its fractional base-p digits (c_1, ..., c_L) satisfy
  c = sum_j c_j p^(L-j), so c_j is to_digits(c, p, L)[L-j].
* Paley indices are read least-significant digit first: digit k of the
  index n = sum_k l_k p^k is the exponent attached to position k.
* Index enumerations are lexicographic in (positions, exponents), so
  coefficient vectors, norms and reports are reproducible byte for byte.

A Paley index and a cell are plain ints everywhere. ``term_indices`` and
``digit_matrix`` are the array layer every hot path uses: whole index sets
as int64 Paley values and their exponent digits, with no per-term object.
``encode_terms`` and ``decode_terms`` are the one codec between terms
(lists of positions and exponents) and int64 Paley indices. Each term rule
is stated once: `_flat_terms` holds those that need no base or top
position, which ``ChaosTerm`` also runs, and ``encode_terms`` the rest.
``ChaosTerm`` and ``group_sub`` are the scalar reference for single terms
and cells. ``check_cell`` is the one guard on a cell, ``_check_positions``
(run by ``check_chaos_order``) the one on a top position N, and the base,
integer and natural-number rules are ``config``'s guards, so the scalar
digit functions refuse p outside 2..16 and a non-integer n or digit.

All operations are pure functions on immutable values; they are safe to
call from any number of concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterable, Sequence

import numpy as np

from .config import check_base_level, check_int, check_natural, check_order
from .errors import EmptyIndexSet, GuardExceeded, InvalidExponent, MalformedIndex


def to_digits(n: int, p: int, length: int) -> tuple[int, ...]:
    """Least-significant-first base-p digits of n, zero-padded to length."""
    check_base_level(p, 0)
    n = check_natural(n)
    if check_int(length, "length must be an integer") < 0 or n >= p**length:
        raise MalformedIndex(f"{n} does not fit in {length} base-{p} digits")
    digits = []
    v = n
    for _ in range(length):
        digits.append(v % p)
        v //= p
    return tuple(digits)


def from_digits(digits: Iterable[int], p: int) -> int:
    """Inverse of to_digits: recombine least-significant-first digits."""
    check_base_level(p, 0)
    value = 0
    for k, digit in enumerate(digits):
        if not 0 <= check_int(digit, "digits must be integers") < p:
            raise MalformedIndex(f"digit {digit} out of range for base {p}")
        value += digit * p**k
    return value


@dataclass(frozen=True, order=True)
class ChaosTerm:
    """One product term over positions ks with exponents ls; construction
    checks the term rules that need no base (`_flat_terms`)."""

    ks: tuple[int, ...]
    ls: tuple[int, ...]

    def __post_init__(self) -> None:
        ks = tuple(check_int(k, "positions must be integers") for k in self.ks)
        ls = tuple(check_int(l, "exponents must be integers") for l in self.ls)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "ls", ls)
        _flat_terms([ks], [ls])

    @property
    def order(self) -> int:
        return len(self.ks)


def _flat_terms(ks, ls) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat int64 positions and exponents of the terms (ks[t], ls[t]) and
    each term's offset in them, under the term rules that need no base or
    top position: as many positions as exponents and at least one, values
    within int64, positions strictly increasing and non-negative, exponents
    at least 1. Integer values are the caller's rule."""
    lengths = [len(k) for k in ks]
    if lengths != [len(l) for l in ls]:
        raise MalformedIndex("a term's positions and exponents differ in length")
    if 0 in lengths:
        raise MalformedIndex("a chaos term needs at least one position")
    try:
        positions = np.array(list(chain.from_iterable(ks)), dtype=np.int64)
    except OverflowError:
        raise MalformedIndex("a term position is out of the int64 range") from None
    try:
        exponents = np.array(list(chain.from_iterable(ls)), dtype=np.int64)
    except OverflowError:
        raise InvalidExponent("an exponent is out of the int64 range") from None
    starts = np.cumsum([0] + lengths, dtype=np.int64)[:-1]
    first = np.zeros(positions.size, dtype=bool)
    first[starts] = True
    if (positions < 0).any() or not (first[1:] | (positions[1:] > positions[:-1])).all():
        raise MalformedIndex("term positions must be strictly increasing and non-negative")
    if (exponents < 1).any():
        raise InvalidExponent("exponents must be at least 1")
    return positions, exponents, starts


def encode_terms(p: int, N: int, ks, ls) -> np.ndarray:
    """int64 Paley indices n = sum_i ls[t][i] p^ks[t][i] of the terms with
    integer positions ks[t] and exponents ls[t], refused unless every term
    passes the term rules: those of `_flat_terms`, positions at most N and
    exponents below p. N is checked before any term is read."""
    _check_positions(p, N)
    positions, exponents, starts = _flat_terms(ks, ls)
    if (positions > N).any():
        raise MalformedIndex(f"a term position exceeds the top position {N}")
    if (exponents >= p).any():
        raise InvalidExponent(f"an exponent is out of range for base {p}")
    return np.add.reduceat(exponents * np.int64(p) ** positions, starts)


def decode_terms(indices: np.ndarray, p: int, width: int) -> tuple[list, list]:
    """The positions and the exponents of each Paley index below p^width,
    as two lists of int lists: its nonzero base-p digits and where they
    sit, positions ascending. The inverse of `encode_terms`."""
    digits = digit_matrix(indices, p, width)
    rows, positions = np.nonzero(digits)  # row-major: positions ascend within a term
    ks, ls = positions.tolist(), digits[rows, positions].tolist()
    ends = np.cumsum(np.count_nonzero(digits, axis=1)).tolist()
    spans = list(zip([0] + ends, ends))
    return [ks[a:b] for a, b in spans], [ls[a:b] for a, b in spans]


def paley_encode(term: ChaosTerm, p: int) -> int:
    """Paley index of one term: `encode_terms` with its last position as N."""
    return int(encode_terms(p, term.ks[-1], [term.ks], [term.ls])[0])


def check_cell(p: int, level: int, c: int) -> None:
    """Refuse a cell c outside the p^level cells [c p^-level, (c+1) p^-level)."""
    check_base_level(p, level)
    if not 0 <= check_int(c, "cell index must be an integer") < p**level:
        raise MalformedIndex(f"cell index {c} out of range for level {level}")


def group_sub(p: int, level: int, x: int, z: int) -> int:
    """Digitwise difference x - z mod p of two level-`level` cells, the
    coordinate-group subtraction."""
    check_cell(p, level, x)
    check_cell(p, level, z)
    digits = zip(to_digits(x, p, level), to_digits(z, p, level))
    return from_digits(((a - b) % p for a, b in digits), p)


def _check_index_width(p: int, width: int) -> None:
    """Paley indices of `width` base-p digits must fit in int64, in Python ints."""
    if int(p) ** int(width) > np.iinfo(np.int64).max:
        raise GuardExceeded(f"{p}^{width} Paley indices exceed the int64 range")


def _check_positions(p: int, N: int) -> None:
    """The one rule on a top position N: an integer of at least 0 whose
    p^(N+1) Paley indices fit in int64, for a base p within its caps."""
    check_base_level(p, 0)
    N = check_int(N, "N must be an integer")
    if N < 0:
        raise MalformedIndex(f"top position must be >= 0, got {N}")
    _check_index_width(p, N + 1)


def check_chaos_order(p: int, d: int, N: int) -> None:
    """Refuse a malformed or empty order-d index set over positions 0..N."""
    _check_positions(p, N)
    if check_order(d) > N + 1:
        raise EmptyIndexSet(f"order {d} exceeds the {N + 1} available positions")


def term_indices(p: int, d: int, N: int) -> np.ndarray:
    """Paley indices of the order-d terms with positions in 0..N (int64).

    The terms are lexicographic in (positions, exponents), C(N+1, d)
    (p-1)^d of them: the position-combination table times the exponent
    table, combinations outermost.
    """
    check_chaos_order(p, d, N)
    positions = np.array(list(combinations(range(N + 1), d)), dtype=np.int64)
    exponents = np.array(list(product(range(1, p), repeat=d)), dtype=np.int64)
    return (np.int64(p) ** positions @ exponents.T).reshape(-1)


def digit_matrix(indices: np.ndarray, p: int, width: int) -> np.ndarray:
    """(n, width) base-p digits of Paley indices, least significant first.

    Column k is the exponent at position k, 0 where the position is unused.
    """
    _check_index_width(p, width)
    indices = np.asarray(indices, dtype=np.int64)
    return (indices[:, None] // np.int64(p) ** np.arange(width)) % p


def _exponent_agrees(digits: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Where a position's digit agrees with an exponent: the position is
    unused (digit 0) or carries that exponent. The one rule behind
    `exponent_match` and the decomposition identity's sequence counts."""
    return (digits == 0) | (digits == exponents)


def exponent_match(indices: np.ndarray, p: int, J: Sequence[int]) -> np.ndarray:
    """Mask of the indices whose exponents equal J[k] at every used position k.

    J is one sequence (a mask over indices) or an (m, width) array of them
    (an (m, n) mask, one row per sequence). Positions beyond the sequence
    length are not read, so indices must lie below p^width.
    """
    J = np.asarray(J)
    digits = digit_matrix(indices, p, J.shape[-1])
    match = np.ones(J.shape[:-1] + digits.shape[:1], dtype=bool)
    for k in range(J.shape[-1]):
        match &= _exponent_agrees(digits[:, k], J[..., k, None])
    return match

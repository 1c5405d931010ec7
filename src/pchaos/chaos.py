"""Chaos polynomials: Paley index and coefficient arrays over Rademacher products.

A polynomial is two aligned arrays: the Paley indices n = sum_i ls[i] p^ks[i]
of its terms (int64) and their coefficients (complex128), kept in the
canonical term order, lexicographic in (positions, exponents). Placement,
projections and the decomposition identity are scatters and digit masks
over these arrays; no per-term object is built on those paths. ``coeffs``
offers the same data as a read-only ChaosTerm -> complex mapping, decoded
on first use.

A polynomial with top position N is constant on level-(N+1) cells, so its
synthesis, sup-norm and every convolution identity below are exact finite
computations (up to rounding), never sampled approximations.

The sup-norm is computed by enumeration of the p^(N+1) cells through the
fast synthesis, in the coefficients' working dtype
(`transform._working_dtype`); a real one is kept throughout (coefficient
scatter, transform stages, abs and argmax), so no complex grid is built.
Its first stage runs only on the column blocks the terms reach.
In float32, orders of one parity take the sup over the half grid, with
the same result bit for bit (see `linf_norm`). One core, `_row_norms`,
takes the sup-norms and coefficient norms of rows of coefficients on
shared terms for a study row, `sidon_ratio`, `pchaos norms` and verify's
exact first-order check; `linf_norm` is the one-row case of its sup
stage, `_row_sups`, and the one magnitude sum, `transform._row_lq_norms`,
is its coefficient-norm stage.
Exponent projection is defined by coefficient selection; convolution with
the matching selector measure is the verification route, kept separate so
the two can be compared. The order projection extracts one chaos order of
a mixed polynomial and is likewise verifiable against the order-selecting
measure.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import check_covers, check_order
from .errors import (
    DegenerateInput,
    InvalidOrder,
    LevelMismatch,
    MalformedIndex,
    NonFiniteValue,
)
from .measures import MeasureRep, _validate_exponents
from .padic import (
    ChaosTerm,
    _check_positions,
    _exponent_agrees,
    digit_matrix,
    exponent_match,
    paley_decode,
    paley_encode,
)
from .transform import (
    Spectrum,
    _first_stage_reach,
    _row_lq_norms,
    _tensor_dft,
    _working_dtype,
    convolve,
)

# Bound in bytes on one chunk of a per-term array over many rows: a
# `_row_norms` chunk of (rows x terms) complex128 coefficients.
_CHUNK_BYTES = 2**20


class _TermMap(Mapping):
    """Read-only ChaosTerm -> complex view of aligned index/value arrays.

    The term objects are decoded on first lookup or iteration; ``len``
    never decodes.
    """

    def __init__(self, p: int, indices, values) -> None:
        self.p, self.indices, self.values = p, indices, values
        self._terms: dict[ChaosTerm, complex] | None = None

    def _decoded(self) -> dict[ChaosTerm, complex]:
        if self._terms is None:
            self._terms = {
                paley_decode(n, self.p): c
                for n, c in zip(self.indices.tolist(), self.values.tolist())
            }
        return self._terms

    def __getitem__(self, term: ChaosTerm) -> complex:
        return self._decoded()[term]

    def __iter__(self):
        return iter(self._decoded())

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"<{len(self)} chaos terms>"


def _canonical_order(digits: np.ndarray, orders: np.ndarray, p: int) -> np.ndarray:
    """Permutation sorting terms by (positions, exponents) as ChaosTerm does.

    Position tuples sort lexicographically, a tuple before every longer
    tuple it is a prefix of. With W positions, m = sum 2^(W-1-k) over the
    positions k used, b the lowest set bit of m (the last position) and d
    the order d, 2^W + d - m - b is the number of position tuples sorting
    before this one. Terms on the same positions compare by their
    exponents in position order: their digits read most significant first.
    """
    width = digits.shape[1]
    m = (digits != 0) @ (np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64))
    rank = orders - m - (m & -m)
    reversed_index = digits @ (np.int64(p) ** np.arange(width - 1, -1, -1))
    return np.lexsort((reversed_index, rank))


def _finite_coefficients(values) -> np.ndarray:
    """A complex128 copy of `values`, refused if any entry is NaN or inf."""
    values = np.array(values, dtype=np.complex128)
    if not np.isfinite(values).all():
        raise NonFiniteValue("chaos coefficients must be finite")
    return values


@dataclass(frozen=True, eq=False)
class ChaosPolynomial:
    """Complex coefficients on chaos terms with positions <= N.

    Immutable after construction. ``indices`` (int64 Paley indices) and
    ``values`` (complex128) hold the terms in the canonical (positions,
    exponents) order; ``coeffs`` is the same data as a read-only
    ChaosTerm -> complex mapping. Construct from a mapping,
    ``ChaosPolynomial(p, N, {term: c})``, or from arrays,
    ``ChaosPolynomial.from_indices(p, N, indices, values)``. For a pure
    polynomial of order d the natural coefficient norm exponent is
    2d/(d+1); for mixed polynomials the maximum order present is used.
    """

    p: int
    N: int
    coeffs: Mapping[ChaosTerm, complex]
    indices: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)
    _orders: np.ndarray = field(init=False, repr=False)

    @classmethod
    def from_indices(
        cls, p: int, N: int, indices: Sequence[int], values: Sequence[complex]
    ) -> "ChaosPolynomial":
        """Polynomial with coefficient values[i] on Paley index indices[i]."""
        _check_positions(p, N)
        Q = object.__new__(cls)
        object.__setattr__(Q, "p", p)
        object.__setattr__(Q, "N", N)
        Q._store(np.asarray(indices), np.asarray(values))
        return Q

    def __post_init__(self) -> None:
        _check_positions(self.p, self.N)
        terms = list(self.coeffs)
        for term in terms:
            if term.max_position > self.N:
                raise MalformedIndex(
                    f"term positions {term.ks} exceed top position {self.N}"
                )
        indices = np.array([paley_encode(t, self.p) for t in terms], dtype=np.int64)
        values = np.array([self.coeffs[t] for t in terms], dtype=np.complex128)
        self._store(indices, values)

    def _store(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Validate aligned index/value arrays and keep them in canonical order."""
        if indices.ndim != 1 or values.shape != indices.shape:
            raise MalformedIndex("indices and values must be aligned 1-d arrays")
        if indices.size and indices.dtype.kind not in "iu":
            raise MalformedIndex(f"Paley indices must be integers, got {indices.dtype}")
        if indices.size and (indices.min() < 1 or indices.max() >= self.p ** (self.N + 1)):
            raise MalformedIndex(
                f"Paley indices must lie in 1..{self.p ** (self.N + 1) - 1} "
                f"(positions up to {self.N})"
            )
        indices = indices.astype(np.int64)
        values = _finite_coefficients(values)
        digits = digit_matrix(indices, self.p, self.N + 1)
        orders = np.count_nonzero(digits, axis=1)
        if indices.size:
            perm = _canonical_order(digits, orders, self.p)
            indices, values, orders = indices[perm], values[perm], orders[perm]
            if np.any(indices[1:] == indices[:-1]):
                raise MalformedIndex("a term occurs more than once")
        for arr in (indices, orders, values):
            arr.flags.writeable = False
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_orders", orders)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coeffs", _TermMap(self.p, indices, values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChaosPolynomial):
            return NotImplemented
        return (
            (self.p, self.N) == (other.p, other.N)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def _select(self, keep: np.ndarray) -> "ChaosPolynomial":
        return ChaosPolynomial.from_indices(
            self.p, self.N, self.indices[keep], self.values[keep]
        )

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(np.bincount(self._orders)).tolist())

    @property
    def is_pure(self) -> bool:
        return len(self.orders) == 1

    @property
    def order(self) -> int:
        """Maximum chaos order present (0 for the empty polynomial)."""
        return int(self._orders.max(initial=0))

    @property
    def sidon_exponent(self) -> float:
        """2d/(d+1) for the maximum order d present."""
        d = self.order
        if d == 0:
            raise DegenerateInput("the zero polynomial has no coefficient exponent")
        return 2 * d / (d + 1)


def polynomial_spectrum(Q: ChaosPolynomial, level: int) -> Spectrum:
    """Coefficient array of Q at the given level (exact placement); its
    `inverse` is Q on every cell of that level. The level and the cell
    guard are checked before the array is allocated."""
    check_covers(Q.p, level, Q.N)
    coeffs = np.zeros(Q.p**level, dtype=complex)
    coeffs[Q.indices] = Q.values
    return Spectrum(Q.p, level, coeffs)


def _row_sups(Q: ChaosPolynomial, block: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """`linf_norm` of Q's terms with each row of a finite (rows x terms)
    complex128 block, aligned with ``Q.indices``, as their coefficients:
    every row's sup and first maximal cell. Q's own values are not read.

    The level and the cell guard are checked once, before the grid is
    allocated. The whole block runs in one dtype (see
    `transform._working_dtype`), on the half grid when that is float32 and
    Q's orders share one parity. The first stage's reached columns (see
    `transform._first_stage_reach`) are found once: an order-d term has d
    nonzero digits, so many column blocks of the grid can hold no term.
    Every row writes the same entries of one zeroed compact block of those
    columns, so the block is never re-zeroed. Each row is one stage loop
    into the call's three stage buffers; the first is zeroed once, and the
    loop writes only its reached rows. The result is reduced in place when
    real. Sup and cell are the dense grid's bit for bit (see
    `transform._tensor_dft`). Block and buffers live exactly as long as
    the call. A block that mixes real and complex rows (no caller builds
    one) runs in complex128, correct to rounding."""
    level = Q.N + 1
    check_covers(Q.p, level, Q.N)
    dtype = _working_dtype(Q.p, block)
    odd = Q._orders & 1
    half = int(dtype == np.float32 and odd.size > 0 and bool((odd == odd[0]).all()))
    level -= half
    reach, scatter, compact_size = _first_stage_reach(Q.p, level, Q.indices >> half)
    compact = np.zeros(compact_size, dtype=dtype)
    size = Q.p**level
    buffers = np.zeros(size, dtype), np.empty(size, dtype), np.empty(size, dtype)
    sups, cells = np.empty(len(block)), []
    for r, row in enumerate(block if dtype.kind == "c" else block.real):
        compact[scatter] = row
        values = _tensor_dft(compact, Q.p, level, sign=+1, buffers=buffers, reach=reach)
        magnitudes = np.abs(values) if dtype.kind == "c" else np.abs(values, out=values)
        arg = int(np.argmax(magnitudes))
        sups[r] = magnitudes[arg]
        if not math.isfinite(sups[r]):
            raise NonFiniteValue(
                f"the sup-norm overflows float64 (cell {arg} gives {sups[r]})"
            )
        cells.append(arg)
    return sups, cells


def linf_norm(Q: ChaosPolynomial) -> tuple[float, int]:
    """Exact sup-norm over the p^(N+1) cells and the first cell attaining it,
    an int on the level-(N+1) grid: the one-row case of the sup-norm core
    that `_row_norms` runs on each chunk of rows.

    Q is synthesised in its working dtype (see `transform._working_dtype`).
    In float32 every partial sum is an integer below 2^24, exact in any
    order and with or without FMA, so sup and cell are the float64 grid's
    bit for bit.

    Half grid: when Q runs in float32 and has terms, all of one order
    parity, only the cells with top digit c_1 = 0 are synthesised.
    Flipping every digit multiplies a term of order d by (-1)^d, so |Q| is
    the same on a cell and its complement and the first maximal cell has
    c_1 = 0. There the exponent at position 0 drops out and, with one
    parity, `indices >> 1` is injective: the folded coefficients
    synthesise at level N, and those cell ints are the level-(N+1) ones.
    Every partial sum is an integer that float32 holds exactly, so sup and
    cell are the full grid's bit for bit. Both routes check the full level
    N+1 before allocating.

    Reached columns: the first stage runs only on the column blocks Q's
    terms reach, and writes zeros to the others (see `_row_sups`). A
    reached block is the dense GEMM's product and an unreached one is zero
    either way, so every dtype and grid gives the dense route's sup and
    cell bit for bit (see `transform._tensor_dft`).

    Real p=2 values are never widened to complex: abs and argmax run in
    place on the float array (|x| of a float is hypot(x, 0) exactly).
    Finite coefficients can still synthesise past the float64 range: a sup
    that is not finite is refused."""
    sups, cells = _row_sups(Q, Q.values[None])
    return float(sups[0]), cells[0]


def _row_norms(
    Q: ChaosPolynomial,
    draw: Callable[[range], np.ndarray],
    rows: int,
    exponents: Sequence[float | None],
) -> tuple[np.ndarray, list[int], np.ndarray, float, float]:
    """Every row's sup, first maximal cell and (exponents x rows) lq norms
    (None stands for Q's `sidon_exponent`), and the seconds spent in `draw`
    and in `_row_sups`; `draw(range)` gives those rows' coefficients on Q's
    terms, aligned with ``Q.indices`` (Q's values are not read). A Q with no
    terms, or a row of zero coefficients, is refused before any grid is
    allocated. The rows are taken in chunks of at most _CHUNK_BYTES (at
    least one row), each checked for finiteness, synthesised in one
    `_row_sups` call and normed in one `_row_lq_norms` call per exponent;
    every result is per row, so the chunking never changes one."""
    if not Q.indices.size:
        raise DegenerateInput("the zero polynomial has no norm ratio")
    exponents = [Q.sidon_exponent if q is None else q for q in exponents]
    chunk = max(1, _CHUNK_BYTES // (16 * Q.indices.size))
    sups, cells, norms = np.empty(rows), [], np.empty((len(exponents), rows))
    draw_s = synthesis_s = 0.0
    for first in range(0, rows, chunk):
        span = range(first, min(first + chunk, rows))
        start = time.perf_counter()
        block = draw(span)
        draw_s += time.perf_counter() - start
        block = _finite_coefficients(block)
        if not block.any(axis=1).all():
            raise DegenerateInput("the zero polynomial has no norm ratio")
        start = time.perf_counter()
        sups[first : span.stop], chunk_cells = _row_sups(Q, block)
        synthesis_s += time.perf_counter() - start
        cells += chunk_cells
        for k, q in enumerate(exponents):
            norms[k, first : span.stop] = _row_lq_norms(block, q)
    return sups, cells, norms, draw_s, synthesis_s


def sidon_ratio(Q: ChaosPolynomial) -> float:
    """Coefficient norm over sup-norm: lq(coeffs, 2d/(d+1)) / linf(Q)."""
    sups, _, norms, _, _ = _row_norms(Q, lambda rows: Q.values[None], 1, (None,))
    return float(norms[0, 0] / sups[0])


def project_J(Q: ChaosPolynomial, J: Sequence[int]) -> ChaosPolynomial:
    """Keep exactly the terms whose exponents match J at their positions.

    Defined by coefficient selection; ``convolve_with_measure`` with the
    matching selector measure provides the independent route.
    """
    if Q.indices.size and not Q.is_pure:
        raise InvalidOrder("exponent projection needs a pure-order polynomial")
    J = _validate_exponents(Q.p, J)
    if len(J) != Q.N + 1:
        raise LevelMismatch(f"need {Q.N + 1} exponents, got {len(J)}")
    return Q._select(exponent_match(Q.indices, Q.p, J))


def project_order(Q: ChaosPolynomial, s: int) -> ChaosPolynomial:
    """Pure order-s part of a mixed polynomial (zero when absent)."""
    s = check_order(s)
    if Q.indices.size and s > Q.order:
        raise InvalidOrder(f"order {s} exceeds the maximum order {Q.order} present")
    return Q._select(Q._orders == s)


def convolve_with_measure(Q: ChaosPolynomial, measure: MeasureRep) -> Spectrum:
    """Coefficient array of Q convolved with a measure at the measure level."""
    if measure.p != Q.p:
        raise LevelMismatch(
            f"polynomial base {Q.p} differs from measure base {measure.p}"
        )
    return convolve(polynomial_spectrum(Q, measure.level), measure.spectrum)


def _agreeing_counts(indices: np.ndarray, p: int, width: int) -> np.ndarray:
    """For each Paley index, how many of the (p-1)^width exponent sequences
    agree with it at every position (project_J's rule, `_exponent_agrees`).

    The rule is a conjunction over positions and the sequences form the
    product set {1..p-1}^width, so the count is the product over positions
    of the exponents that agree with the position's digit. The rule is
    evaluated on every (position, exponent, term); the product stays below
    p^width, which fits int64 (`digit_matrix` checks the width)."""
    digits = digit_matrix(indices, p, width)
    exponents = np.arange(1, p)
    counts = np.ones(indices.size, dtype=np.int64)
    for column in digits.T:
        counts *= _exponent_agrees(column[:, None], exponents).sum(axis=1)
    return counts


def decomposition_residual(Q: ChaosPolynomial) -> float:
    """Coefficient-level residual of averaging the exponent projections.

    Summing project_J over all (p-1)^(N+1) exponent sequences counts every
    term (p-1)^(N+1-d) times, so the scaled sum must reproduce Q exactly.
    Each term's count is the number of sequences that agree with it under
    project_J's own rule. That rule holds at every position at once, and
    the sequences range over a product of per-position exponent sets, so
    by distributivity the count is the product over positions of the
    exponents agreeing there (see `_agreeing_counts`): the same integer
    the enumeration of every sequence would give, at O(terms x width x
    (p-1)) cost instead of (p-1)^(N+1).
    """
    if not Q.indices.size:
        return 0.0
    if not Q.is_pure:
        raise InvalidOrder("the decomposition identity needs a pure-order polynomial")
    width, base = Q.N + 1, Q.p - 1
    agreeing = _agreeing_counts(Q.indices, Q.p, width)
    scale = float(base) ** (-(width - Q.order))
    return float(np.abs(Q.values - scale * (agreeing * Q.values)).max())

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
fast synthesis; a p=2 polynomial with integer coefficients and orders of
one parity takes it over the half grid, with the same result bit for bit
(see `linf_norm`). A p=2 polynomial with all-real coefficients stays in
one float dtype throughout (coefficient scatter, transform stages, abs
and argmax): float32 when they are integers with sum |c| < 2^24, so that
every partial sum is an integer float32 holds exactly, else float64; any
other polynomial is synthesised in complex128. One core, `_row_sups`,
takes these sup-norms for a block of coefficient rows on shared terms, as
a study row does for its trials; `linf_norm` is its one-row case, and
`lq_norm` is likewise the one-row case of `_row_lq_norms`. Exponent
projection is defined by coefficient selection; convolution with the
matching selector measure is the verification route, kept separate so the
two can be compared. The order projection extracts one chaos order of a
mixed polynomial and is likewise verifiable against the order-selecting
measure.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import (
    MAX_DECOMPOSITION_SEQUENCES,
    check_base_level,
    check_cell_guard,
)
from .errors import (
    CombinatorialBlowup,
    DegenerateInput,
    InsufficientLevel,
    InvalidExponent,
    InvalidOrder,
    LevelMismatch,
    MalformedIndex,
    NonFiniteValue,
)
from .measures import MeasureRep, _validate_exponents
from .padic import (
    ChaosTerm,
    _check_index_width,
    digit_matrix,
    exponent_match,
    paley_decode,
    paley_encode,
)
from .transform import Spectrum, _tensor_dft, convolve

# Bound in bytes on one chunk of a per-term array over many rows: the
# (sequences x terms) match mask of `decomposition_residual`, and a study
# row's (trials x terms) complex128 coefficient block.
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


def _check_positions(p: int, N: int) -> None:
    check_base_level(p, 0)
    if N < 0:
        raise MalformedIndex(f"top position must be >= 0, got {N}")
    _check_index_width(p, N + 1)


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


def _check_level(Q: ChaosPolynomial, level: int) -> None:
    """Refuse a level below Q's top position or past the cell guard; run
    before any level-sized array is allocated."""
    if level < Q.N + 1:
        raise InsufficientLevel(
            f"level {level} cannot hold positions up to {Q.N}"
        )
    check_cell_guard(Q.p, level)


def polynomial_spectrum(Q: ChaosPolynomial, level: int) -> Spectrum:
    """Coefficient array of Q at the given level (exact placement); its
    `inverse` is Q on every cell of that level. The level and the cell
    guard are checked before the array is allocated."""
    _check_level(Q, level)
    coeffs = np.zeros(Q.p**level, dtype=complex)
    coeffs[Q.indices] = Q.values
    return Spectrum(Q.p, level, coeffs)


def _working_dtypes(p: int, block: np.ndarray) -> tuple[list[np.dtype], np.ndarray]:
    """Per row of a (rows x terms) coefficient block: the dtype the row is
    synthesised in, and whether every partial sum of its synthesis is an
    exact integer in it.

    At p=2 a row whose coefficients are all real (a -0.0 imaginary part
    counts as zero) runs in float32 when they are integers with sum |c| <
    2^24, else in float64, exact when they are integers with sum |c| <
    2^53; any other row runs in complex128. Every partial sum of a +-1
    stage is a signed sum of a subset of the coefficients, so with
    integers it stays an integer at most sum |c|, which the dtype holds
    exactly. The bounds are strict, so that numpy's float sum being below
    them proves the true sum is. Only the block is scanned."""
    if p != 2:
        return [np.dtype(complex)] * len(block), np.zeros(len(block), dtype=bool)
    real = block.real
    is_real = ~block.imag.any(axis=1)
    integer = is_real & (real == np.rint(real)).all(axis=1)
    total = np.abs(real).sum(axis=1)
    single = integer & (total < 2.0**24)
    dtypes = [
        np.dtype(np.float32 if s else float) if r else np.dtype(complex)
        for r, s in zip(is_real.tolist(), single.tolist())
    ]
    return dtypes, integer & (total < 2.0**53)


def _row_sups(Q: ChaosPolynomial, block: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """`linf_norm` of Q's terms with each row of a finite (rows x terms)
    complex128 block, aligned with ``Q.indices``, as their coefficients:
    every row's sup and first maximal cell. Q's own values are not read.

    The level and the cell guard are checked once, before any grid is
    allocated, and each row's dtype and half-grid route are decided
    together (see `_working_dtypes`). Rows that share a (dtype, half grid)
    pair share one zeroed scatter grid: every row writes the same entries,
    so the grid is never re-zeroed. Each row is one stage loop into the
    call's two stage buffers per dtype, whose result is reduced in place
    when real. Grids and buffers live exactly as long as the call."""
    level = Q.N + 1
    _check_level(Q, level)
    dtypes, exact = _working_dtypes(Q.p, block)
    odd = Q._orders & 1
    one_parity = odd.size > 0 and bool((odd == odd[0]).all())
    halves = (exact & one_parity).tolist()
    grids: dict[tuple[np.dtype, bool], tuple[np.ndarray, np.ndarray]] = {}
    buffers: dict = {}
    sups, cells = np.empty(len(block)), []
    for r, (row, dtype, half) in enumerate(zip(block, dtypes, halves)):
        if (dtype, half) not in grids:
            grid = np.zeros(Q.p ** (level - half), dtype=dtype)
            grids[dtype, half] = grid, Q.indices >> half
        grid, positions = grids[dtype, half]
        grid[positions] = row if dtype.kind == "c" else row.real
        values = _tensor_dft(grid, Q.p, level - half, sign=+1, buffers=buffers)
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
    that a study row runs on all its trials at once.

    Q is synthesised in its working dtype (see `_working_dtypes`): float32
    for a p=2 polynomial with real integer coefficients summing in
    absolute value below 2^24, float64 for any other real p=2 polynomial,
    complex128 otherwise. In float32 every partial sum is an integer below
    2^24, exact in any order and with or without FMA, so sup and cell are
    the float64 grid's bit for bit.

    Half grid: when p=2 and Q has terms, all of one order parity, with real
    integer coefficients summing in absolute value below 2^53, only the
    cells with top digit c_1 = 0 are synthesised. Flipping every digit
    multiplies a term of order d by (-1)^d, so |Q| is the same on a cell
    and its complement and the first maximal cell has c_1 = 0. There the
    exponent at position 0 drops out and, with one parity, `indices >> 1`
    is injective: the folded coefficients synthesise at level N, and those
    cell ints are the level-(N+1) ones. Every partial sum is an integer
    that the working dtype holds exactly, so sup and cell are the full
    grid's bit for bit. Both routes check the full level N+1 before
    allocating.

    Real p=2 values are never widened to complex: abs and argmax run in
    place on the float array (|x| of a float is hypot(x, 0) exactly).
    Finite coefficients can still synthesise past the float64 range: a sup
    that is not finite is refused."""
    sups, cells = _row_sups(Q, Q.values[None])
    return float(sups[0]), cells[0]


def check_norm_exponent(q: float) -> None:
    """Refuse a norm exponent unless it is finite and positive."""
    if not (math.isfinite(q) and q > 0):
        raise InvalidExponent(f"norm exponent must be finite and positive, got {q}")


def _row_lq_norms(block: np.ndarray, q: float) -> np.ndarray:
    """`lq_norm` of every row of a (rows x terms) block.

    Each row's |c|^q is summed along the row in one reduction over the
    block; the 1/q power is taken per row on the numpy scalar, which
    numpy's array power can differ from in the last bit."""
    check_norm_exponent(q)
    mags = np.abs(block)
    norms = np.empty(len(mags))
    for r, total in enumerate((mags**q).sum(axis=1)):
        total = total ** (1.0 / q)
        if total == 0.0 or not math.isfinite(total):
            top = mags[r].max(initial=0.0)
            if 0.0 < top < math.inf:
                total = top * ((mags[r] / top) ** q).sum() ** (1.0 / q)
        if not math.isfinite(total):
            raise NonFiniteValue(f"the l{q} norm is not finite in float64")
        norms[r] = total
    return norms


def lq_norm(values: Sequence[complex], q: float) -> float:
    """(sum |c|^q)^(1/q) in the order given (0.0 for an empty sequence).

    When the plain sum overflows, or underflows to 0 while some |c| > 0, it
    is recomputed as m (sum (|c|/m)^q)^(1/q) with m = max |c|; a norm that
    is still not finite is refused. In-range sums are never rescaled. An
    overflow still emits numpy's RuntimeWarning: silencing it with
    np.errstate would add about a quarter to the cost of a one-shot norm.
    This is the one-row case of `_row_lq_norms`, which norms every trial
    of a study row in one call."""
    block = np.asarray(values, dtype=np.complex128).reshape(1, -1)
    return float(_row_lq_norms(block, q)[0])


def sidon_ratio(Q: ChaosPolynomial) -> float:
    """Coefficient norm over sup-norm: lq(coeffs, 2d/(d+1)) / linf(Q)."""
    vector = Q.values
    if vector.size == 0 or not np.any(vector):
        raise DegenerateInput("the zero polynomial has no norm ratio")
    sup, _ = linf_norm(Q)
    return lq_norm(vector, Q.sidon_exponent) / sup


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
    if s < 1:
        raise InvalidOrder(f"order must be at least 1, got {s}")
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


def decomposition_residual(Q: ChaosPolynomial) -> float:
    """Coefficient-level residual of averaging the exponent projections.

    Summing project_J over all (p-1)^(N+1) exponent sequences counts every
    term (p-1)^(N+1-d) times, so the scaled sum must reproduce Q exactly.
    The sequences are enumerated in chunks, and each term's count is the
    number of them that agree with it under project_J's own mask.
    """
    if not Q.indices.size:
        return 0.0
    if not Q.is_pure:
        raise InvalidOrder("the decomposition identity needs a pure-order polynomial")
    width, base = Q.N + 1, Q.p - 1
    count = base**width
    if count > MAX_DECOMPOSITION_SEQUENCES:
        raise CombinatorialBlowup(
            f"(p-1)^(N+1) = {count} exponent sequences exceed the guard "
            f"{MAX_DECOMPOSITION_SEQUENCES}"
        )
    place = base ** np.arange(width)
    agreeing = np.zeros(Q.indices.size, dtype=np.int64)
    chunk = max(1, _CHUNK_BYTES // Q.indices.size)
    for start in range(0, count, chunk):
        sequences = np.arange(start, min(start + chunk, count))
        J = (sequences[:, None] // place) % base + 1
        agreeing += exponent_match(Q.indices, Q.p, J).sum(axis=0)
    scale = float(base) ** (-(width - Q.order))
    return float(np.abs(Q.values - scale * (agreeing * Q.values)).max())

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

The sup-norm is computed by full enumeration of the p^(N+1) cells through
the fast synthesis. A p=2 polynomial with all-real coefficients stays
float64 throughout (coefficient scatter, transform stages, abs and
argmax); any other polynomial is synthesised in complex128. Exponent
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
    CellIndex,
    ChaosTerm,
    _check_index_width,
    digit_matrix,
    exponent_match,
    paley_decode,
    paley_encode,
)
from .transform import Spectrum, StepFunction, _tensor_dft, convolve

# Bound on the (sequences, terms) match mask of one chunk of exponent sequences (bytes).
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
        for arr in (indices, orders):
            arr.flags.writeable = False
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_orders", orders)
        self._set_values(values)

    def _with_values(self, values: np.ndarray) -> "ChaosPolynomial":
        """The same validated terms with new coefficients aligned with
        ``indices``; only the coefficients are checked."""
        values = _finite_coefficients(values)
        if values.shape != self.indices.shape:
            raise MalformedIndex("values must align with the polynomial's indices")
        Q = object.__new__(ChaosPolynomial)
        for name in ("p", "N", "indices", "_orders"):
            object.__setattr__(Q, name, getattr(self, name))
        Q._set_values(values)
        return Q

    def _set_values(self, values: np.ndarray) -> None:
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coeffs", _TermMap(self.p, self.indices, values))

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
        return tuple(int(s) for s in np.unique(self._orders))

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


def _placed(Q: ChaosPolynomial, level: int, max_cells: int | None, real: bool) -> np.ndarray:
    """Q's coefficients scattered to their Paley indices on a level-`level`
    array: float64 real parts when `real`, else complex128. The level and
    the cell guard are checked before the array is allocated."""
    if level < Q.N + 1:
        raise InsufficientLevel(
            f"level {level} cannot hold positions up to {Q.N}"
        )
    check_cell_guard(Q.p, level, max_cells)
    coeffs = np.zeros(Q.p**level, dtype=float if real else complex)
    coeffs[Q.indices] = Q.values.real if real else Q.values
    return coeffs


def polynomial_spectrum(
    Q: ChaosPolynomial, level: int, max_cells: int | None = None
) -> Spectrum:
    """Coefficient array of Q at the given level (exact placement)."""
    return Spectrum(Q.p, level, _placed(Q, level, max_cells, real=False))


def _cell_values(Q: ChaosPolynomial, level: int, max_cells: int | None) -> np.ndarray:
    """Q on every cell of the given level as the stage loop's raw array,
    valid only until the next stage loop on this thread (see `_tensor_dft`).

    A p=2 polynomial whose coefficients are all real (a -0.0 imaginary part
    counts as zero) is scattered into float64 and stays float64 through
    the stages; any other polynomial is scattered into complex128. Only
    the term array is scanned, never the grid."""
    real = Q.p == 2 and not Q.values.imag.any()
    return _tensor_dft(_placed(Q, level, max_cells, real), Q.p, level, sign=+1)


def synthesize(
    Q: ChaosPolynomial, level: int | None = None, max_cells: int | None = None
) -> StepFunction:
    """Evaluate Q on every cell of the given level (default N+1)."""
    level = Q.N + 1 if level is None else level
    return StepFunction(Q.p, level, _cell_values(Q, level, max_cells).astype(np.complex128))


def linf_norm(
    Q: ChaosPolynomial, max_cells: int | None = None
) -> tuple[float, CellIndex]:
    """Exact sup-norm over the p^(N+1) cells and the first cell attaining it.

    Real p=2 values are never widened to complex: abs and argmax run in
    place on the float64 array (|x| of a float is hypot(x, 0) exactly).
    Finite coefficients can still synthesise past the float64 range: a sup
    that is not finite is refused."""
    level = Q.N + 1
    values = _cell_values(Q, level, max_cells)
    magnitudes = np.abs(values, out=values) if values.dtype.kind == "f" else np.abs(values)
    arg = int(np.argmax(magnitudes))
    sup = float(magnitudes[arg])
    if not math.isfinite(sup):
        raise NonFiniteValue(f"the sup-norm overflows float64 (cell {arg} gives {sup})")
    return sup, CellIndex(Q.p, level, arg)


def check_norm_exponent(q: float) -> None:
    """Refuse a norm exponent unless it is finite and positive."""
    if not (math.isfinite(q) and q > 0):
        raise InvalidExponent(f"norm exponent must be finite and positive, got {q}")


def lq_norm(values: Sequence[complex], q: float) -> float:
    """(sum |c|^q)^(1/q) in the order given (0.0 for an empty sequence).

    When the plain sum overflows, or underflows to 0 while some |c| > 0, it
    is recomputed as m (sum (|c|/m)^q)^(1/q) with m = max |c|; a norm that
    is still not finite is refused. In-range sums are never rescaled. An
    overflow still emits numpy's RuntimeWarning: silencing it with
    np.errstate adds about half to the cost of a study trial's norm."""
    check_norm_exponent(q)
    mags = np.abs(np.asarray(values, dtype=np.complex128))
    if mags.size == 0:
        return 0.0
    total = float((mags**q).sum() ** (1.0 / q))
    if total == 0.0 or not math.isfinite(total):
        top = float(mags.max())
        if 0.0 < top < math.inf:
            total = top * float(((mags / top) ** q).sum() ** (1.0 / q))
    if not math.isfinite(total):
        raise NonFiniteValue(f"the l{q} norm is not finite in float64")
    return total


def sidon_ratio(Q: ChaosPolynomial, max_cells: int | None = None) -> float:
    """Coefficient norm over sup-norm: lq(coeffs, 2d/(d+1)) / linf(Q)."""
    vector = Q.values
    if vector.size == 0 or not np.any(vector):
        raise DegenerateInput("the zero polynomial has no norm ratio")
    sup, _ = linf_norm(Q, max_cells=max_cells)
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


def decomposition_residual(
    Q: ChaosPolynomial, max_sequences: int | None = None
) -> float:
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
    cap = MAX_DECOMPOSITION_SEQUENCES if max_sequences is None else max_sequences
    count = base**width
    if count > cap:
        raise CombinatorialBlowup(
            f"(p-1)^(N+1) = {count} exponent sequences exceed the guard {cap}"
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

"""Finite-level Riesz product measures and the coefficient-shaping constructions.

A Riesz product density at level L is

    prod_{k=0}^{L-1} (1 + Re(a_k R_k^{j_k}(x))),   |a_k| <= 1,

which is non-negative with Haar integral 1, hence a probability density.
Every chaos statement made downstream concerns indices below p^L, and at
finite level all identities used here are exact: nothing approximates a
weak-* limit.

Because convolution acts as the pointwise product of coefficient arrays, a
polynomial applied to a base measure (with powers read as convolution
powers and the constant term as a point mass at 0) acts coefficientwise.
Both shaped constructions exploit that:

* ``lemma1_measure`` shapes the product with a = exp(2 pi i / (2d+1)) on
  every factor whose character power is not self-conjugate (and 1 on the
  rest). Its coefficient at an index is 0 unless every digit is 0 or
  +-J_k, and then zeta^(u-v) / 2^(u+v), with u and v counting the digits
  J_k and -J_k at non-self-conjugate positions: a finite alphabet in which
  the exponent-matched values are separated from every mismatched value.
  Interpolating through that alphabet (1 on matched points, 0 elsewhere
  and at 0) yields a measure whose coefficients select exactly the order-d
  terms with exponents equal to a prescribed sequence J. The measure is
  built from P's value at each letter, gathered by each index's (u, v),
  without forming the product or transforming it.

* ``lemma2_measure`` shapes the exponent-symmetric product with
  per-factor coefficient (R + R^2 + ... + R^(p-1))/p, whose coefficient at
  any index of chaos order m (m nonzero digits) is p^-m. A degree-d
  polynomial with P(0) = 0, P(p^-s) = 1 and P(p^-j) = 0 for the other
  orders j <= d keeps one chaos order and kills the rest. The shaped
  coefficient depends on the order alone, so the measure is built from
  one table of ints A_m / D = P(p^-m), m = 0..L, without forming the
  product: each coefficient is one correctly rounded quotient, gathered by
  each index's count of nonzero digits, and the density depends on a cell
  only through its count of nonzero digits, so the variation is one
  quotient of ints too.

A factor 1 + Re(a_k R_k^{j_k}) involves a self-conjugate character power
exactly when 2 j_k = 0 mod p (only for even p at j_k = p/2). That
arithmetic predicate, never a numeric comparison, drives the special
coefficient rules above; at a self-conjugate position the matched base
coefficient is Re(a_k) instead of a_k / 2.

lemma1's shaping polynomial is built in float64 from its Lagrange form,
as products of linear factors, with no linear solve, and evaluated at the
letters of the alphabet: each letter that is a node takes its target, so
every order-d coefficient is 1 or 0 exactly, and every other letter's
value carries an a priori rounding bound; an order whose bound exceeds
tolerance is refused (``IllConditionedSystem``), never silently degraded.
lemma2 is exact at every order the guards admit, and refuses
(``NonFiniteValue``) an order whose variation leaves the float64 range.
Every other ``variation``, p^-L sum |f| over the cells, is taken by the
one magnitude sum, `transform._row_lq_norms`.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import (
    CONSTRUCTION_TOL,
    MAX_LEVEL,
    UNIT_DISC_SLACK,
    check_cell_guard,
    check_covers,
    check_int,
    check_order,
)
from .errors import (
    CoefficientOutOfRange,
    EmptyIndexSet,
    IllConditionedSystem,
    InvalidExponent,
    InvalidOrder,
    LevelMismatch,
    NonFiniteValue,
)
from .padic import check_chaos_order, exponent_match, term_indices
from .transform import Spectrum, StepFunction, _row_lq_norms, forward, inverse


@dataclass(frozen=True, eq=False, repr=False)
class MeasureRep:
    """A finite-level measure: coefficient array plus variation metadata.

    ``variation`` is the exact finite-level total variation
    p^-L sum_c |density(c)|; the construction's name and parameters live
    in ``provenance``.
    """

    spectrum: Spectrum
    variation: float
    provenance: dict

    @property
    def p(self) -> int:
        return self.spectrum.p

    @property
    def level(self) -> int:
        return self.spectrum.level

    def __repr__(self) -> str:
        name = self.provenance.get("construction", "?")
        return (
            f"MeasureRep({name}, p={self.p}, level={self.level}, "
            f"variation={self.variation:.6g})"
        )


def is_self_conjugate(p: int, j: int) -> bool:
    """True when the power R^j of a position equals its own conjugate."""
    return (2 * j) % p == 0


def _validate_exponents(p: int, j: Sequence[int]) -> list[int]:
    out = [check_int(x, "exponents must be integers") for x in j]
    for jk in out:
        if not 1 <= jk <= p - 1:
            raise InvalidExponent(f"exponent {jk} out of range 1..{p - 1}")
    return out


def _coefficient_rows(a) -> list[list[complex]]:
    """The rows of Riesz coefficients `a` as complex, each row read once; a
    bool, Python or numpy, is refused (complex(True) would run it as a = 1)."""
    rows = []
    for row in a:
        out = []
        for x in row:
            if isinstance(x, (bool, np.bool_)):
                raise CoefficientOutOfRange(f"coefficients must be numbers, got {x!r}")
            out.append(complex(x))
        rows.append(out)
    return rows


def _riesz_block(p: int, level: int, a, j) -> np.ndarray:
    """`riesz_density` of every row of (rows x level) coefficients `a` and
    exponents `j`: a (rows x p^level) float64 block, row r the real values
    of the density of a[r] and j[r] bit for bit.

    Every factor table 1 + Re(a_k w), w = omega^((j_k x) mod p) gathered
    from one table of roots, is 1 + (a_r w_r - a_i w_i) in float64, which
    rounds alike on every IEEE build (the real part of a complex product
    depends on numpy's complex loop). Factor k is read at the cell's digit
    c_{k+1}, appended as the fastest-varying axis, and every cell's product
    is taken left to right, 1.0 * f_0 * f_1 * ...

    The steps alternate between two work buffers, and the last writes the
    result. A step broadcasts its table, one product of length p per cell,
    except at p <= 5 once it covers 128 p cells (rows times cells so far):
    there it takes p long products, one per digit, as numpy runs products
    of length 2 to 5 slowly. At p=2 a step over 1024 cells took 16 us
    broadcast and 7 us per digit; at p=16 over 4096 cells, 76 us and 163
    us, as each of the p strided passes walks the whole output (numpy 2.4
    on a 2-vCPU x86-64 machine)."""
    check_cell_guard(p, level)
    a = _coefficient_rows(a)
    j = [_validate_exponents(p, row) for row in j]
    for ak, jk in zip(a, j):
        if len(ak) != level or len(jk) != level:
            raise LevelMismatch(
                f"need {level} coefficients and exponents, got {len(ak)} and {len(jk)}"
            )
    rows = len(a)
    a = np.asarray(a, dtype=np.complex128).reshape(rows, level)
    j = np.asarray(j, dtype=np.int64).reshape(rows, level)
    refused = ~np.isfinite(a) | (np.abs(a) > 1 + UNIT_DISC_SLACK)
    if refused.any():
        ak = complex(a.flat[np.argmax(refused)])
        if not cmath.isfinite(ak):
            raise CoefficientOutOfRange(f"coefficient {ak} is not finite")
        raise CoefficientOutOfRange(f"|a_k| = {abs(ak)} exceeds 1")
    digits = np.arange(p)
    w = np.exp(2j * np.pi * digits / p)[(j[:, :, None] * digits) % p]
    tables = 1.0 + (a.real[:, :, None] * w.real - a.imag[:, :, None] * w.imag)
    if level == 0:
        return np.ones((rows, 1))
    result = np.empty((rows, p ** (level - 1), p))
    work = np.empty((2, rows * p ** (level - 1)))
    values = np.ones((rows, 1))
    for k in range(level):
        cells = values.shape[1]
        if k == level - 1:
            out = result
        else:
            out = work[k % 2, : rows * cells * p].reshape(rows, cells, p)
        if p > 5 or rows * cells < 128 * p:
            np.multiply(values[:, :, None], tables[:, k, None, :], out=out)
        else:
            for x in range(p):
                np.multiply(values, tables[:, k, x, None], out=out[:, :, x])
        values = out.reshape(rows, -1)
    return result.reshape(rows, p**level)


def _riesz_mass(block: np.ndarray, p: int, level: int) -> tuple[np.ndarray, ...]:
    """The integral p^-L sum f (a float64 sum: f is real), variation and
    minimum of every row of a `_riesz_block` block, which `pchaos riesz`
    and verify's riesz-mass hold to 1, 1 and >= 0."""
    scale = p ** (-level)
    return block.sum(axis=1) * scale, _row_lq_norms(block, 1.0, scale), block.min(axis=1)


def riesz_density(
    p: int, level: int, a: Sequence[complex], j: Sequence[int]
) -> StepFunction:
    """Level-L Riesz product density prod_k (1 + Re(a_k R_k^{j_k})).

    Real, non-negative, Haar integral 1 for any admissible coefficients:
    the one-row case of `_riesz_block`.
    """
    return StepFunction(p, level, _riesz_block(p, level, [a], [j])[0])


# ---------------------------------------------------------------------------
# Selector polynomials
# ---------------------------------------------------------------------------


def _letters(d: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The coefficient alphabet zeta^(u-v) / 2^(u+v), zeta = exp(2 pi i /
    (2d+1)), of lemma1's base product: the coefficient at an index with u
    digits J_k and v digits -J_k (mod p) at positions whose power is not
    self-conjugate, and no other nonzero digit there.

    The angle is divided in float64, as Python's scalar complex quotient
    divides it: numpy's complex quotient multiplies by a reciprocal, which
    can differ in the last bit."""
    return np.exp(1j * (2 * np.pi * (u - v) / (2 * d + 1))) / 2 ** (u + v)


def selector_nodes(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation nodes and targets of the exponent-selector system.

    Node 0 first, then blocks l = 0..d of values t_{l,i} at radius
    2^-(d-l); the target is 1 exactly at the matched value of each block
    (i = d-l) and 0 elsewhere. The nodes are distinct: within one block
    the angle differences 2(i-i')/(2d+1) never vanish mod 1, and across
    blocks the moduli differ. Their smallest gap shrinks from 7.48e-3 at
    d = 6 to 7.6e-9 at d = 24; the selector's a priori rounding bound, its
    one conditioning gate, already accounts for gaps down to that (see
    `_selector_solution`). An order above MAX_LEVEL, more positions than a
    level holds, is refused (`EmptyIndexSet`) before its O(d^2) nodes.
    """
    if check_order(d) > MAX_LEVEL:
        raise EmptyIndexSet(f"order {d} exceeds the {MAX_LEVEL} positions of the level cap")
    # t_{l,i} is the letter with u = i and v = d-l-i
    u, v = np.array([(i, d - l - i) for l in range(d + 1) for i in range(d - l + 1)]).T
    node_arr = np.concatenate([[0j], _letters(d, u, v)])
    target_arr = np.concatenate([[0.0], v == 0]).astype(np.complex128)
    return node_arr, target_arr


_WIDTH = MAX_LEVEL + 1  # lemma1 reads P at the letter (u, v) at u * _WIDTH + v


@functools.cache
def _selector_solution(d: int) -> np.ndarray:
    """The order-d selector P at every letter with u, v < _WIDTH, at key
    u * _WIDTH + v, then at the zero letter: read-only, built once per
    order. Callers refuse a bool or float `d` first (True hashes as 1).

    P is the sum over the d+1 target-1 nodes x_i of the terms
    t_i(x) = prod_j (x - x_j) / below_i, below_i = prod_j (x_i - x_j), both
    products over the n-1 other nodes x_j. A letter with u+v <= d is a
    node and takes its target, 1 where v = 0 and 0 elsewhere: the float
    quotient below_i / below_i rounds to 1 at every node of d <= 3, but
    misses it by up to 1.1e-16 at some nodes of d = 4..6. The zero letter
    takes 0. P is evaluated only at the other letters an index can reach,
    d < u+v <= MAX_LEVEL; the rest are never read and hold NaN, which a
    Spectrum would refuse. Each factor, above and below, is scaled by the
    exact power 2^-e_ij, e_ij the frexp exponent of |x_i - x_j|, so each
    factor of below_i lies in [1/2, 1) (unscaled, below_i underflows to 0
    from d = 14); where nothing under- or overflows, no bit moves.

    Every evaluated letter carries an a priori bound. With r = eps/2 the
    unit roundoff, a complex difference errs by at most r relative and a
    complex product by at most sqrt(5) r < 2.25 r (the exact scaling adds
    nothing), so each product of n-1 factors errs by at most 3.25 (n-1) r,
    and t_i by 6.5 (n-1) r + q r, with q r the error of the quotient
    itself. Summing the d+1 <= n-2 terms adds (n-3) r sum_i |t_i|. To
    first order the computed P is then within (7.5 n - 9.5 + q) r
    sum_i |t_i| of P, at most 4 n eps sum_i |t_i| for any q <= 11.5
    (numpy's Smith division errs by a few r). An order whose largest bound
    exceeds CONSTRUCTION_TOL is refused (`IllConditionedSystem`); the
    bound is 2.7e-15 at d = 6 and peaks at 1.16e-14, at d = 23. At d = 24
    no letter is evaluated."""
    node_arr, target_arr = selector_nodes(d)
    matched = np.flatnonzero(target_arr)
    others = np.array([np.delete(node_arr, i) for i in matched])
    gaps = node_arr[matched, None] - others
    scale = np.ldexp(1.0, -np.frexp(np.abs(gaps))[1])
    below = np.prod(gaps * scale, axis=-1)
    u, v = np.divmod(np.arange(_WIDTH * _WIDTH), _WIDTH)
    values = np.append(np.where(u + v <= d, v == 0, np.nan), 0.0).astype(np.complex128)
    reach = np.flatnonzero((d < u + v) & (u + v <= MAX_LEVEL))
    x = _letters(d, u[reach], v[reach])
    # prod_j (x - others[i, j]) 2^-e_ij / below_i, rows x, columns i
    terms = np.prod((x[:, None, None] - others) * scale, axis=-1) / below
    values[reach] = terms.sum(axis=1)
    bound = 4 * len(node_arr) * np.finfo(float).eps * np.abs(terms).sum(axis=1).max(initial=0.0)
    if bound > CONSTRUCTION_TOL:
        raise IllConditionedSystem(
            f"the order-{d} selector's rounding bound {bound:.3e} exceeds {CONSTRUCTION_TOL:.1e}"
        )
    values.flags.writeable = False
    return values


# ---------------------------------------------------------------------------
# Measure constructions
# ---------------------------------------------------------------------------


def _lemma1_base_spectrum(p: int, d: int, J: Sequence[int], level: int) -> Spectrum:
    """Coefficients of the Riesz product that lemma1_measure shapes, by the
    forward transform of its density: a = exp(2 pi i / (2d+1)) on every
    factor whose power R^(J_k) is not self-conjugate, 1 on the rest.

    `lemma1_measure` reads its base coefficients from the alphabet
    instead; this transform is the `lemma1-membership` check's independent
    route to them."""
    a = complex(np.exp(2j * np.pi / (2 * d + 1)))
    factors = [1.0 + 0j if is_self_conjugate(p, jk) else a for jk in J]
    return forward(riesz_density(p, level, factors, J))


def _digit_keys(steps: Sequence[np.ndarray]) -> np.ndarray:
    """The key sum_k steps[k][c_k] of every Paley index c = sum_k c_k p^k,
    from one table of p steps per position: one broadcast add per
    position, the top position first, so position k ends on the digit of
    p^k. The keys take the tables' integer dtype; with no position, the
    one key 0 is int8."""
    keys = np.zeros(1, dtype=np.int8)
    for step in reversed(steps):
        keys = (keys[:, None] + step).reshape(-1)
    return keys


def lemma1_measure(p: int, d: int, J: Sequence[int], level: int) -> MeasureRep:
    """Measure whose coefficients select order-d terms with exponents J.

    On every order-d index the coefficient is 1 when all exponents match
    J at the term positions and 0 otherwise. The exact finite-level
    variation is returned.

    The base product's coefficient at an index is its alphabet letter
    (`_letters`) when its digits lie in {0, J_k, -J_k} at every position
    (J_k alone where R^(J_k) is self-conjugate, which counts in neither u
    nor v), and 0 otherwise. P, evaluated once per order at every letter,
    is gathered by each index's (u, v) key; the product is never formed.
    """
    check_cell_guard(p, level)
    check_order(d)  # before the cache, where True and 2.0 hash as 1 and 2
    J = _validate_exponents(p, J)
    if len(J) != level:
        raise LevelMismatch(f"need {level} exponents, got {len(J)}")
    values = _selector_solution(d)
    # the key u _WIDTH + v of every Paley index; a digit outside the
    # alphabet adds `outside`, past every key, and gathers P at the zero
    # letter
    outside = _WIDTH * _WIDTH
    steps = []
    for jk in J:
        step = np.full(p, outside, dtype=np.intp)
        step[0] = 0
        if is_self_conjugate(p, jk):
            step[jk] = 0
        else:
            step[jk], step[-jk % p] = _WIDTH, 1
        steps.append(step)
    spectrum = Spectrum(p, level, values.take(_digit_keys(steps), mode="clip"))
    variation = _row_lq_norms(inverse(spectrum).values[None], 1.0, p ** (-level))[0]
    provenance = {"construction": "lemma1", "p": p, "d": d, "J": tuple(J)}
    return MeasureRep(spectrum, float(variation), provenance)


def _check_selected_order(d, s) -> tuple[int, int]:
    """(d, s) as orders (see `check_order`), refused unless s is in 1..d."""
    d, s = check_order(d), check_order(s)
    if s > d:
        raise InvalidOrder(f"selected order {s} not in 1..{d}")
    return d, s


def _lemma2_table(p: int, d: int, s: int, level: int) -> tuple[list[int], int]:
    """Ints A_0..A_level and D with P(p^-m) = A_m / D exactly, P the order
    selector: degree d, P(0) = 0, P(p^-s) = 1 and P(p^-j) = 0 for the
    other j in 1..d.

    In the Lagrange form through the nodes 0 and p^-j (j = 1..d), scaling
    the factor (p^-m - p^-j)/(p^-s - p^-j) by p^m p^s p^j above and below
    leaves p^(s-m) (p^j - p^m)/(p^j - p^s), and the factor of node 0 is
    p^(s-m). So P(p^-m) = p^(ds) prod (p^j - p^m) / (p^(dm) prod (p^j - p^s)),
    j != s, and over D = p^(dL) prod (p^j - p^s) its numerator is
    A_m = p^(d(s+L-m)) prod (p^j - p^m): D at m = s, 0 at every other
    m <= d but 0, so only m = 0 and m > d take a product."""
    others = [p**j for j in range(1, d + 1) if j != s]
    below = p ** (d * level) * math.prod(pj - p**s for pj in others)
    table = [
        below if m == s
        else 0 if 0 < m <= d
        else p ** (d * (s + level - m)) * math.prod(pj - p**m for pj in others)
        for m in range(level + 1)
    ]
    return table, below


def _krawtchouk(p: int, level: int) -> list[list[int]]:
    """K[h][m], the sum of the characters of every index of chaos order m
    at a cell with h nonzero digits: the coefficient of z^m in
    (1 + (p-1) z)^(L-h) (1 - z)^h, as a digit 0 of the cell contributes
    1 + (p-1) z over the p digit values of a position and a nonzero one
    1 - z (its p-1 nonzero powers sum to -1)."""
    rows = []
    for h in range(level + 1):
        row = [1]
        for c in [p - 1] * (level - h) + [-1] * h:  # times 1 + c z
            row = [a + c * b for a, b in zip(row + [0], [0] + row)]
        rows.append(row)
    return rows


def lemma2_measure(p: int, d: int, s: int, level: int) -> MeasureRep:
    """Measure keeping chaos order s and killing every other order <= d.

    Its coefficient at an index of chaos order m is P(p^-m) = A_m / D (see
    `_lemma2_table`), one correctly rounded quotient of ints gathered by
    each index's count of nonzero digits; the product it shapes is never
    formed. Its density is G_h / D on each of the C(L, h) (p-1)^h cells
    with h nonzero digits, G_h = sum_m A_m K_m(h) (`_krawtchouk`), so its
    variation is sum_h C(L, h) (p-1)^h |G_h| / (p^L |D|), exact and rounded
    once, with no cell grid. An order whose variation leaves the float64
    range is refused (`NonFiniteValue`), at once where the lower bound
    p^(ds - (s-1)(s+2)/2) on |P(1)|, the coefficient at index 0 and so at
    most the variation, does (p^j - 1 >= p^(j-1) for every j < s)."""
    check_cell_guard(p, level)
    if level < 1:
        raise LevelMismatch(f"level must be at least 1, got {level}")
    p, level = int(p), int(level)
    d, s = _check_selected_order(d, s)
    refusal = "the lemma2 variation leaves the float64 range"
    power = d * s - (s - 1) * (s + 2) // 2
    # p >= 2, so a power of at least max_exp passes the float64 range
    if power >= sys.float_info.max_exp or p**power > sys.float_info.max:
        raise NonFiniteValue(refusal)
    table, below = _lemma2_table(p, d, s, level)
    profile = [
        math.comb(level, h) * (p - 1) ** h * abs(sum(a * k for a, k in zip(table, row)))
        for h, row in enumerate(_krawtchouk(p, level))
    ]
    try:
        variation = sum(profile) / (p**level * abs(below))
    except OverflowError:
        raise NonFiniteValue(refusal) from None
    # the chaos order (count of nonzero digits) of every Paley index, one
    # int8 per cell; every |A_m / D| is at most the variation, so in range
    nonzero = (np.arange(p) != 0).astype(np.int8)
    orders = _digit_keys([nonzero] * level)
    values = np.array([a / below for a in table], dtype=np.complex128)
    spectrum = Spectrum(p, level, values[orders])
    provenance = {"construction": "lemma2", "p": p, "d": d, "s": s}
    return MeasureRep(spectrum, variation, provenance)


def rho_y_measure(
    p: int, J: Sequence[int], signs: Sequence[int], level: int
) -> MeasureRep:
    """Sign-modulated Riesz product: a_k = signs[k] on non-self-conjugate
    factors and signs[k]/2 on self-conjugate ones.

    Its coefficient at the J-matched index over positions k_1 < ... < k_d
    equals (prod_i signs[k_i]) / 2^d, and its total variation is 1.
    """
    check_cell_guard(p, level)
    J = _validate_exponents(p, J)
    signs = [check_int(x, "signs must be integers") for x in signs]
    if len(J) != level or len(signs) != level:
        raise LevelMismatch(
            f"need {level} exponents and signs, got {len(J)} and {len(signs)}"
        )
    for sk in signs:
        if sk not in (-1, 1):
            raise CoefficientOutOfRange(f"signs must be +-1, got {sk}")
    a = [
        complex(sk) / 2 if is_self_conjugate(p, jk) else complex(sk)
        for sk, jk in zip(signs, J)
    ]
    density = riesz_density(p, level, a, J)
    variation = _row_lq_norms(density.values[None], 1.0, p ** (-level))[0]
    provenance = {
        "construction": "rho_y",
        "p": p,
        "J": tuple(J),
        "signs": tuple(signs),
    }
    return MeasureRep(forward(density), float(variation), provenance)


# ---------------------------------------------------------------------------
# Pattern residuals (shared by the CLI, the verification suite and tests)
# ---------------------------------------------------------------------------


def _selection_residual(measure: MeasureRep, indices, keep) -> tuple[float, float]:
    """(max |coeff - 1| over the indices `keep` marks, max |coeff| over the
    rest), 0.0 over none: one gather of the measure's coefficients."""
    values = measure.spectrum.coeffs[indices]
    kept = float(np.abs(values[keep] - 1.0).max(initial=0.0))
    killed = float(np.abs(values[~keep]).max(initial=0.0))
    return kept, killed


def lemma1_pattern_residual(
    measure: MeasureRep, d: int, J: Sequence[int], N: int
) -> tuple[float, float]:
    """(max |coeff - 1| over J-matched order-d indices,
    max |coeff| over mismatched ones), exhaustively over positions 0..N."""
    p = measure.p
    check_covers(p, measure.level, N)
    J = _validate_exponents(p, J)
    if len(J) < N + 1:
        raise LevelMismatch(f"need at least {N + 1} exponents, got {len(J)}")
    indices = term_indices(p, d, N)
    return _selection_residual(measure, indices, exponent_match(indices, p, J))


def lemma2_pattern_residual(
    measure: MeasureRep, d: int, s: int, N: int
) -> tuple[float, float]:
    """(max |coeff - 1| over order-s indices,
    max |coeff| over orders j <= d, j != s), positions 0..N. An order s
    above d, which the gather would never read, is refused (`InvalidOrder`),
    and one with no term on the N+1 positions (`EmptyIndexSet`)."""
    p = measure.p
    check_covers(p, measure.level, N)
    d, s = _check_selected_order(d, s)
    check_chaos_order(p, s, N)
    by_order = [term_indices(p, order, N) for order in range(1, min(d, N + 1) + 1)]
    orders = np.repeat(np.arange(1, len(by_order) + 1), [len(i) for i in by_order])
    return _selection_residual(measure, np.concatenate(by_order), orders == s)

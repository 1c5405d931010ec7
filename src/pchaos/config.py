"""Shared numerical tolerances, resource guards and input guards.

Every tolerance is stated exactly once, here, and none can be overridden
per run. Two broad tiers cover measure-construction identities (1e-8,
which also caps the exponent selector's a priori rounding bound) and
transform identities (1e-10); a handful of checks carry their own sharper
constants (mass identities, exact transform agreement, character
arithmetic) because those quantities are exact up to rounding. The
resource guards are fixed caps, checked before any size-dependent work.
The decomposition identity has no cap of its own: project_J's rule is a
conjunction over positions and the exponent sequences form a product
set, so by distributivity each term's count of agreeing sequences is a
product over positions, computed in the time it takes to build the
polynomial, never by enumerating the (p-1)^(N+1) sequences.

It is also the one home of the shared input guards, one function per
rule, so a bad input gets one exception and message from every entry
point: integer, natural number, order, base and level caps, cell guard,
a level that covers positions 0..N, and a norm exponent.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import GuardExceeded, InsufficientLevel, InvalidExponent, InvalidOrder, MalformedIndex

# Hard caps on base and level. The size bounds are MAX_CELLS on allocated
# grids and the int64 range on Paley indices (padic._check_index_width).
# An order needs its positions, so MAX_LEVEL also bounds the exponent
# selector's order; CONSTRUCTION_TOL on its a priori rounding bound is its
# one conditioning gate.
MAX_BASE = 16
MAX_LEVEL = 24

# Cap on allocated cell grids (p^level cells), checked before allocation.
MAX_CELLS = 2**24

# Largest cell count for which quadratic-cost reference algorithms
# (naive transform, direct cell-domain convolution) are permitted.
MAX_DIRECT_CELLS = 3**7

# The two shared tiers: measure-construction and transform identities.
CONSTRUCTION_TOL = 1e-8
TRANSFORM_TOL = 1e-10

# Sharp per-check constants (identities exact up to float rounding).
MASS_TOL = 1e-12
EXACT_TRANSFORM_TOL = 1e-12
CHARACTER_TOL = 1e-14
EXACT_RATIO_TOL = 1e-12
LEMMA1_PATTERN_TOL = 1e-6

# Rounding slack on the Riesz coefficient bound |a_k| <= 1.
UNIT_DISC_SLACK = 1e-12


def check_int(value, rule: str) -> int:
    """`value` as an int, refused with `rule` unless it is an integer (numpy
    integers included): int() would run 4.7 as 4 and True as 1."""
    if type(value) is int:  # the common case, without the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise MalformedIndex(f"{rule}, got {value!r}")
    return int(value)


def check_natural(value) -> int:
    """`value` as an int: an integer (see `check_int`) of at least 0."""
    rule = "expected a natural number"
    n = check_int(value, rule)
    if n < 0:
        raise MalformedIndex(f"{rule}, got {n}")
    return n


def check_order(value) -> int:
    """`value` as a chaos order: an integer (see `check_int`) of at least 1."""
    order = check_int(value, "order must be an integer")
    if order < 1:
        raise InvalidOrder(f"order must be at least 1, got {order}")
    return order


def check_base_level(p: int, level: int) -> None:
    """Validate the hard caps on base and level, both integers."""
    check_int(p, "p must be an integer")
    check_int(level, "level must be an integer")
    if p < 2:
        raise GuardExceeded(f"base must be >= 2, got {p}")
    if p > MAX_BASE:
        raise GuardExceeded(f"base {p} exceeds the supported cap {MAX_BASE}")
    if level < 0:
        raise GuardExceeded(f"level must be >= 0, got {level}")
    if level > MAX_LEVEL:
        raise GuardExceeded(f"level {level} exceeds the supported cap {MAX_LEVEL}")


def check_cell_guard(p: int, level: int) -> None:
    """Validate the base and level caps and that a p^level cell grid fits
    MAX_CELLS, in Python ints (a numpy integer power wraps). Callers run it
    before allocating the grid."""
    check_base_level(p, level)
    if int(p) ** int(level) > MAX_CELLS:
        raise GuardExceeded(f"p^level = {p}^{level} exceeds the cell guard {MAX_CELLS}")


def check_covers(p: int, level: int, N: int) -> None:
    """Refuse a level that cannot hold positions 0..N, then a p^level grid
    past the cell guard; run before any level-sized array is allocated."""
    if check_int(level, "level must be an integer") < check_int(N, "N must be an integer") + 1:
        raise InsufficientLevel(f"level {level} cannot hold positions up to {N}")
    check_cell_guard(p, level)


def check_norm_exponent(q: float) -> None:
    """Refuse a norm exponent unless it is a finite positive number (a bool
    is not one: True would run as q=1)."""
    if isinstance(q, (bool, np.bool_)) or not (math.isfinite(q) and q > 0):
        raise InvalidExponent(f"norm exponent must be finite and positive, got {q}")

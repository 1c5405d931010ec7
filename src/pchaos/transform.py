"""Step functions on p-adic cells and the fast Vilenkin-Chrestenson transform.

Digit pairing contract: the character with Paley index m = sum_k l_k p^k
takes the value omega^(sum_k l_k c_{k+1}), omega = exp(2 pi i / p), on the
cell with digit view (c_1, ..., c_L). Position k therefore reads the
(k+1)-th fractional digit, and every routine below implements exactly this
pairing. Output arrays are directly Paley-indexed; the digit reversal this
requires is internal and never exposed.

Normalization: `forward` carries the p^-L Haar factor, so the coefficient
array of a mass-one density is O(1) and can be compared literally against
measure constructions; `inverse` carries none, hence inverse(e_m) is the
character itself. With this convention convolution of densities,
(f * g)(x) = integral f(x - z) g(z) dmu(z) over the coordinate group,
becomes the pointwise product of coefficient arrays.

The fast path contracts the digits g at a time, one matrix product (BLAS
GEMM) with the level-g character table per stage, in the layout of a
Stockham autosort FFT, so no final reorder is needed (see `_tensor_dft`).
At p=2, real input runs the same stages in a float dtype with the exact
+-1 table, so integer spectra synthesise to exact integers; other values
carry the rounding of the complex root-of-unity table and of the GEMMs.
The stage loop runs in the dtype it is handed. `_working_dtype` is the one
rule that picks it, applied once per call by `forward`/`inverse` (which
widen the result to complex128) and by chaos's sup-norm. The sup-norm
also hands the loop only the first stage's reached columns of its grid,
with the same bits; `forward` and `inverse` always run the full grid.
`_row_lq_norms` is the one magnitude sum: chaos's coefficient lq norms
and every measure's total variation p^-L sum |f|.
`naive_forward` retains the quadratic-cost defining sum as the reference,
independent of the stage loop: each character value is the root-of-unity
table entry of its own full phase sum mod p, gathered 16 rows at a time
from two half-digit phase tables (`_half_digit_tables`), and each block
multiplies the values in one matrix-vector product. The two must agree to
rounding on every input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_DIRECT_CELLS, check_base_level, check_natural, check_norm_exponent
from .errors import GuardExceeded, InsufficientLevel, LevelMismatch, NonFiniteValue
from .padic import check_cell, digit_matrix, to_digits


def root_of_unity_powers(p: int) -> np.ndarray:
    """[omega^0, ..., omega^(p-1)] computed from exact angles 2 pi l / p."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def _grid_array(p: int, level: int, values, noun: str) -> np.ndarray:
    """`values` as a contiguous complex128 grid of p^level finite values,
    with base and level within their caps; `noun` names them in a refusal."""
    check_base_level(p, level)
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if arr.shape != (p**level,):
        raise LevelMismatch(f"expected {p ** level} {noun}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{noun} must be finite")
    return arr


@dataclass(frozen=True, eq=False, repr=False)
class StepFunction:
    """A complex function on [0,1) constant on the p^level cells of one level.

    values[c] is the value on cell c; the Haar integral is the mean
    p^-level * sum(values). A NaN or infinite value is refused
    (`NonFiniteValue`), so a transform whose result leaves the float64
    range is refused too.
    """

    p: int
    level: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _grid_array(self.p, self.level, self.values, "cell values")
        object.__setattr__(self, "values", values)

    def __repr__(self) -> str:
        return f"StepFunction(p={self.p}, level={self.level}, cells={self.values.size})"


@dataclass(frozen=True, eq=False, repr=False)
class Spectrum:
    """Fourier coefficients of a step function, indexed by Paley index.

    A NaN or infinite coefficient is refused (`NonFiniteValue`)."""

    p: int
    level: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = _grid_array(self.p, self.level, self.coeffs, "coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def __repr__(self) -> str:
        return f"Spectrum(p={self.p}, level={self.level}, size={self.coeffs.size})"


def _row_lq_norms(block: np.ndarray, q: float, scale: float = 1.0) -> np.ndarray:
    """scale (sum |c|^q)^(1/q) of every row of a (rows x terms) block (0.0
    for a row with no terms): at scale 1.0 a coefficient lq norm, at q = 1
    and scale = p^-L on rows of cell values each row's total variation.

    One reduction sums the |c|^q along the rows; the 1/q power is taken per
    row on the numpy scalar (numpy's array power can differ in the last
    bit). Only a row whose plain sum overflows, or underflows to 0 while
    some |c| > 0, is taken as (S scale) m, S = (sum (|c|/m)^q)^(1/q) and
    m = max |c| (m S can overflow where this does not: lemma2 at p=7, d=27,
    s=22); a norm still not finite is refused. An overflow still emits
    numpy's RuntimeWarning (np.errstate adds a quarter to a one-row norm)."""
    check_norm_exponent(q)
    mags = np.abs(block)
    norms = np.empty(len(mags))
    for r, total in enumerate((mags**q).sum(axis=1)):
        total = total ** (1.0 / q)
        if 0.0 < total < math.inf:
            total *= scale
        else:
            top = mags[r].max(initial=0.0)
            if 0.0 < top < math.inf:
                total = ((mags[r] / top) ** q).sum() ** (1.0 / q) * scale * top
        if not math.isfinite(total):
            raise NonFiniteValue(f"the l{q} norm is not finite in float64")
        norms[r] = total
    return norms


def character_value(m: int, p: int, level: int, c: int) -> complex:
    """Value of the character with Paley index m on the level-`level` cell c.

    Multiplicative over the coordinate group: the value at x - z equals the
    value at x times the conjugate value at z.
    """
    check_cell(p, level, c)
    if check_natural(m) >= p**level:
        raise InsufficientLevel(f"index {m} needs more than {level} digits")
    cell_digits = to_digits(c, p, level)
    phase = 0
    for k, l in enumerate(to_digits(m, p, level)):
        phase += l * cell_digits[level - 1 - k]
    return complex(np.exp(2j * np.pi * (phase % p) / p))


def _phase_table(p: int, level: int) -> np.ndarray:
    """(p^L, p^L) phases of the level-L characters: entry [m, c] is
    sum_k l_k c_(k+1) mod p, so chi[m, c] = omega^entry. Row k of the cell
    digits, c_(k+1), is digit L-1-k of the cell index read least
    significant first."""
    d = digit_matrix(np.arange(p**level), p, level)
    return (d @ d[:, ::-1].T) % p


# Cells one stage contracts at most: g=5 digits at p=2, 3 at p=3, 2 at p=4
# and p=5, 1 from p=7 up. A cap of 64 measured slower at p=2 and p=4.
_STAGE_CELLS = 32


@functools.cache
def _stage_kernel(p: int, g: int, sign: int, dtype: np.dtype) -> np.ndarray:
    """Level-g character table omega^(sign * sum_i v_i u_(g-1-i)) from the
    root-of-unity table (v_i, u_i: base-p digits of row v and column u,
    least significant first), in `dtype`. A real dtype takes the real
    part, at p=2 the exact +-1 table. Read-only, as it is cached."""
    powers = root_of_unity_powers(p)
    if sign < 0:
        # conj(omega^0) is 1-0j; + 0.0 gives it the +0.0 imaginary part the
        # row and column of ones have always carried.
        powers = np.conjugate(powers) + 0.0
    kernel = powers[_phase_table(p, g)]
    if dtype.kind == "f":
        kernel = np.ascontiguousarray(kernel.real, dtype=dtype)
    kernel.flags.writeable = False
    return kernel


# How many leading entries of a large block's first row `_working_dtype`
# tests for a non-integer before it scans the whole block.
_PROBE_ENTRIES = 4096


def _working_dtype(p: int, block: np.ndarray) -> np.dtype:
    """The one dtype a (rows x terms) coefficient block is synthesised in.

    At p=2 a block whose coefficients are all real (a -0.0 imaginary part
    counts as zero) runs in float32 when they are integers and every row
    has sum |c| < 2^24, else in float64; any other block runs in
    complex128. Every partial sum of a +-1 stage is a signed sum of a
    subset of a row's coefficients, so with integers it stays an integer
    at most sum |c|, which float32 holds exactly below 2^24. The bound is
    strict, so that numpy's float sum being below it proves the true sum
    is. Only the block is scanned. A block of more than `_PROBE_ENTRIES`
    entries has the leading ones of its first row tested first: one
    non-integer there decides float64 without a pass over a large real
    grid."""
    if p != 2 or block.imag.any():
        return np.dtype(complex)
    real = block.real
    if real.size > _PROBE_ENTRIES:
        probe = real[:1, :_PROBE_ENTRIES]
        if (probe != np.rint(probe)).any():
            return np.dtype(float)
    if (real == np.rint(real)).all() and (np.abs(real).sum(axis=1) < 2.0**24).all():
        return np.dtype(np.float32)
    return np.dtype(float)


@functools.cache
def _stage_digits(p: int) -> int:
    """Digits a full stage contracts: the largest g with p^g <= _STAGE_CELLS."""
    g = 1
    while p ** (g + 1) <= _STAGE_CELLS:
        g += 1
    return g


def _first_stage_reach(
    p: int, level: int, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The first stage's reached columns for a level-L grid that is zero
    outside `positions`, and the compact block `_tensor_dft` takes with them.

    The first stage reads the grid as a (p^g, C) array, C = p^(L-g), and
    contracts each column, so column c is reached when some position is
    c mod C. Returns `reach`, those columns in ascending order; the flat
    index of each position in the (p^g, len(reach)) block that keeps only
    them, (position // C) * len(reach) + rank of (position mod C); and
    that block's size. One reached column of several takes the first and
    last with it: numpy runs a one-row product as a matrix-vector product,
    which sums in another order than the dense GEMM."""
    columns = p ** (level - min(_stage_digits(p), level))
    column = positions % columns
    rank = np.zeros(columns, dtype=np.intp)
    rank[column] = 1
    reach = np.flatnonzero(rank)
    if reach.size == columns:  # the compact block is the grid
        return reach, positions, p**level
    if reach.size == 1:
        rank[[0, -1]] = 1
        reach = np.flatnonzero(rank)
    rank[reach] = np.arange(reach.size)
    scatter = positions // columns * reach.size + rank[column]
    return reach, scatter, p**level // columns * reach.size


def _tensor_dft(
    values: np.ndarray,
    p: int,
    level: int,
    sign: int,
    buffers: tuple | None = None,
    reach: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the p-point kernel along every digit; the flat result is
    directly Paley-indexed (position k of the output pairs with fractional
    digit k+1 of the input).

    Stockham stages of g digits each, g the largest with p^g <= _STAGE_CELLS
    (the last stage takes what is left). Before a stage that has written j
    output digits the array is a (p^g, R, p^j) view, R = p^(L-j-g): the top
    axis holds the input digits c_(j+1), ..., c_(j+g), c_(j+1) most
    significant, and the bottom axis the output digits l_(j-1), ..., l_0
    written so far. The level-g character table contracts the top axis and
    the product is stored as (R, p^g, p^j), so l_j, ..., l_(j+g-1) land just
    above the digits already written, l_j lowest. After the last stage
    (R = 1) the array is Paley-indexed: no final reorder.

    The loop runs in `values`'s dtype and neither scans nor casts it: the
    caller picks the dtype (see `_working_dtype`) and hands a contiguous
    array, real only at p=2 (a real dtype takes the kernel's real part,
    the exact +-1 table there) and complex128 otherwise. Every stage
    writes into a stage buffer, and `values` is never written.
    Without `buffers` both are fresh, and so is the result. With a
    caller's pair (contiguous, of `values`'s size and dtype) the result is
    one of the pair, valid until its next use, and `values` must be
    neither.

    With `reach` (only the sup-norm core passes it, from
    `_first_stage_reach`), `values` is the compact (p^g, len(reach)) block
    of the first stage's reached columns of a grid that is zero elsewhere,
    and `buffers` is a caller's triple of level-L arrays whose first holds
    zeros in the rows of the unreached columns. The first stage is one
    GEMM over the compact block into the second buffer, copied to the
    reached rows of the first (straight into the first when every column
    is reached); the later stages alternate between the second and the
    third, so the zero rows are never written. A GEMM of two or more rows
    computes each output row from its own input row and the table, so a
    reached row is the dense GEMM's row: the same products, summed in the
    same order, with the same operand roles (a^T K). An unreached row is
    zeros either way. Every later value is then the dense loop's up to the
    sign of a zero, and its magnitude bit for bit. `forward` and `inverse`
    never pass `reach`.
    """
    if level == 0:
        return values.copy()
    if buffers is None:
        buffers = np.empty_like(values), np.empty_like(values)
    a = values
    width = _stage_digits(p)
    # The first stage writes `first`; the later ones alternate between
    # `spare` and `out`, which is `first` and the other of a pair, and the
    # last two of a triple, so a reached-column `first` keeps its zeros.
    first, spare, out = buffers[0], buffers[-2], buffers[-1]
    j = 0
    while j < level:
        g = min(width, level - j)
        kernel = _stage_kernel(p, g, sign, a.dtype)
        rows = p ** (level - j - g)
        if j == 0:
            # The table is symmetric, so a^T K is the product already stored
            # as (R, p^g): BLAS reads the transpose in place.
            stored = first.reshape(rows, p**g)
            if reach is None or reach.size == rows:
                np.matmul(a.reshape(p**g, rows).T, kernel, out=stored)
            else:
                product = spare[: reach.size * p**g].reshape(reach.size, p**g)
                np.matmul(a.reshape(p**g, reach.size).T, kernel, out=product)
                stored[reach] = product
            a = first
        elif rows == 1 or p**j >= _STAGE_CELLS:
            # One GEMM per row block writes (R, p^g, p^j) in place.
            stacked = a.reshape(p**g, rows, p**j).transpose(1, 0, 2)
            np.matmul(kernel, stacked, out=out.reshape(rows, p**g, p**j))
            a, out, spare = out, spare, out
        else:
            # Blocks narrower than a stage make GEMMs too small to pay for
            # their calls: one GEMM into `out`, then a transposing copy into
            # `spare` (the buffer just read, unless that was a reached-column
            # `first`; never `values`, as j > 0).
            np.matmul(kernel, a.reshape(p**g, -1), out=out.reshape(p**g, -1))
            product = out.reshape(p**g, rows, p**j).transpose(1, 0, 2)
            np.copyto(spare.reshape(rows, p**g, p**j), product)
            a = spare
        j += g
    return a.reshape(p**level)


def _synthesis(values: np.ndarray, p: int, level: int, sign: int) -> np.ndarray:
    """The stage loop on complex128 `values` in their working dtype (see
    `_working_dtype`), its result widened to a fresh complex128 array."""
    dtype = _working_dtype(p, values[None])
    # No name holds the cast input, so it is freed before the result is
    # widened: a real grid peaks at its two stage buffers and the cast.
    result = _tensor_dft(
        np.ascontiguousarray(values if dtype.kind == "c" else values.real, dtype), p, level, sign
    )
    return result.astype(complex, copy=False)


def forward(f: StepFunction) -> Spectrum:
    """Fast transform: coeffs[m] = p^-L sum_c values[c] conj(character_m(c))."""
    coeffs = _synthesis(f.values, f.p, f.level, sign=-1)
    coeffs *= f.p ** (-f.level)  # in place: a second complex grid raises the peak
    return Spectrum(f.p, f.level, coeffs)


def inverse(s: Spectrum) -> StepFunction:
    """Fast synthesis: values[c] = sum_m coeffs[m] character_m(c)."""
    return StepFunction(s.p, s.level, _synthesis(s.coeffs, s.p, s.level, sign=+1))


# Rows of the character table `naive_forward` gathers and multiplies at
# once, and rows `convolve_functions` takes at once (rounded up to a power
# of p). Either oracle holds O(16 p^L) entries, not O(p^2L): at the 3^7-cell
# guard a 16-row complex128 block is 0.5 MiB.
_REFERENCE_BLOCK_ROWS = 16


def _check_direct(p: int, level: int, what: str) -> None:
    if p**level > MAX_DIRECT_CELLS:
        raise GuardExceeded(f"{what} needs {p}^{level} squared entries, above the guard")


def _half_digit_tables(p: int, level: int, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The level-L character table over `powers` (omega's powers or their
    conjugates) as (runs, index): row m of the table is runs[index[m]] read
    flat.

    Split m into its a = L//2 low digits m_lo and the rest m_hi, and the
    cell c into its top a digits c_hi = (c_1..c_a) and the rest c_lo. The
    phase of chi[m, c] is the integer sum of the level-a phase [m_lo, c_hi]
    and the level-(L-a) phase [m_hi, c_lo], so row m is p^a runs of
    p^(L-a) cells. runs[m_hi * p + t] is powers at (level-(L-a) phase row
    m_hi + t) mod p, and index[m, c_hi] is m_hi * p plus the level-a phase
    [m_lo, c_hi]: every entry is the powers entry of its own full phase sum.
    """
    a = level // 2
    high = _phase_table(p, level - a)
    runs = powers[(high[:, None, :] + np.arange(p)[:, None]) % p].reshape(-1, p ** (level - a))
    index = np.arange(p ** (level - a))[:, None, None] * p + _phase_table(p, a)
    return runs, index.reshape(p**level, p**a)


def naive_forward(f: StepFunction) -> Spectrum:
    """The defining double sum, kept as the reference for the fast path.

    Every character value is the table entry of its own full phase sum;
    only the gather is factored (see `_half_digit_tables`), the sum is not.
    The conjugate table is gathered a block of rows at a time and each
    block multiplies the values, so memory is O(block p^L), not O(p^2L).
    """
    p, level = f.p, f.level
    _check_direct(p, level, "naive transform")
    runs, index = _half_digit_tables(p, level, np.conjugate(root_of_unity_powers(p)))
    size = p**level
    rows = min(size, _REFERENCE_BLOCK_ROWS)
    # One block buffer, reused: a fresh half-MiB temporary per block is
    # handed back to the OS and page-faulted in again on every block.
    chi = np.empty((rows, size), dtype=np.complex128)
    coeffs = np.empty(size, dtype=np.complex128)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        block = chi[: stop - start]
        # Every index names a row of `runs`, so "clip" never clips; unlike
        # the default "raise" it gathers without buffering.
        out = block.reshape(stop - start, -1, runs.shape[1])
        np.take(runs, index[start:stop], axis=0, out=out, mode="clip")
        np.matmul(block, f.values, out=coeffs[start:stop])
    coeffs *= p ** (-level)
    return Spectrum(p, level, coeffs)


def _check_compatible(a, b) -> None:
    if a.p != b.p or a.level != b.level:
        raise LevelMismatch(
            f"operands live on different grids: ({a.p},{a.level}) vs ({b.p},{b.level})"
        )


def convolve(a: Spectrum, b: Spectrum) -> Spectrum:
    """Convolution of the underlying measures: pointwise coefficient product."""
    _check_compatible(a, b)
    return Spectrum(a.p, a.level, a.coeffs * b.coeffs)


def _group_sub_table(p: int, level: int) -> np.ndarray:
    """(p^L, p^L) table of x - z in the coordinate group: digitwise
    (x_k - z_k) mod p, built as a Kronecker sum one digit at a time from the
    least significant (c_L) up."""
    digits = np.arange(p, dtype=np.int64)
    diff = (digits[:, None] - digits[None, :]) % p
    table = np.zeros((1, 1), dtype=np.int64)
    for _ in range(level):
        n = table.shape[0]
        table = (diff[:, None, :, None] * n + table[None, :, None, :]).reshape(n * p, n * p)
    return table


def convolve_functions(f: StepFunction, g: StepFunction) -> StepFunction:
    """Direct cell-domain convolution (f*g)(x) = p^-L sum_z f(x-z) g(z).

    Quadratic cost; guarded to small grids. Reference for `convolve`. The
    rows x are taken a block at a time: a block fixes the high digits of x
    and runs over all low digits, so its x - z indices are the high-digit
    table row times p^low plus the low-digit table.
    """
    _check_compatible(f, g)
    p, level = f.p, f.level
    _check_direct(p, level, "direct convolution")
    low = 0
    while low < level and p**low < _REFERENCE_BLOCK_ROWS:
        low += 1
    rows = p**low
    low_table = _group_sub_table(p, low)
    values = np.empty(p**level, dtype=np.complex128)
    for hi, hi_row in enumerate(_group_sub_table(p, level - low)):
        block = (hi_row[None, :, None] * rows + low_table[:, None, :]).reshape(rows, -1)
        np.matmul(f.values[block], g.values, out=values[hi * rows : (hi + 1) * rows])
    values *= p ** (-level)
    return StepFunction(p, level, values)

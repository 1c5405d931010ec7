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
At p=2, real-dtype input and complex input whose imaginary part is all
zero run in a float dtype with the exact +-1 table, so integer spectra
synthesise to exact integers: float32 input stays float32, any other runs
in float64. The stage loop returns that working dtype; `forward`/`inverse`
pass it float64 and widen its result to complex128, while chaos's sup-norm
keeps it, and passes float32 only for integers with sum |c| < 2^24, whose
every partial sum float32 holds exactly. Other values carry the rounding
of the complex root-of-unity table and of the GEMMs.
`naive_forward` retains the quadratic-cost defining sum as the reference;
the two must agree to rounding on every input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import MAX_DIRECT_CELLS, check_base_level
from .errors import GuardExceeded, InsufficientLevel, LevelMismatch, MalformedIndex
from .padic import check_cell, digit_matrix, to_digits


def root_of_unity_powers(p: int) -> np.ndarray:
    """[omega^0, ..., omega^(p-1)] computed from exact angles 2 pi l / p."""
    return np.exp(2j * np.pi * np.arange(p) / p)


@dataclass(frozen=True, eq=False, repr=False)
class StepFunction:
    """A complex function on [0,1) constant on the p^level cells of one level.

    values[c] is the value on cell c; the Haar integral is the mean
    p^-level * sum(values).
    """

    p: int
    level: int
    values: np.ndarray

    def __post_init__(self) -> None:
        check_base_level(self.p, self.level)
        arr = np.ascontiguousarray(self.values, dtype=np.complex128)
        if arr.shape != (self.p**self.level,):
            raise LevelMismatch(
                f"expected {self.p ** self.level} cell values, got shape {arr.shape}"
            )
        object.__setattr__(self, "values", arr)

    def integral(self) -> complex:
        return complex(self.values.sum() * self.p ** (-self.level))

    def __repr__(self) -> str:
        return f"StepFunction(p={self.p}, level={self.level}, cells={self.values.size})"


@dataclass(frozen=True, eq=False, repr=False)
class Spectrum:
    """Fourier coefficients of a step function, indexed by Paley index."""

    p: int
    level: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        check_base_level(self.p, self.level)
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (self.p**self.level,):
            raise LevelMismatch(
                f"expected {self.p ** self.level} coefficients, got shape {arr.shape}"
            )
        object.__setattr__(self, "coeffs", arr)

    def __repr__(self) -> str:
        return f"Spectrum(p={self.p}, level={self.level}, size={self.coeffs.size})"


def character_value(m: int, p: int, level: int, c: int) -> complex:
    """Value of the character with Paley index m on the level-`level` cell c.

    Multiplicative over the coordinate group: the value at x - z equals the
    value at x times the conjugate value at z.
    """
    check_cell(p, level, c)
    if m < 0:
        raise MalformedIndex(f"expected a natural number, got {m}")
    if m >= p**level:
        raise InsufficientLevel(f"index {m} needs more than {level} digits")
    cell_digits = to_digits(c, p, level)
    phase = 0
    for k, l in enumerate(to_digits(m, p, level)):
        phase += l * cell_digits[level - 1 - k]
    return complex(np.exp(2j * np.pi * (phase % p) / p))


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
    d = digit_matrix(np.arange(p**g), p, g)
    kernel = powers[(d @ d[:, ::-1].T) % p]
    if dtype.kind == "f":
        kernel = np.ascontiguousarray(kernel.real, dtype=dtype)
    kernel.flags.writeable = False
    return kernel


def _stage_buffer(buffers: dict | None, index: int, size: int, dtype: np.dtype) -> np.ndarray:
    """Stage buffer `index` (0 or 1) of `size` elements: a fresh array
    without `buffers`, else the dict's (dtype, index) buffer, grown to the
    largest size asked for. Reusing one across calls spares a fresh
    multi-MiB array per call, which is handed back to the OS when freed and
    page-faulted in again on the next call."""
    if buffers is None:
        return np.empty(size, dtype)
    buffer = buffers.get((dtype, index))
    if buffer is None or buffer.size < size:
        buffer = buffers[dtype, index] = np.empty(size, dtype)
    return buffer[:size]


def _tensor_dft(
    values: np.ndarray, p: int, level: int, sign: int, buffers: dict | None = None
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

    Real p=2 input runs the same stages with the exact +-1 table in its
    float dtype, float32 for float32 input and float64 for any other, and
    the loop returns that working dtype. A float32 result is exact when
    the input holds integers with sum |c| < 2^24: every partial sum of a
    +-1 stage is a signed sum of a subset of them. A real-dtype array is
    taken as real without a scan; a complex one is real when its imaginary
    part is all zero (-0.0 included).

    Every stage writes into one of two buffers from `_stage_buffer`, and
    `values` is never written. The result is one of them: with a
    `buffers` dict it stays valid only until that dict's next use (and
    `values` must not be such a result), without one it is a fresh array.
    """
    if p == 2 and (values.dtype.kind != "c" or not values.imag.any()):
        dtype = np.dtype(np.float32 if values.dtype == np.float32 else float)
        values = values.real
    else:
        dtype = np.dtype(complex)
    a = np.ascontiguousarray(values, dtype=dtype)
    if level == 0:
        return a.copy()
    width = 1
    while p ** (width + 1) <= _STAGE_CELLS:
        width += 1
    out = _stage_buffer(buffers, 0, a.size, a.dtype)
    j = 0
    while j < level:
        g = min(width, level - j)
        kernel = _stage_kernel(p, g, sign, a.dtype)
        rows = p ** (level - j - g)
        if j == 0:
            # The table is symmetric, so a^T K is the product already stored
            # as (R, p^g): BLAS reads the transpose in place.
            np.matmul(a.reshape(p**g, rows).T, kernel, out=out.reshape(rows, p**g))
            # The second buffer is taken only when another stage follows.
            a, out = out, _stage_buffer(buffers, 1, a.size, a.dtype) if level > g else None
        elif rows == 1 or p**j >= _STAGE_CELLS:
            # One GEMM per row block writes (R, p^g, p^j) in place.
            stacked = a.reshape(p**g, rows, p**j).transpose(1, 0, 2)
            np.matmul(kernel, stacked, out=out.reshape(rows, p**g, p**j))
            a, out = out, a
        else:
            # Blocks narrower than a stage make GEMMs too small to pay for
            # their calls: one GEMM into the free buffer, then a transposing
            # copy back into the buffer just read (j > 0, so not `values`).
            np.matmul(kernel, a.reshape(p**g, -1), out=out.reshape(p**g, -1))
            product = out.reshape(p**g, rows, p**j).transpose(1, 0, 2)
            np.copyto(a.reshape(rows, p**g, p**j), product)
        j += g
    return a.reshape(p**level)


def forward(f: StepFunction) -> Spectrum:
    """Fast transform: coeffs[m] = p^-L sum_c values[c] conj(character_m(c))."""
    coeffs = _tensor_dft(f.values, f.p, f.level, sign=-1) * f.p ** (-f.level)
    return Spectrum(f.p, f.level, coeffs)


def inverse(s: Spectrum) -> StepFunction:
    """Fast synthesis: values[c] = sum_m coeffs[m] character_m(c)."""
    values = _tensor_dft(s.coeffs, s.p, s.level, sign=+1)
    return StepFunction(s.p, s.level, values)


# Rows the reference oracles hold at once (`convolve_functions` rounds up to
# a power of p): at p^L = 2187 cells a 16-row block of the character table
# (0.8 MiB) stays in a 2 MiB L2 cache.
_REFERENCE_BLOCK_ROWS = 16


def _check_direct(p: int, level: int, what: str) -> None:
    if p**level > MAX_DIRECT_CELLS:
        raise GuardExceeded(f"{what} needs {p}^{level} squared entries, above the guard")


def _reference_digits(p: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Paley digit rows (p^L, L) and cell digit columns (L, p^L) as float64
    operands of the phase product: entry [m, c] is the phase sum
    sum_k l_k c_{k+1} of chi[m, c], an integer at most L (p-1)^2 < 2^53, so
    the float64 product is exact. Row k of the cell operand holds c_{k+1},
    which is digit L-1-k of the cell index read least significant first."""
    digits = digit_matrix(np.arange(p**level), p, level).astype(np.float64)
    return digits, np.ascontiguousarray(digits[:, ::-1].T)


def _phase_powers(p: int, level: int) -> np.ndarray:
    """omega^(s mod p) for every phase sum s in 0..L (p-1)^2, so indexing
    with a phase sum reduces it mod p."""
    return root_of_unity_powers(p)[np.arange(level * (p - 1) ** 2 + 1) % p]


def character_matrix(p: int, level: int) -> np.ndarray:
    """Full (p^L, p^L) table of character values chi[m, c]. Quadratic cost;
    guarded to small grids."""
    _check_direct(p, level, "character matrix")
    mdig, cdig_t = _reference_digits(p, level)
    return _phase_powers(p, level)[(mdig @ cdig_t).astype(np.intp)]


def naive_forward(f: StepFunction) -> Spectrum:
    """The defining double sum, kept as the reference for the fast path.

    Every character value comes from its own digit pairing. The table is
    built a block of rows at a time, so memory is O(block p^L), not O(p^2L).
    """
    p, level = f.p, f.level
    _check_direct(p, level, "naive transform")
    mdig, cdig_t = _reference_digits(p, level)
    conj_powers = np.conjugate(_phase_powers(p, level))
    size = p**level
    rows = min(size, _REFERENCE_BLOCK_ROWS)
    # Block buffers are reused: a fresh multi-MiB temporary per block is
    # handed back to the OS and page-faulted in again on every block.
    product = np.empty((rows, size))
    phase = np.empty((rows, size), dtype=np.intp)
    chi = np.empty((rows, size), dtype=np.complex128)
    coeffs = np.empty(size, dtype=np.complex128)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        block = slice(0, stop - start)
        np.matmul(mdig[start:stop], cdig_t, out=product[block])
        phase[block] = product[block]
        # Phase sums lie in 0..L (p-1)^2, the whole table, so "clip" never
        # clips; unlike the default "raise" it gathers without buffering.
        np.take(conj_powers, phase[block], out=chi[block], mode="clip")
        np.matmul(chi[block], f.values, out=coeffs[start:stop])
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

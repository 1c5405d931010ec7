"""Independent correctness oracles for the benchmark.

Nothing here imports pchaos. Each oracle is rebuilt from the conventions the
library documents (the digit pairing in ``transform.py``, the Paley index
n = sum l p^k, the per-trial PCG64 substreams in ``experiments.py``), so an
oracle and the code it checks share no implementation.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, product

import numpy as np


class OracleMismatch(AssertionError):
    """An output disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json_loads(text: str):
    """RFC 8259 parse: NaN, Infinity and -Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def strict_json_load(path: str):
    with open(path) as handle:
        return strict_json_loads(handle.read())


def character_phase(p: int, level: int, exponents) -> np.ndarray:
    """sum_k exponents[k] c_{k+1} mod p on every level-L cell, where c_j is
    the j-th fractional digit: cell index c = sum_j c_j p^(L-j). Digits are
    made one at a time, so no (p^L, L) digit table is held."""
    idx = np.arange(p**level, dtype=np.int64)
    phase = np.zeros(p**level, dtype=np.int64)
    for k, l in enumerate(exponents):
        if l:
            phase += int(l) * ((idx // p ** (level - 1 - k)) % p)
    return phase % p


def paley_index(ks, ls, p: int) -> int:
    """n = sum_i ls[i] p^ks[i]."""
    return sum(int(l) * p ** int(k) for k, l in zip(ks, ls))


def order_terms(p: int, d: int, N: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All order-d (positions, exponents) pairs with positions in 0..N,
    lexicographic in (positions, exponents)."""
    return [
        (ks, ls)
        for ks in combinations(range(N + 1), d)
        for ls in product(range(1, p), repeat=d)
    ]


def dense_forward_rows(values: np.ndarray, p: int, level: int, indices) -> np.ndarray:
    """Coefficients at the given Paley indices from the defining sum
    c_m = p^-L sum_c values[c] omega^(-sum_k l_k c_{k+1}), l_k = digit k of m."""
    out = np.empty(len(indices), dtype=np.complex128)
    for row, m in enumerate(indices):
        ls = [(int(m) // p**k) % p for k in range(level)]
        chi = np.exp(2j * np.pi * character_phase(p, level, ls) / p)
        out[row] = np.sum(values * np.conjugate(chi)) * p ** (-level)
    return out


def rademacher_eval(terms, coeffs, p: int, level: int) -> np.ndarray:
    """Values on every level-L cell of sum_t coeffs[t] prod_i R_{k_i}^{l_i},
    where R_k^l = omega^(l c_{k+1}); the empty product is the constant 1."""
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    values = np.zeros(p**level, dtype=np.complex128)
    for (ks, ls), c in zip(terms, coeffs):
        exponents = [0] * level
        for k, l in zip(ks, ls):
            exponents[k] = l
        values += c * roots[character_phase(p, level, exponents)]
    return values


def trial_coefficients(seed: int, N: int, trial: int, count: int, ensemble: str) -> np.ndarray:
    """The coefficients a study draws for one trial: a PCG64 substream keyed
    by SeedSequence(entropy=seed, spawn_key=(N, trial))."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(N, trial)))
    )
    if ensemble == "signs":
        return (rng.integers(0, 2, size=count) * 2 - 1).astype(np.complex128)
    return np.exp(2j * np.pi * rng.random(count))


def check_l1_ratio(l1_ratio: float, terms: int, what: str) -> None:
    """1 <= l1/linf <= sqrt(terms): linf <= l1 by the triangle inequality and
    linf >= l2 >= l1/sqrt(terms) by Parseval and Cauchy-Schwarz."""
    slack = 1e-9
    require(
        1.0 - slack <= l1_ratio <= math.sqrt(terms) * (1.0 + slack),
        f"{what}: l1 ratio {l1_ratio!r} outside [1, sqrt({terms})]",
    )


def selftest() -> None:
    """Run every oracle on cases known by hand."""
    for p, level in ((2, 3), (3, 2), (5, 2), (16, 1)):
        roots = np.exp(2j * np.pi * np.arange(p) / p)
        m = p**level - 1
        ls = [(m // p**k) % p for k in range(level)]
        character = roots[character_phase(p, level, ls)]
        coeffs = dense_forward_rows(character, p, level, range(p**level))
        unit = np.zeros(p**level)
        unit[m] = 1.0
        require(
            np.abs(coeffs - unit).max() < 1e-12,
            f"a single character at p={p} does not transform to a unit vector",
        )
    one = rademacher_eval([((), ())], [1.0], 3, 2)
    require(float(np.abs(one).max()) == 1.0, "the constant 1 does not have sup-norm 1")
    r0 = rademacher_eval([((0,), (1,))], [1.0], 2, 2)
    require(np.array_equal(r0.real, [1.0, 1.0, -1.0, -1.0]), "R_0 misread at p=2")
    require(paley_index((0, 2), (1, 2), 3) == 19, "Paley index of R_0 R_2^2 at p=3")
    require(len(order_terms(3, 2, 3)) == 6 * 4, "order-2 term count at p=3, N=3")
    for bad in ("[NaN]", "[Infinity]", "[-Infinity]"):
        try:
            strict_json_loads(bad)
        except ValueError:
            continue
        raise OracleMismatch(f"strict JSON parse accepted {bad}")

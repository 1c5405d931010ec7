"""Seeded randomized studies and the grid verification suite.

Determinism contract: every trial draws from its own PCG64 substream keyed
by SeedSequence(entropy=seed, spawn_key=(N, trial)), so statistics do not
depend on execution order or worker count and identical configurations
reproduce identical rows. `trial_rng` defines that substream. A study row
draws its trials as one block through `_substreams.block_draw`, which
reimplements the trial's part of numpy's SeedSequence pool hash and its
`generate_state`, and the `integers(0, 2)` and `random()` mappings of
`draw_coefficients`, so that it builds no SeedSequence or Generator per
trial (numpy seeds each trial's PCG64 from the words computed for it);
numpy's own Generator remains the reference the tests hold it to, byte for
byte. Wall time is reported at the report level only, outside the
reproducible rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import baselines
from ._substreams import ENSEMBLES, _check_ensemble, block_draw
from .config import (
    CHARACTER_TOL,
    CONSTRUCTION_TOL,
    EXACT_RATIO_TOL,
    EXACT_TRANSFORM_TOL,
    LEMMA1_PATTERN_TOL,
    MASS_TOL,
    MAX_DIRECT_CELLS,
    TRANSFORM_TOL,
    check_cell_guard,
    check_int,
    check_order,
)
from .errors import ChaosError
from .padic import (
    check_chaos_order,
    digit_matrix,
    exponent_match,
    group_sub,
    term_indices,
)
from .transform import (
    StepFunction,
    character_value,
    convolve,
    convolve_functions,
    forward,
    inverse,
    naive_forward,
)
from .measures import (
    _lemma1_base_spectrum,
    _riesz_block,
    _riesz_mass,
    lemma1_measure,
    lemma1_pattern_residual,
    lemma2_measure,
    lemma2_pattern_residual,
    rho_y_measure,
    selector_nodes,
)
from .chaos import (
    ChaosPolynomial,
    _row_norms,
    convolve_with_measure,
    decomposition_residual,
    linf_norm,
    polynomial_spectrum,
    project_order,
)


def _check_seed(seed: int) -> None:
    """Refuse a seed that SeedSequence would reject: it must be >= 0."""
    if seed < 0:
        raise ChaosError(f"seed must be >= 0, got {seed}")


def _int_values(name: str, values, check: Callable[..., int] | None = None) -> tuple[int, ...]:
    """`values` as a tuple of ints, refused when empty or when an entry
    fails `check` (by default `check_int`)."""
    values = tuple(values)
    if not values:
        raise ChaosError(f"{name} must not be empty")
    if check is None:
        return tuple(check_int(value, f"{name} must hold integers") for value in values)
    return tuple(check(value) for value in values)


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent substream for one trial, keyed by (seed, *key)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
    )


def draw_coefficients(rng: np.random.Generator, count: int, ensemble: str) -> np.ndarray:
    _check_ensemble(ensemble)
    if ensemble == "signs":
        return (rng.integers(0, 2, size=count) * 2 - 1).astype(np.complex128)
    return np.exp(2j * np.pi * rng.random(count))


def random_chaos(
    p: int, d: int, N: int, rng: np.random.Generator, ensemble: str = "signs"
) -> ChaosPolynomial:
    """Polynomial with coefficients drawn over the full order-d index set."""
    indices = term_indices(p, d, N)
    coeffs = draw_coefficients(rng, len(indices), ensemble)
    return ChaosPolynomial.from_indices(p, N, indices, coeffs)


@dataclass(frozen=True)
class ExperimentConfig:
    p: int
    d: int
    N_values: tuple[int, ...]
    trials: int
    seed: int
    ensemble: str = "signs"

    def __post_init__(self) -> None:
        for name in ("p", "trials", "seed"):
            value = check_int(getattr(self, name), f"{name} must be an integer")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "d", check_order(self.d))
        _check_ensemble(self.ensemble)
        if self.trials < 1:
            raise ChaosError(f"trial count must be >= 1, got {self.trials}")
        if self.trials > 2**32:  # a trial index is one 32-bit seed word
            raise ChaosError(f"trial count must be <= 2^32, got {self.trials}")
        _check_seed(self.seed)
        object.__setattr__(self, "N_values", _int_values("N_values", self.N_values))
        if len(set(self.N_values)) != len(self.N_values):
            raise ChaosError(f"top positions must be distinct, got {list(self.N_values)}")
        for N in self.N_values:  # each grid point as verify_suite checks it
            check_chaos_order(self.p, self.d, N)
            check_cell_guard(self.p, N + 1)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "N_values": list(self.N_values),
            "trials": self.trials,
            "seed": self.seed,
            "ensemble": self.ensemble,
        }


@dataclass(frozen=True)
class ExperimentRow:
    """Statistics of one (p, d, N) grid point; reproducible from (config, seed)."""

    p: int
    d: int
    N: int
    ensemble: str
    trials: int
    seed: int
    q: float
    median_l1_ratio: float
    max_l1_ratio: float
    median_lq_ratio: float
    max_lq_ratio: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    rows: list[ExperimentRow] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "rows": [row.to_dict() for row in self.rows],
            "failures": list(self.failures),
            "meta": dict(self.meta),
            "passed": self.passed,
        }


def _row(cfg: ExperimentConfig, N: int) -> tuple[ExperimentRow, np.ndarray, int, dict]:
    """Ratio statistics over cfg.trials polynomials on the order-d index
    set, the (2 x trials) l1 and lq ratios they reduce, the term count, and
    the seconds spent drawing (`draw_s`) and in the sup-norm core
    (`synthesis_s`). term_indices lists the index set in the canonical term
    order, validated once, so trial t's draws are row t of the block that
    one `block_draw` gives, and one `_row_norms` call takes every norm."""
    indices = term_indices(cfg.p, cfg.d, N)
    terms = ChaosPolynomial.from_indices(cfg.p, N, indices, np.zeros(indices.size))
    q = terms.sidon_exponent
    start = time.perf_counter()
    draw = block_draw(cfg.seed, N, indices.size, cfg.ensemble)
    setup_s = time.perf_counter() - start
    sups, _, norms, draw_s, synthesis_s = _row_norms(terms, draw, cfg.trials, (1.0, q))
    ratios = norms / sups
    stats = [float(reduce(r)) for r in ratios for reduce in (np.median, np.max)]
    row = ExperimentRow(cfg.p, cfg.d, N, cfg.ensemble, cfg.trials, cfg.seed, q, *stats)
    return row, ratios, indices.size, {"draw_s": setup_s + draw_s, "synthesis_s": synthesis_s}


def _run_study(
    kind: str,
    cfg: ExperimentConfig,
    verdicts: Callable[..., list[str]] | None = None,
) -> ExperimentReport:
    """One row per N, then the failures of `verdicts(cfg, report, ratios)`,
    ratios holding each row's (2 x trials) l1 and lq ratio arrays, then
    the baseline comparison.

    meta["row_wall_s"] gives each row's wall time, its time in the block
    draw (`draw_s`) and inside the sup-norm core (`synthesis_s`), with its
    problem size; timing never enters the rows."""
    start = time.perf_counter()
    report = ExperimentReport(kind=kind, config=cfg.to_dict())
    row_wall_s: list[dict] = []
    report.meta["row_wall_s"] = row_wall_s
    ratios = []
    for N in sorted(cfg.N_values):
        row_start = time.perf_counter()
        row, row_ratios, terms, timings = _row(cfg, N)
        report.rows.append(row)
        ratios.append(row_ratios)
        row_wall_s.append({
            "N": N,
            "cells": cfg.p ** (N + 1),
            "terms": terms,
            "trials": cfg.trials,
            "wall_s": time.perf_counter() - row_start,
            **timings,
        })
    if verdicts is not None:
        report.failures.extend(verdicts(cfg, report, ratios))
    report.failures.extend(check_against_baselines(report))
    report.meta["wall_time_s"] = time.perf_counter() - start
    return report


def random_ensemble_study(cfg: ExperimentConfig) -> ExperimentReport:
    """Ratio statistics per N."""
    return _run_study("ensemble", cfg)


_TREND_Z = 1.645  # the one-sided 5% point of the standard normal


def _trend_z(samples: Sequence[np.ndarray]) -> float:
    """The Jonckheere-Terpstra z of an increasing trend along `samples`: J
    counts the pairs (a earlier, b later) with a < b, a tie as 1/2, against
    its no-trend mean and variance (normal approximation, no tie
    correction). Each later sample is sorted once and binary-searched for
    every earlier value, so no pairwise table is built."""
    sizes = np.array([len(x) for x in samples], dtype=np.float64)
    total, J = sizes.sum(), 0.0
    for i in range(1, len(samples)):
        later, earlier = np.sort(samples[i]), np.concatenate(samples[:i])
        above = np.searchsorted(later, earlier, "right")
        ties = above - np.searchsorted(later, earlier)
        J += float((later.size - above).sum() + ties.sum() / 2)
    mean = (total**2 - (sizes**2).sum()) / 4
    var = (total**2 * (2 * total + 3) - (sizes**2 * (2 * sizes + 3)).sum()) / 72
    return (J - mean) / math.sqrt(var)


def _growth_verdicts(
    cfg: ExperimentConfig, report: ExperimentReport, ratios: list[np.ndarray]
) -> list[str]:
    """The l1 verdict fails when the medians do not rise strictly and
    `_trend_z` finds no rise either. Each test alone fails correct code: the
    chain most seeds of many close rows, the trend test a third of two-row
    studies (N = 4, 6 with 40 trials)."""
    failures = []
    l1_medians = [row.median_l1_ratio for row in report.rows]
    lq_medians = [row.median_lq_ratio for row in report.rows]
    rising = all(a < b for a, b in zip(l1_medians, l1_medians[1:]))
    if cfg.d >= 2 and not rising and (z := _trend_z([r[0] for r in ratios])) <= _TREND_Z:
        failures.append(
            f"l1-growth: medians {l1_medians} are not strictly increasing and the "
            f"Jonckheere-Terpstra z = {z:.2f} <= {_TREND_Z} (one-sided 5% level)"
        )
    if lq_medians:
        band = max(lq_medians) / min(lq_medians)
        report.meta["lq_band_ratio"] = band
        if band > 2.0:
            failures.append(f"lq-median-band: max/min = {band:.4f} exceeds 2")
    return failures


def growth_study(cfg: ExperimentConfig) -> ExperimentReport:
    """For d >= 2 the l1 ratios must grow in N (strictly rising medians, or
    a Jonckheere-Terpstra trend at the one-sided 5% level) while the 2d/(d+1)
    medians stay inside a factor-2 band. Violations are reported, never
    dropped."""
    report = _run_study("growth", cfg, _growth_verdicts)
    report.meta["thresholds"] = {
        "l1_growth": "strictly increasing medians, or a one-sided Jonckheere-Terpstra "
        f"trend in the per-trial ratios, z > {_TREND_Z} (5% level); d >= 2",
        "lq_band": "max/min of medians <= 2",
    }
    return report


def check_against_baselines(report: ExperimentReport) -> list[str]:
    """Compare report rows against frozen regression baselines (5% drift)."""
    failures = []
    for row in report.rows:
        key = (row.ensemble, row.p, row.d, row.N, row.trials, row.seed)
        recorded = baselines.RATIO_BASELINES.get(key)
        if recorded is None:
            continue
        for name, value in (
            ("median_l1_ratio", row.median_l1_ratio),
            ("median_lq_ratio", row.median_lq_ratio),
            ("max_lq_ratio", row.max_lq_ratio),
        ):
            expected = recorded[name]
            drift = abs(value - expected) / expected
            if drift > baselines.MAX_DRIFT:
                failures.append(
                    f"baseline-drift: {name} at {key} drifted {drift:.2%} "
                    f"({value:.6g} vs {expected:.6g})"
                )
        cap = recorded["max_lq_ratio"] * (1.0 + baselines.MAX_DRIFT)
        if row.max_lq_ratio > cap:
            failures.append(
                f"baseline-cap: max_lq_ratio at {key} exceeds recorded cap "
                f"({row.max_lq_ratio:.6g} > {cap:.6g})"
            )
    return failures


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Worst residual of one check; residual is None when the check raised."""

    name: str
    residual: float | None
    tolerance: float
    passed: bool
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SuiteReport:
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> list[str]:
        return [check.name for check in self.checks if not check.passed]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "checks": [check.to_dict() for check in self.checks],
            "meta": dict(self.meta),
            "passed": self.passed,
        }


def _scaled(diff: float, reference: float) -> float:
    return float(diff) / max(1.0, float(reference))


def _fit_level(p: int, target_cells: int) -> int:
    level = 1
    while p ** (level + 1) <= target_cells:
        level += 1
    return level


def _random_step_function(p: int, level: int, rng: np.random.Generator) -> StepFunction:
    values = rng.standard_normal(p**level) + 1j * rng.standard_normal(p**level)
    return StepFunction(p, level, values)


def verify_suite(
    p_values: Sequence[int],
    d_values: Sequence[int],
    N: int,
    seed: int = 0,
) -> SuiteReport:
    """Run every module invariant over the (p, d) grid at top position N.

    Each check contributes one named entry with its worst residual and the
    fixed tolerance it was held to. Before any check, N and the seed must
    be integers, the seed non-negative, p_values a non-empty list of
    integers and d_values of orders, and every (p, d) pair must pass the
    library's own guards, as a study's grid point does, on the order-d
    index set over positions 0..N, then on the level-(N+1) cell grid.
    meta["check_wall_s"] and meta["check_sizes"] give each check's wall
    time, the cases it evaluated and the largest grid they touched, in
    cells (p^level from the case's context, level N+1 where it names none);
    neither enters `checks`.
    """
    N = check_int(N, "N must be an integer")
    seed = check_int(seed, "seed must be an integer")
    _check_seed(seed)
    p_values = sorted(set(_int_values("p_values", p_values)))
    d_values = sorted(set(_int_values("d_values", d_values, check_order)))
    report = SuiteReport(
        config={"p_values": p_values, "d_values": d_values, "N": N, "seed": seed}
    )
    start = time.perf_counter()
    check_wall_s: dict[str, float] = {}
    check_sizes: dict[str, dict] = {}
    report.meta["check_wall_s"] = check_wall_s
    report.meta["check_sizes"] = check_sizes
    level = N + 1
    grid = [(p, d) for p in p_values for d in d_values]
    for p, d in grid:
        check_chaos_order(p, d, N)
        check_cell_guard(p, level)

    def run(name: str, tolerance: float, cases, where: dict | None = None) -> None:
        """Record the first strict maximum of the (residual, context) pairs
        that `cases()` yields; `where` is the context while none exceeds 0."""
        check_start = time.perf_counter()
        worst, where = 0.0, where or {}
        sizes = check_sizes[name] = {"cases": 0, "max_cells": 0}
        try:
            for residual, context in cases():
                sizes["cases"] += 1
                cells = context["p"] ** context.get("level", level)
                sizes["max_cells"] = max(sizes["max_cells"], cells)
                if residual > worst:
                    worst, where = residual, context
        except ChaosError as exc:
            result = CheckResult(name, None, tolerance, False, {"error": str(exc)})
        else:
            worst = float(worst)  # a numpy residual would make the verdict a numpy bool
            result = CheckResult(name, worst, tolerance, worst <= tolerance, where)
        check_wall_s[name] = time.perf_counter() - check_start
        report.checks.append(result)

    # --- transform layer, per base ------------------------------------
    def transform_roundtrip():
        for p in p_values:
            L = _fit_level(p, 4096)
            f = _random_step_function(p, L, trial_rng(seed, 1, p))
            back = inverse(forward(f))
            residual = _scaled(np.abs(back.values - f.values).max(), np.abs(f.values).max())
            yield residual, {"p": p, "level": L}

    def parseval():
        for p in p_values:
            L = _fit_level(p, 4096)
            f = _random_step_function(p, L, trial_rng(seed, 2, p))
            s = forward(f)
            lhs = float((np.abs(f.values) ** 2).sum() * p ** (-L))
            rhs = float((np.abs(s.coeffs) ** 2).sum())
            yield _scaled(abs(lhs - rhs), lhs), {"p": p, "level": L}

    def fast_vs_naive():
        for p in p_values:
            L = 1
            while p**L <= MAX_DIRECT_CELLS:
                f = _random_step_function(p, L, trial_rng(seed, 3, p, L))
                fast = forward(f).coeffs
                ref = naive_forward(f).coeffs
                yield _scaled(np.abs(fast - ref).max(), np.abs(ref).max()), {"p": p, "level": L}
                L += 1

    def convolution_theorem():
        for p in p_values:
            L = _fit_level(p, 729)
            rng = trial_rng(seed, 4, p)
            f = _random_step_function(p, L, rng)
            g = _random_step_function(p, L, rng)
            via_spectra = convolve(forward(f), forward(g))
            direct = forward(convolve_functions(f, g)).coeffs
            residual = _scaled(np.abs(via_spectra.coeffs - direct).max(), np.abs(direct).max())
            yield residual, {"p": p, "level": L}

    def character_multiplicativity():
        for p in p_values:
            L = min(N + 1, _fit_level(p, 4096))
            rng = trial_rng(seed, 5, p)
            size = p**L
            for _ in range(20):
                m = int(rng.integers(0, size))
                x = int(rng.integers(0, size))
                z = int(rng.integers(0, size))
                lhs = character_value(m, p, L, group_sub(p, L, x, z))
                rhs = character_value(m, p, L, x) * np.conjugate(character_value(m, p, L, z))
                yield abs(lhs - rhs), {"p": p, "m": m, "level": L}

    run("transform-roundtrip", TRANSFORM_TOL, transform_roundtrip)
    run("parseval", TRANSFORM_TOL, parseval)
    run("fast-vs-naive", EXACT_TRANSFORM_TOL, fast_vs_naive)
    run("convolution-theorem", EXACT_TRANSFORM_TOL, convolution_theorem)
    run("character-multiplicativity", CHARACTER_TOL, character_multiplicativity)

    # --- Riesz product mass, per base ----------------------------------
    def riesz_mass():
        # ten densities per base, drawn in order and built as one block;
        # each row's integral, variation and minimum, as `pchaos riesz`
        # checks them
        for p in p_values:
            L = _fit_level(p, 4096)
            rng = trial_rng(seed, 6, p)
            a, j = [], []
            for _ in range(10):
                a.append((rng.random(L) * np.exp(2j * np.pi * rng.random(L))).tolist())
                j.append(rng.integers(1, p, size=L).tolist())
            integrals, variations, minima = _riesz_mass(_riesz_block(p, L, a, j), p, L)
            worst = np.maximum(np.abs(integrals - 1.0), np.abs(variations - 1.0))
            for residual in np.maximum(worst, -minima).tolist():
                yield residual, {"p": p, "level": L}

    run("riesz-mass", MASS_TOL, riesz_mass)

    # --- shaped measures over the (p, d) grid ---------------------------
    # Three checks share the lemma2 measures (45 uses of 18 on the README
    # grid): each is built once per call and read-only, so no check can
    # change what a later one reads.
    lemma2_measures = {}

    def lemma2(p: int, d: int, s: int):
        if (p, d, s) not in lemma2_measures:
            nu = lemma2_measure(p, d, s, level)
            nu.spectrum.coeffs.flags.writeable = False
            lemma2_measures[p, d, s] = nu
        return lemma2_measures[p, d, s]

    def lemma1_pattern():
        for p, d in grid:
            rng = trial_rng(seed, 7, p, d)
            for _ in range(2):
                J = [int(x) for x in rng.integers(1, p, size=level)]
                nu = lemma1_measure(p, d, J, level)
                matched, mismatched = lemma1_pattern_residual(nu, d, J, N)
                yield max(matched, mismatched), {"p": p, "d": d, "J": J}

    def lemma1_membership():
        for p, d in grid:
            rng = trial_rng(seed, 8, p, d)
            J = [int(x) for x in rng.integers(1, p, size=level)]
            rho_hat = _lemma1_base_spectrum(p, d, J, level)
            values = rho_hat.coeffs[term_indices(p, d, N)]
            alphabet, _ = selector_nodes(d)
            residual = float(np.abs(values[:, None] - alphabet).min(axis=1).max())
            yield residual, {"p": p, "d": d}

    def lemma2_pattern():
        for p, d in grid:
            for s in range(1, d + 1):
                nu = lemma2(p, d, s)
                kept, killed = lemma2_pattern_residual(nu, d, s, N)
                yield max(kept, killed), {"p": p, "d": d, "s": s}

    def rho_y_scaling():
        for p, d in grid:
            rng = trial_rng(seed, 9, p, d)
            J = [int(x) for x in rng.integers(1, p, size=level)]
            signs = [int(x) for x in rng.integers(0, 2, size=level) * 2 - 1]
            rho = rho_y_measure(p, J, signs, level)
            indices = term_indices(p, d, N)
            matched = indices[exponent_match(indices, p, J)]
            coeffs = draw_coefficients(rng, len(matched), "unimodular")
            Q = ChaosPolynomial.from_indices(p, N, matched, coeffs)
            out = convolve_with_measure(Q, rho)
            used = digit_matrix(matched, p, level) != 0
            scale = np.prod(np.where(used, signs, 1), axis=1) / 2.0**d
            expected = np.zeros_like(out.coeffs)
            expected[matched] = coeffs * scale
            yield float(np.abs(out.coeffs - expected).max()), {"p": p, "d": d}

    def decomposition():
        for p, d in grid:
            Q = random_chaos(p, d, N, trial_rng(seed, 10, p, d), "unimodular")
            yield decomposition_residual(Q), {"p": p, "d": d}

    def young_bound():
        for p, d in grid:
            rng = trial_rng(seed, 11, p, d)
            J = [int(x) for x in rng.integers(1, p, size=level)]
            Q = random_chaos(p, d, N, rng, "unimodular")
            sup, _ = linf_norm(Q)
            for nu in (
                lemma1_measure(p, d, J, level),
                lemma2(p, d, max(1, d - 1) if d > 1 else 1),
            ):
                convolved = inverse(convolve_with_measure(Q, nu))
                out_sup = float(np.abs(convolved.values).max())
                yield max(0.0, out_sup - nu.variation * sup), {"p": p, "d": d}

    def order_projection():
        for p, d in grid:
            rng = trial_rng(seed, 12, p, d)
            indices = np.concatenate([term_indices(p, s, N) for s in range(1, d + 1)])
            pairs = rng.standard_normal((len(indices), 2))
            Q = ChaosPolynomial.from_indices(p, N, indices, pairs[:, 0] + 1j * pairs[:, 1])
            sup, _ = linf_norm(Q)
            for s in range(1, d + 1):
                part = project_order(Q, s)
                nu = lemma2(p, d, s)
                route = convolve_with_measure(Q, nu)
                direct = polynomial_spectrum(part, level)
                residual = float(np.abs(route.coeffs - direct.coeffs).max())
                part_sup, _ = linf_norm(part)
                residual = max(residual, max(0.0, part_sup - nu.variation * sup))
                yield residual, {"p": p, "d": d, "s": s}

    run("lemma1-pattern", LEMMA1_PATTERN_TOL, lemma1_pattern)
    run("lemma1-membership", CONSTRUCTION_TOL, lemma1_membership)
    run("lemma2-pattern", CONSTRUCTION_TOL, lemma2_pattern)
    run("rho-y-scaling", TRANSFORM_TOL, rho_y_scaling)
    run("decomposition", TRANSFORM_TOL, decomposition)
    run("young-bound", CONSTRUCTION_TOL, young_bound)
    run("order-projection", CONSTRUCTION_TOL, order_projection)

    # --- the exact first-order case -------------------------------------
    if 2 in p_values and 1 in d_values:

        def sidon_exact_d1():
            # ten polynomials on the order-1 terms, drawn in order as one block
            indices = term_indices(2, 1, N)
            terms = ChaosPolynomial.from_indices(2, N, indices, np.zeros(indices.size))
            block = trial_rng(seed, 13).standard_normal((10, indices.size))
            sups, _, norms, _, _ = _row_norms(terms, lambda rows: block[rows], 10, (None,))
            for ratio in (norms[0] / sups).tolist():
                yield abs(ratio - 1.0), {"p": 2, "d": 1}

        run("sidon-exact-d1", EXACT_RATIO_TOL, sidon_exact_d1, where={"p": 2, "d": 1})

    report.meta["wall_time_s"] = time.perf_counter() - start
    return report

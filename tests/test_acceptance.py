"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s` or in
captured output). Criteria with stated runtime expectations assert them.

Run:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from pchaos import (
    ChaosPolynomial,
    ChaosTerm,
    ExperimentConfig,
    StepFunction,
    convolve_with_measure,
    decomposition_residual,
    forward,
    growth_study,
    inverse,
    lemma1_measure,
    lemma1_pattern_residual,
    lemma2_measure,
    lemma2_pattern_residual,
    lemma2_polynomial,
    linf_norm,
    naive_forward,
    paley_encode,
    polynomial_spectrum,
    project_order,
    random_chaos,
    rho_y_measure,
    riesz_density,
    sidon_ratio,
    trial_rng,
)

from oracles import chaos_terms

LEMMA1_GRID = [(p, d) for p in (2, 3, 4, 5) for d in (1, 2, 3)]
LEMMA1_N = 6
LEMMA1_SEQUENCES = 5


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def lemma1_grid_measures():
    """The criterion-1 measures, shared with the Young-bound criterion."""
    measures = {}
    for p, d in LEMMA1_GRID:
        rng = trial_rng(1, p, d)
        for i in range(LEMMA1_SEQUENCES):
            J = [int(x) for x in rng.integers(1, p, size=LEMMA1_N + 1)]
            measures[(p, d, i)] = (J, lemma1_measure(p, d, J, LEMMA1_N + 1))
    return measures


def test_criterion_1_lemma1_pattern(lemma1_grid_measures):
    start = time.perf_counter()
    worst = 0.0
    for (p, d, _), (J, nu) in lemma1_grid_measures.items():
        matched, mismatched = lemma1_pattern_residual(nu, d, J, LEMMA1_N)
        worst = max(worst, matched, mismatched)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report(
        1,
        "lemma1 pattern on {2,3,4,5}x{1,2,3}",
        ok,
        f"(max residual {worst:.3e}, tol 1e-06, {elapsed:.1f}s)",
    )


def test_criterion_2_lemma2_pattern():
    worst = 0.0
    for p in (2, 3, 5):
        for d in (2, 3):
            for s in range(1, d + 1):
                nu = lemma2_measure(p, d, s, LEMMA1_N + 1)
                kept, killed = lemma2_pattern_residual(nu, d, s, LEMMA1_N)
                worst = max(worst, kept, killed)
    hand = np.abs(lemma2_polynomial(2, 2, 1) - np.array([0.0, -2.0, 8.0])).max()
    ok = worst <= 1e-8 and hand <= 1e-12
    report(
        2,
        "lemma2 pattern and hand-derived polynomial",
        ok,
        f"(pattern {worst:.3e} tol 1e-08, polynomial {hand:.3e} tol 1e-12)",
    )


def test_criterion_3_riesz_mass():
    levels = {2: 8, 3: 6, 5: 5}
    worst = 0.0
    for p, level in levels.items():
        rng = trial_rng(3, p)
        for _ in range(100):
            a = rng.random(level) * np.exp(2j * np.pi * rng.random(level))
            j = rng.integers(1, p, size=level)
            density = riesz_density(p, level, a, j)
            worst = max(
                worst,
                float(max(0.0, -density.values.real.min())),
                abs(density.integral() - 1.0),
                abs(float(np.abs(density.values).sum() * p**-level) - 1.0),
            )
    ok = worst <= 1e-12
    report(3, "Riesz product mass identities", ok, f"(max residual {worst:.3e}, tol 1e-12)")


def test_criterion_4_transform_correctness():
    start = time.perf_counter()
    worst_large = 0.0
    for p, level in ((2, 20), (3, 12)):
        rng = trial_rng(4, p)
        size = p**level
        f = StepFunction(p, level, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        s = forward(f)
        back = inverse(s)
        scale = float(np.abs(f.values).max())
        worst_large = max(worst_large, float(np.abs(back.values - f.values).max()) / scale)
        lhs = float((np.abs(f.values) ** 2).sum() * p**-level)
        rhs = float((np.abs(s.coeffs) ** 2).sum())
        worst_large = max(worst_large, abs(lhs - rhs) / lhs)
    worst_naive = 0.0
    for p in range(2, 17):
        level = 1
        while p**level <= 3**7:
            rng = trial_rng(4, p, level)
            size = p**level
            f = StepFunction(
                p, level, rng.standard_normal(size) + 1j * rng.standard_normal(size)
            )
            fast = forward(f).coeffs
            ref = naive_forward(f).coeffs
            worst_naive = max(
                worst_naive,
                float(np.abs(fast - ref).max()) / float(np.abs(ref).max()),
            )
            level += 1
    elapsed = time.perf_counter() - start
    ok = worst_large <= 1e-10 and worst_naive <= 1e-12 and elapsed < 60.0
    report(
        4,
        "transform round trip, Parseval, fast vs naive",
        ok,
        f"(large {worst_large:.3e} tol 1e-10, naive {worst_naive:.3e} tol 1e-12, {elapsed:.1f}s)",
    )


def test_criterion_5_decomposition_identity():
    worst = 0.0
    for d in (1, 2):
        for N in range(d, 5):
            for trial in range(10):
                Q = random_chaos(3, d, N, trial_rng(5, d, N, trial), "unimodular")
                worst = max(worst, decomposition_residual(Q))
    ok = worst <= 1e-10
    report(5, "exponent-averaging decomposition", ok, f"(max residual {worst:.3e}, tol 1e-10)")


def test_criterion_6_scaling_identity():
    worst = 0.0
    N, level = 5, 6
    for p in (2, 3):
        for d in (1, 2):
            rng = trial_rng(6, p, d)
            J = [int(x) for x in rng.integers(1, p, size=level)]
            matched = [
                t for t in chaos_terms(p, d, N)
                if all(l == J[k] for k, l in zip(t.ks, t.ls))
            ]
            for _ in range(10):
                signs = [int(x) for x in rng.integers(0, 2, size=level) * 2 - 1]
                coeffs = rng.standard_normal(len(matched)) + 1j * rng.standard_normal(
                    len(matched)
                )
                Q = ChaosPolynomial(p, N, dict(zip(matched, coeffs)))
                rho = rho_y_measure(p, J, signs, level)
                out = convolve_with_measure(Q, rho)
                expected = np.zeros_like(out.coeffs)
                for t, c in Q.coeffs.items():
                    scale = np.prod([signs[k] for k in t.ks]) / 2.0**d
                    expected[paley_encode(t, p)] = c * scale
                worst = max(worst, float(np.abs(out.coeffs - expected).max()))
    ok = worst <= 1e-10
    report(6, "sign-scaling convolution identity", ok, f"(max residual {worst:.3e}, tol 1e-10)")


def test_criterion_7_young_bound(lemma1_grid_measures):
    worst = 0.0
    for (p, d, i), (J, nu) in lemma1_grid_measures.items():
        Q = random_chaos(p, d, LEMMA1_N, trial_rng(7, p, d, i), "unimodular")
        sup, _ = linf_norm(Q)
        convolved_sup = float(np.abs(inverse(convolve_with_measure(Q, nu)).values).max())
        worst = max(worst, convolved_sup - nu.variation * sup)
    ok = worst <= 1e-8
    report(
        7,
        "Young bound for every grid measure",
        ok,
        f"(max excess {worst:.3e}, tol 1e-08)",
    )


def test_criterion_8_exact_first_order_ratio():
    worst = 0.0
    terms = chaos_terms(2, 1, 10)
    for trial in range(100):
        rng = trial_rng(8, trial)
        coeffs = rng.standard_normal(len(terms))
        Q = ChaosPolynomial(2, 10, dict(zip(terms, coeffs)))
        worst = max(worst, abs(sidon_ratio(Q) - 1.0))
    ok = worst <= 1e-12
    report(8, "exact first-order ratio at p=2", ok, f"(max |ratio-1| {worst:.3e}, tol 1e-12)")


def test_criterion_9_sharpness_indicator():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        p=2, d=2, N_values=(4, 6, 8, 10), trials=200, seed=42, ensemble="signs"
    )
    rep = growth_study(cfg)
    medians = [row.median_l1_ratio for row in rep.rows]
    band = rep.meta["lq_band_ratio"]
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 300.0
    report(
        9,
        "l1 growth with bounded 4/3-ratio band",
        ok,
        f"(medians {[round(m, 4) for m in medians]}, band {band:.3f} <= 2, "
        f"{elapsed:.1f}s{'' if rep.passed else '; ' + '; '.join(rep.failures)})",
    )


def test_criterion_10_order_projections():
    worst_route = 0.0
    worst_bound = 0.0
    for p in (2, 3):
        for d in (1, 2, 3):
            N, level = 4, 5
            rng = trial_rng(10, p, d)
            coeffs = {}
            for s in range(1, d + 1):
                for term in chaos_terms(p, s, N):
                    coeffs[term] = complex(rng.standard_normal(), rng.standard_normal())
            Q = ChaosPolynomial(p, N, coeffs)
            sup, _ = linf_norm(Q)
            for s in range(1, d + 1):
                part = project_order(Q, s)
                nu = lemma2_measure(p, d, s, level)
                route = convolve_with_measure(Q, nu)
                direct = polynomial_spectrum(part, level)
                worst_route = max(
                    worst_route, float(np.abs(route.coeffs - direct.coeffs).max())
                )
                worst_bound = max(
                    worst_bound, linf_norm(part)[0] - nu.variation * sup
                )
    ok = worst_route <= 1e-8 and worst_bound <= 1e-8
    report(
        10,
        "mixed-order projections and norm bound",
        ok,
        f"(route {worst_route:.3e}, bound excess {worst_bound:.3e}, tol 1e-08)",
    )

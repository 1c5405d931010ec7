"""Studies, determinism, baselines and the verification suite."""

import math

import numpy as np
import pytest

from pchaos import (
    ExperimentConfig,
    MeasureRep,
    Spectrum,
    growth_study,
    lemma1_measure,
    random_ensemble_study,
    verify_suite,
)
from pchaos import experiments
from pchaos.baselines import LEMMA1_C1_BOUND


def test_exact_first_order_ratios():
    cfg = ExperimentConfig(p=2, d=1, N_values=(6,), trials=25, seed=3)
    report = random_ensemble_study(cfg)
    (row,) = report.rows
    assert row.median_l1_ratio == pytest.approx(1.0, abs=1e-12)
    assert row.max_l1_ratio == pytest.approx(1.0, abs=1e-12)
    assert row.median_lq_ratio == pytest.approx(1.0, abs=1e-12)


def test_zero_trials_empty_report():
    cfg = ExperimentConfig(p=2, d=2, N_values=(4,), trials=0, seed=0)
    report = random_ensemble_study(cfg)
    assert report.rows == [] and report.passed


def test_pinned_rows():
    # Row values recorded before polynomials became index arrays; a change
    # in term order or in the trial substreams shows up as inequality.
    ensemble = random_ensemble_study(
        ExperimentConfig(p=3, d=3, N_values=(3, 4), trials=5, seed=11, ensemble="unimodular")
    )
    assert [r.to_dict() for r in ensemble.rows] == [
        {"p": 3, "d": 3, "N": 3, "trials": 5, "seed": 11, "ensemble": "unimodular",
         "q": 1.5, "median_l1_ratio": 2.459652273676698, "max_l1_ratio": 3.020920331621907,
         "median_lq_ratio": 0.7747419187567641, "max_lq_ratio": 0.9515302789664603},
        {"p": 3, "d": 3, "N": 4, "trials": 5, "seed": 11, "ensemble": "unimodular",
         "q": 1.5, "median_l1_ratio": 3.780352172066397, "max_l1_ratio": 4.372787543231334,
         "median_lq_ratio": 0.87734202144936, "max_lq_ratio": 1.0148340916211809},
    ]
    growth = growth_study(ExperimentConfig(p=2, d=2, N_values=(5,), trials=7, seed=3))
    assert [r.to_dict() for r in growth.rows] == [
        {"p": 2, "d": 2, "N": 5, "trials": 7, "seed": 3, "ensemble": "signs",
         "q": 1.3333333333333333, "median_l1_ratio": 1.6666666666666667,
         "max_l1_ratio": 2.142857142857143, "median_lq_ratio": 0.8468879135910246,
         "max_lq_ratio": 1.088855888902746},
    ]
    # A row at study-deep size (8192 cells), recorded before real p=2 input
    # took the add/sub butterfly path.
    deep = growth_study(ExperimentConfig(p=2, d=2, N_values=(12,), trials=4, seed=3))
    assert [r.to_dict() for r in deep.rows] == [
        {"p": 2, "d": 2, "N": 12, "trials": 4, "seed": 3, "ensemble": "signs",
         "q": 1.3333333333333333, "median_l1_ratio": 2.51875,
         "max_l1_ratio": 2.7857142857142856, "median_lq_ratio": 0.8475423589119069,
         "max_lq_ratio": 0.9373740375062564},
    ]


def test_determinism():
    cfg = ExperimentConfig(p=3, d=2, N_values=(3, 4), trials=20, seed=11)
    a = random_ensemble_study(cfg)
    b = random_ensemble_study(cfg)
    assert [r.to_dict() for r in a.rows] == [r.to_dict() for r in b.rows]


def test_growth_study_monotone():
    cfg = ExperimentConfig(p=2, d=2, N_values=(4, 6, 8), trials=60, seed=42)
    report = growth_study(cfg)
    medians = [row.median_l1_ratio for row in report.rows]
    assert medians == sorted(medians)
    assert report.meta["lq_band_ratio"] <= 2.0
    assert report.passed, report.failures


def test_growth_first_order_constant():
    cfg = ExperimentConfig(p=2, d=1, N_values=(4, 6, 8), trials=20, seed=5)
    report = growth_study(cfg)
    for row in report.rows:
        assert row.median_l1_ratio == pytest.approx(1.0, abs=1e-12)
        assert row.median_lq_ratio == pytest.approx(1.0, abs=1e-12)
    assert report.passed


def test_baseline_regression_p3():
    cfg = ExperimentConfig(p=3, d=2, N_values=(3, 5, 7), trials=100, seed=42)
    report = growth_study(cfg)
    assert report.passed, report.failures
    assert report.meta["lq_band_ratio"] <= 2.0


def test_c1_bound_baselines_match():
    from pchaos import lemma1_system

    for d, expected in LEMMA1_C1_BOUND.items():
        value = float(np.abs(lemma1_system(d).coefficients).sum())
        assert value == pytest.approx(expected, rel=1e-12)


class TestVerifySuite:
    def test_default_small_grid_passes(self):
        report = verify_suite([2, 3], [1, 2], N=4, seed=1)
        assert report.passed, report.failures()
        names = {check.name for check in report.checks}
        assert {
            "transform-roundtrip",
            "parseval",
            "fast-vs-naive",
            "convolution-theorem",
            "character-multiplicativity",
            "riesz-mass",
            "lemma1-pattern",
            "lemma1-membership",
            "lemma2-pattern",
            "rho-y-scaling",
            "decomposition",
            "young-bound",
            "order-projection",
            "sidon-exact-d1",
        } <= names
        for check in report.checks:
            assert check.residual <= check.tolerance

    def test_empty_grid(self):
        report = verify_suite([], [1], N=4)
        assert report.checks == [] and report.passed
        assert report.meta["check_wall_s"] == {}

    def test_check_wall_times_stay_out_of_checks(self):
        a = verify_suite([2, 3], [1, 2], N=3, seed=2)
        b = verify_suite([2, 3], [1, 2], N=3, seed=2)
        assert [c.to_dict() for c in a.checks] == [c.to_dict() for c in b.checks]
        wall = a.meta["check_wall_s"]
        assert list(wall) == [c.name for c in a.checks]
        assert all(math.isfinite(t) and t >= 0.0 for t in wall.values())

    def test_corrupted_lemma1_yields_named_failure(self, monkeypatch):
        def corrupted(p, d, J, level, max_cells=None):
            nu = lemma1_measure(p, d, J, level, max_cells)
            coeffs = nu.spectrum.coeffs.copy()
            coeffs[1] += 0.25  # index 1 is always a matched or mismatched order-1..d index
            return MeasureRep(
                Spectrum(p, level, coeffs), nu.variation, nu.provenance
            )

        monkeypatch.setattr(experiments, "lemma1_measure", corrupted)
        report = verify_suite([3], [1], N=3, seed=1)
        assert not report.passed
        assert "lemma1-pattern" in report.failures()

    def test_report_dict_shape(self):
        report = verify_suite([2], [1], N=3, seed=0)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert all(
            {"name", "residual", "tolerance", "passed"} <= set(c) for c in payload["checks"]
        )

    def test_pinned_checks(self):
        # Residuals and contexts recorded before the checks shared one
        # worst-case reducer: each check keeps its first strict maximum,
        # {} when no residual exceeds 0, and sidon-exact-d1 its fixed context.
        checks = [c.to_dict() for c in verify_suite((2, 3), (1, 2), 3, seed=0).checks]
        expected = [
            ("transform-roundtrip", 7.65505744940984e-16, 1e-10, {"p": 3, "level": 7}),
            ("parseval", 3.3614182700908125e-16, 1e-10, {"p": 3, "level": 7}),
            ("fast-vs-naive", 5.117875266520903e-16, 1e-12, {"p": 3, "level": 2}),
            ("convolution-theorem", 2.4655053005362233e-17, 1e-12, {"p": 3, "level": 6}),
            ("character-multiplicativity", 8.95090418262362e-16, 1e-14, {"p": 3, "m": 15}),
            ("riesz-mass", 4.440892098500626e-16, 1e-12, {"p": 2, "level": 12}),
            ("lemma1-pattern", 1.6613700224990385e-14, 1e-06, {"p": 2, "d": 2, "J": [1, 1, 1, 1]}),
            ("lemma1-membership", 4.726604209672303e-16, 1e-08, {"p": 3, "d": 2}),
            ("lemma2-pattern", 4.276944685006693e-15, 1e-08, {"p": 3, "d": 2, "s": 2}),
            ("rho-y-scaling", 2.7755575615628914e-16, 1e-10, {"p": 3, "d": 1}),
            ("decomposition", 0.0, 1e-10, {}),
            ("young-bound", 0.0, 1e-08, {}),
            ("order-projection", 3.7390821300777245e-15, 1e-08, {"p": 3, "d": 2, "s": 2}),
            ("sidon-exact-d1", 2.220446049250313e-16, 1e-12, {"p": 2, "d": 1}),
        ]
        assert checks == [
            {"name": name, "residual": residual, "tolerance": tol, "passed": True, "context": ctx}
            for name, residual, tol, ctx in expected
        ]

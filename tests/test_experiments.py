"""Studies, determinism, baselines and the verification suite."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from pchaos import (
    ChaosError,
    ChaosPolynomial,
    DegenerateInput,
    EmptyIndexSet,
    ExperimentConfig,
    GuardExceeded,
    InvalidOrder,
    MalformedIndex,
    MeasureRep,
    NonFiniteValue,
    Spectrum,
    growth_study,
    lemma1_measure,
    lemma2_measure,
    linf_norm,
    random_ensemble_study,
    riesz_density,
    term_indices,
    verify_suite,
)
from pchaos import chaos, config, experiments
from pchaos.measures import _riesz_block, selector_nodes
from pchaos.baselines import LEMMA1_C1_BOUND


def test_exact_first_order_ratios():
    cfg = ExperimentConfig(p=2, d=1, N_values=(6,), trials=25, seed=3)
    report = random_ensemble_study(cfg)
    (row,) = report.rows
    assert row.median_l1_ratio == pytest.approx(1.0, abs=1e-12)
    assert row.max_l1_ratio == pytest.approx(1.0, abs=1e-12)
    assert row.median_lq_ratio == pytest.approx(1.0, abs=1e-12)


def test_zero_trials_refused():
    # a study over no trials would report a pass over nothing
    for trials in (0, -1):
        with pytest.raises(ChaosError, match=f"trial count must be >= 1, got {trials}"):
            ExperimentConfig(p=2, d=2, N_values=(4,), trials=trials, seed=0)


def test_trials_past_2_to_the_32_refused():
    # a trial index is one 32-bit word of its substream key; no row is drawn here
    assert ExperimentConfig(p=2, d=2, N_values=(4,), trials=2**32, seed=0).trials == 2**32
    with pytest.raises(ChaosError, match=r"trial count must be <= 2\^32, got 4294967297"):
        ExperimentConfig(p=2, d=2, N_values=(4,), trials=2**32 + 1, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-inf-j"])
def test_a_non_finite_draw_is_refused_before_the_sup_norm(bad, monkeypatch):
    # the row's coefficient block is checked once, before any synthesis;
    # here the third trial of the block draw holds the bad value
    block_draw, cores = experiments.block_draw, []

    def spoiled(*args):
        draw = block_draw(*args)

        def spoiled_draw(trials):
            block = draw(trials)
            block[2, block.shape[1] // 2] = bad
            return block

        return spoiled_draw

    monkeypatch.setattr(experiments, "block_draw", spoiled)
    monkeypatch.setattr(chaos, "_row_sups", lambda *args: cores.append(args))
    with pytest.raises(NonFiniteValue):
        random_ensemble_study(ExperimentConfig(p=3, d=2, N_values=(4,), trials=5, seed=1))
    assert cores == []


def test_pinned_rows():
    # Row values recorded before polynomials became index arrays; a change
    # in term order or in the trial substreams shows up as inequality. The
    # p=3 N=4 medians were re-recorded when the complex transform took the
    # Stockham layout (each moved by 2 ulps), and every p=3 value that moved
    # again (by 1-2 ulps) when its stages came to contract several digits.
    ensemble = random_ensemble_study(
        ExperimentConfig(p=3, d=3, N_values=(3, 4), trials=5, seed=11, ensemble="unimodular")
    )
    assert [r.to_dict() for r in ensemble.rows] == [
        {"p": 3, "d": 3, "N": 3, "trials": 5, "seed": 11, "ensemble": "unimodular",
         "q": 1.5, "median_l1_ratio": 2.459652273676698, "max_l1_ratio": 3.0209203316219075,
         "median_lq_ratio": 0.7747419187567641, "max_lq_ratio": 0.9515302789664605},
        {"p": 3, "d": 3, "N": 4, "trials": 5, "seed": 11, "ensemble": "unimodular",
         "q": 1.5, "median_l1_ratio": 3.780352172066397, "max_l1_ratio": 4.372787543231335,
         "median_lq_ratio": 0.87734202144936, "max_lq_ratio": 1.014834091621181},
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


@pytest.mark.parametrize(
    "N_values, seed, message",
    [((4, 6), -1, "seed must be >= 0, got -1"), ((4, 6, 4), 1, r"distinct, got \[4, 6, 4\]")],
    ids=["negative-seed", "repeated-N"],
)
def test_config_refuses_a_negative_seed_or_a_repeated_N(N_values, seed, message):
    with pytest.raises(ChaosError, match=message):
        ExperimentConfig(p=2, d=2, N_values=N_values, trials=3, seed=seed)


@pytest.mark.parametrize(
    "N_values, message",
    [
        ((), "N_values must not be empty"),
        ((4.7, 5), "N_values must hold integers, got 4.7"),
        ((4, True), "N_values must hold integers, got True"),
        (("4",), "N_values must hold integers, got '4'"),
    ],
    ids=["empty", "float", "bool", "str"],
)
def test_config_refuses_N_values_that_are_empty_or_not_integers(N_values, message):
    with pytest.raises(ChaosError, match=message):
        ExperimentConfig(p=2, d=2, N_values=N_values, trials=3, seed=0)
    # the negative-seed check still comes first
    with pytest.raises(ChaosError, match="seed must be >= 0"):
        ExperimentConfig(p=2, d=2, N_values=N_values, trials=3, seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [("d", True), ("trials", True), ("p", 2.0), ("trials", 3.0), ("seed", 0.5), ("seed", -1.5)],
    ids=["bool-d", "bool-trials", "float-p", "float-trials", "float-seed", "negative-float-seed"],
)
def test_config_refuses_scalars_that_are_not_integers(field, value):
    # bools ran as d=1 and one trial, floats ended in a TypeError; the type
    # check comes before the seed's sign check
    fields = {"p": 2, "d": 2, "N_values": (4,), "trials": 3, "seed": 0, field: value}
    rule = "order" if field == "d" else field
    with pytest.raises(ChaosError, match=f"{rule} must be an integer, got {value!r}"):
        ExperimentConfig(**fields)


def test_config_keeps_numpy_integers_as_ints():
    cfg = ExperimentConfig(p=2, d=2, N_values=np.arange(4, 6), trials=3, seed=0)
    assert cfg.N_values == (4, 5) and all(type(N) is int for N in cfg.N_values)
    cfg = ExperimentConfig(
        p=np.int64(2), d=np.int32(2), N_values=(4,), trials=np.uint8(3), seed=np.int16(0)
    )
    assert cfg.to_dict() == ExperimentConfig(p=2, d=2, N_values=(4,), trials=3, seed=0).to_dict()
    assert all(type(getattr(cfg, name)) is int for name in ("p", "d", "trials", "seed"))


@pytest.mark.parametrize(
    "ensemble, p, d, N_values, trials",
    [("signs", 2, 2, (6, 9), 7), ("unimodular", 3, 2, (4, 5), 5), ("signs", 2, 3, (7,), 4)],
)
def test_rows_do_not_depend_on_the_chunk_bound(monkeypatch, ensemble, p, d, N_values, trials):
    cfg = ExperimentConfig(p=p, d=d, N_values=N_values, trials=trials, seed=5, ensemble=ensemble)
    blocks = []
    row_sups = chaos._row_sups
    monkeypatch.setattr(
        chaos, "_row_sups", lambda Q, block: blocks.append(len(block)) or row_sups(Q, block)
    )
    whole = [r.to_dict() for r in growth_study(cfg).rows]
    assert blocks == [trials] * len(N_values)
    blocks.clear()
    monkeypatch.setattr(chaos, "_CHUNK_BYTES", 1)
    assert [r.to_dict() for r in growth_study(cfg).rows] == whole
    assert blocks == [1] * trials * len(N_values)


def test_row_memory_does_not_grow_with_trials():
    # 8,008 terms: one trial's coefficients take 125 KiB, so 400 trials in
    # one block would take about 49 MiB
    def peak(trials):
        cfg = ExperimentConfig(p=2, d=6, N_values=(15,), trials=trials, seed=0)
        tracemalloc.start()
        try:
            random_ensemble_study(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) <= 2 * peak(4)


def test_study_blocks_run_in_one_dtype_per_call(monkeypatch):
    # the largest p=2 order-d index set the guards admit has C(24, 12)
    # terms, so a +-1 row sums below 2^24 in absolute value: float32
    assert math.comb(config.MAX_LEVEL, config.MAX_LEVEL // 2) < 2**24
    row_sups, tensor_dft, calls = chaos._row_sups, chaos._tensor_dft, []

    def spy(Q, block):
        calls.append(set())
        return row_sups(Q, block)

    def stage_loop(values, p, level, **kwargs):
        calls[-1].add(values.dtype)
        return tensor_dft(values, p, level, **kwargs)

    monkeypatch.setattr(chaos, "_row_sups", spy)
    monkeypatch.setattr(chaos, "_tensor_dft", stage_loop)
    for ensemble, p, d, N_values, dtype in [
        ("signs", 2, 2, (6, 9), np.float32),
        ("signs", 2, 3, (7,), np.float32),
        ("unimodular", 2, 2, (6,), np.complex128),
        ("signs", 3, 2, (4, 5), np.complex128),
        ("unimodular", 3, 2, (4,), np.complex128),
    ]:
        calls.clear()
        cfg = ExperimentConfig(p=p, d=d, N_values=N_values, trials=5, seed=1, ensemble=ensemble)
        growth_study(cfg)
        assert calls == [{np.dtype(dtype)}] * len(N_values)


def test_row_wall_times_stay_out_of_rows():
    cfg = ExperimentConfig(p=3, d=2, N_values=(4, 3), trials=4, seed=2)
    first, second = random_ensemble_study(cfg), growth_study(cfg)
    assert [r.to_dict() for r in first.rows] == [r.to_dict() for r in second.rows]
    for report in (first, second):
        timings = report.meta["row_wall_s"]
        sizes = [{k: v for k, v in t.items() if not k.endswith("_s")} for t in timings]
        assert sizes == [
            {"N": N, "cells": 3 ** (N + 1), "terms": len(term_indices(3, 2, N)), "trials": 4}
            for N in (3, 4)
        ]
        assert all(
            set(t) - set(s) == {"wall_s", "draw_s", "synthesis_s"} for t, s in zip(timings, sizes)
        )
        assert all(0 < t["draw_s"] and 0 < t["synthesis_s"] for t in timings)
        assert all(t["draw_s"] + t["synthesis_s"] < t["wall_s"] for t in timings)
        keys = [key for row in report.rows for key in row.to_dict()]
        assert not any(word in key for key in keys for word in ("wall", "draw", "synthesis"))
    assert first.meta["row_wall_s"] is not second.meta["row_wall_s"]
    # no study runs on zero trials, so there is no empty row_wall_s
    with pytest.raises(ChaosError, match="trial count must be >= 1"):
        ExperimentConfig(p=2, d=2, N_values=(4,), trials=0, seed=0)


@pytest.mark.parametrize(
    "ensemble, p, N_values, trials",
    [
        *(
            pytest.param(ensemble, p, (2, 3), 9, id=f"{ensemble}-{p}")
            for p in (2, 3, 5)
            for ensemble in experiments.ENSEMBLES
        ),
        # the float32 half grid at study-deep size, and a complex p=3 row
        pytest.param("signs", 2, (11, 12), 3, id="signs-2-N11-12"),
        pytest.param("unimodular", 3, (6,), 3, id="unimodular-3-N6"),
    ],
)
def test_row_matches_trial_by_trial_recomputation(ensemble, p, N_values, trials):
    # A row validates its index set once and takes every trial's draws as
    # one coefficient block; every statistic must be bit-equal to
    # polynomials built and validated one per trial, here from a shuffled
    # term order, and normed one at a time.
    d, seed = 2, 7
    cfg = ExperimentConfig(p=p, d=d, N_values=N_values, trials=trials, seed=seed, ensemble=ensemble)
    q = 2 * d / (d + 1)
    for row in random_ensemble_study(cfg).rows:
        indices = term_indices(p, d, row.N)
        shuffle = np.random.default_rng(row.N).permutation(indices.size)
        l1, lq = [], []
        for t in range(trials):
            rng = experiments.trial_rng(seed, row.N, t)
            coeffs = experiments.draw_coefficients(rng, indices.size, ensemble)
            Q = ChaosPolynomial.from_indices(p, row.N, indices[shuffle], coeffs[shuffle])
            sup, _ = linf_norm(Q)
            l1.append(chaos._row_lq_norms(Q.values[None], 1.0)[0] / sup)
            lq.append(chaos._row_lq_norms(Q.values[None], q)[0] / sup)
        assert (row.median_l1_ratio, row.max_l1_ratio, row.median_lq_ratio, row.max_lq_ratio) == (
            float(np.median(l1)), float(np.max(l1)), float(np.median(lq)), float(np.max(lq))
        )


def test_growth_study_monotone():
    cfg = ExperimentConfig(p=2, d=2, N_values=(4, 6, 8), trials=60, seed=42)
    report = growth_study(cfg)
    medians = [row.median_l1_ratio for row in report.rows]
    assert medians == sorted(medians)
    assert report.meta["lq_band_ratio"] <= 2.0
    assert report.passed, report.failures


def test_trend_z_counts_every_pair_once():
    # the pairwise definition: a later value above an earlier one counts 1,
    # a tie 1/2, against the null mean and variance of J
    rng = np.random.default_rng(4)
    samples = [rng.integers(0, 6, size) / 2 for size in (7, 1, 12, 5)]
    J = sum(
        float(np.sum((b[None, :] > a[:, None]) + 0.5 * (b[None, :] == a[:, None])))
        for i, a in enumerate(samples)
        for b in samples[i + 1:]
    )
    n = np.array([len(x) for x in samples])
    mean = (n.sum() ** 2 - (n**2).sum()) / 4
    var = (n.sum() ** 2 * (2 * n.sum() + 3) - (n**2 * (2 * n + 3)).sum()) / 72
    assert experiments._trend_z(samples) == pytest.approx((J - mean) / math.sqrt(var), rel=1e-14)
    assert experiments._trend_z([np.arange(4.0), np.arange(4.0) + 4]) > 0
    assert experiments._trend_z([np.arange(4.0) + 4, np.arange(4.0)]) < 0


def _l1_failures(seeds, cfg):
    return [s for s in seeds if any(f.startswith("l1-growth") for f in growth_study(cfg(s)).failures)]


def test_growth_verdict_rates_at_the_deep_study(monkeypatch):
    """At p=2, d=2, N=12..16 with 12 trials the strict median chain failed 49
    of seeds 0-59 on correct code; the verdict fails seed 35 alone (z=1.38).
    With the l1 ratios replaced by the 2d/(d+1) ratios, which do not grow,
    it fails 57 of the 60."""
    def cfg(seed):
        return ExperimentConfig(p=2, d=2, N_values=tuple(range(12, 17)), trials=12, seed=seed)

    assert _l1_failures(range(60), cfg) == [35]
    norms = chaos._row_lq_norms
    monkeypatch.setattr(
        chaos, "_row_lq_norms", lambda block, q: norms(block, 4 / 3 if q == 1.0 else q)
    )
    assert len(_l1_failures(range(60), cfg)) == 57


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
    # the l1 norm of the exponent selector's monomial coefficients, expanded
    # here as the sum over the target-1 nodes of polyfromroots(other
    # nodes) / below_i; pchaos reads P only at the letters of its alphabet
    for d, expected in LEMMA1_C1_BOUND.items():
        nodes, targets = selector_nodes(d)
        coeffs = sum(
            npoly.polyfromroots(np.delete(nodes, i)) / np.prod(nodes[i] - np.delete(nodes, i))
            for i in np.flatnonzero(targets)
        )
        assert float(np.abs(coeffs).sum()) == pytest.approx(expected, rel=1e-12)


class TestVerifySuite:
    def test_checks_stay_inside_the_admitted_grid(self, monkeypatch):
        # with the cap at p^(N+1) itself, no check meets the guard again
        monkeypatch.setattr(config, "MAX_CELLS", 3**8)
        report = verify_suite([3], [1, 2], N=7, seed=1)
        assert report.passed
        assert max(s["max_cells"] for s in report.meta["check_sizes"].values()) == 3**8

    def test_selector_orders_up_to_the_cap_pass(self):
        # orders 4..6 were refused by a residual gate on the selector's float
        # monomial coefficients, so lemma1-pattern and young-bound errored
        report = verify_suite([2, 3, 5], [4, 5, 6], N=6, seed=1)
        assert report.passed, report.failures()
        for check in report.checks:
            assert check.residual <= check.tolerance

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

    def test_empty_grid(self, monkeypatch):
        # a suite over no (p, d) pair would pass over nothing: refused
        draws = []
        monkeypatch.setattr(experiments, "trial_rng", lambda *key: draws.append(key))
        for p_values, d_values in (([], [1]), ([2], []), ([], [])):
            with pytest.raises(ChaosError, match="must not be empty"):
                verify_suite(p_values, d_values, N=4)
        assert draws == []

    @pytest.mark.parametrize(
        "p_values, d_values, bad", [([2.9], [1], "2.9"), ([2], [1.5], "1.5"), ([True], [1], "True")]
    )
    def test_refuses_values_that_are_not_integers(self, p_values, d_values, bad):
        # int() would run p=2, d=1 in their place; an order is refused as
        # every entry point refuses one
        rule = "p_values must hold integers" if d_values == [1] else "order must be an integer"
        with pytest.raises(ChaosError, match=f"{rule}, got {bad}"):
            verify_suite(p_values, d_values, N=3)

    @pytest.mark.parametrize(
        "N, seed, bad", [(True, 0, "N must be an integer, got True"), (3.0, 0, "N must be an integer"),
                         (3, 1.0, "seed must be an integer"), (3, -0.5, "seed must be an integer")]
    )
    def test_refuses_N_or_seed_that_are_not_integers(self, monkeypatch, N, seed, bad):
        # N=True ran as N=1
        draws = []
        monkeypatch.setattr(experiments, "trial_rng", lambda *key: draws.append(key))
        with pytest.raises(ChaosError, match=bad):
            verify_suite([2], [1], N=N, seed=seed)
        assert draws == []

    @pytest.mark.parametrize(
        "d_values, N, error",
        [
            ([0, 1], 2, InvalidOrder),
            ([1], -1, MalformedIndex),
            ([1, 3], 1, EmptyIndexSet),
            ([1, 7], 7, GuardExceeded),
        ],
        ids=["d0", "N-1", "d-above-N+1", "d-above-selector-cap"],
    )
    def test_refuses_bad_order_or_top_position(self, monkeypatch, d_values, N, error):
        draws = []
        monkeypatch.setattr(experiments, "trial_rng", lambda *key: draws.append(key))
        with pytest.raises(error):
            verify_suite([2], d_values, N=N)
        assert draws == []  # refused before any check

    @pytest.mark.parametrize("p_values", [[2], []])
    def test_refuses_a_negative_seed_first(self, monkeypatch, p_values):
        draws = []
        monkeypatch.setattr(experiments, "trial_rng", lambda *key: draws.append(key))
        with pytest.raises(ChaosError, match="seed must be >= 0, got -1"):
            verify_suite(p_values, [1], N=2, seed=-1)
        assert draws == []

    def test_order_on_every_position_runs(self):
        # d = N+1: one position combination, so every shaped check has cases
        report = verify_suite([2, 3], [2], N=1)
        assert report.passed, report.failures()
        assert report.meta["check_sizes"]["lemma1-pattern"]["cases"] > 0
        assert report.meta["check_sizes"]["decomposition"]["cases"] == 2

    def test_decomposition_that_raises_fails_with_the_error(self, monkeypatch):
        def refuse(Q):
            raise DegenerateInput("refused in the decomposition check")

        monkeypatch.setattr(experiments, "decomposition_residual", refuse)
        report = verify_suite([3], [1], N=3)
        (check,) = [c for c in report.checks if c.name == "decomposition"]
        assert check.residual is None and not check.passed
        assert check.context["error"] == "refused in the decomposition check"
        assert report.failures() == ["decomposition"]

    def test_check_wall_times_stay_out_of_checks(self):
        a = verify_suite([2, 3], [1, 2], N=3, seed=2)
        b = verify_suite([2, 3], [1, 2], N=3, seed=2)
        assert [c.to_dict() for c in a.checks] == [c.to_dict() for c in b.checks]
        wall = a.meta["check_wall_s"]
        assert list(wall) == [c.name for c in a.checks]
        assert all(math.isfinite(t) and t >= 0.0 for t in wall.values())
        assert list(a.meta["check_sizes"]) == list(wall)
        assert not any({"cases", "max_cells"} & set(c.context) for c in a.checks)

    def test_check_sizes(self):
        # N=3: level 4 where a case names no level of its own
        sizes = verify_suite([2, 3], [1, 2], N=3, seed=2).meta["check_sizes"]
        assert sizes["fast-vs-naive"] == {"cases": 11 + 7, "max_cells": 3**7}
        assert sizes["transform-roundtrip"] == {"cases": 2, "max_cells": 2**12}
        assert sizes["character-multiplicativity"] == {"cases": 40, "max_cells": 3**4}
        assert sizes["lemma2-pattern"] == {"cases": 1 + 2 + 1 + 2, "max_cells": 3**4}
        assert sizes["sidon-exact-d1"] == {"cases": 10, "max_cells": 2**4}
        # N+1 = 8 exceeds the level 7 that fits 4096 cells at p=3, so the
        # characters run on 3^7 cells, not on the 3^8 the fallback would give
        sizes = verify_suite([3], [1], N=7, seed=2).meta["check_sizes"]
        assert sizes["character-multiplicativity"] == {"cases": 20, "max_cells": 3**7}
        assert sizes["lemma1-pattern"]["max_cells"] == 3**8

    def test_corrupted_lemma1_yields_named_failure(self, monkeypatch):
        def corrupted(p, d, J, level):
            nu = lemma1_measure(p, d, J, level)
            coeffs = nu.spectrum.coeffs.copy()
            coeffs[1] += 0.25  # index 1 is always a matched or mismatched order-1..d index
            return MeasureRep(
                Spectrum(p, level, coeffs), nu.variation, nu.provenance
            )

        monkeypatch.setattr(experiments, "lemma1_measure", corrupted)
        report = verify_suite([3], [1], N=3, seed=1)
        assert not report.passed
        assert "lemma1-pattern" in report.failures()

    def test_riesz_mass_rows_are_single_densities(self, monkeypatch):
        # one real block per base; every row is riesz_density's density bit
        # for bit, with zero imaginary parts, and the check's residual is the
        # worst of the per-density reductions of its integral, minimum and
        # variation
        blocks = []

        def recorded(p, level, a, j):
            values = _riesz_block(p, level, a, j)
            blocks.append((p, level, a.copy(), j.copy(), values))
            return values

        monkeypatch.setattr(experiments, "_riesz_block", recorded)
        report = verify_suite([2, 3, 5], [1], N=2, seed=3)
        assert [(p, level, len(a)) for p, level, a, _, _ in blocks] == [
            (2, 12, 10), (3, 7, 10), (5, 5, 10)
        ]
        worst, where = 0.0, {}
        for p, level, a, j, values in blocks:
            for r in range(len(a)):
                density = riesz_density(p, level, list(a[r]), list(j[r]))
                real = np.ascontiguousarray(density.values.real)
                assert values[r].tobytes() == real.tobytes()
                assert not density.values.imag.any()
                residual = max(
                    abs(float(real.sum() * p**-level) - 1.0),
                    float(max(0.0, -real.min())),
                    abs(float(np.abs(real).sum() * p**-level) - 1.0),
                )
                if residual > worst:
                    worst, where = residual, {"p": p, "level": level}
        check = next(c for c in report.checks if c.name == "riesz-mass")
        assert (check.residual, check.context) == (worst, where)

    def test_each_lemma2_measure_is_built_once_per_call(self, monkeypatch):
        # lemma2-pattern, young-bound and order-projection use 15 measures
        # of 6 on this grid; each is built once per call and is read-only
        built = []

        def counted(p, d, s, level):
            nu = lemma2_measure(p, d, s, level)
            built.append(((p, d, s), nu))
            return nu

        monkeypatch.setattr(experiments, "lemma2_measure", counted)
        for _ in range(2):
            built.clear()
            assert verify_suite([2], [1, 2, 3], N=3, seed=0).passed
            keys = sorted(key for key, _ in built)
            assert keys == [(2, d, s) for d in (1, 2, 3) for s in range(1, d + 1)]
            assert not any(nu.spectrum.coeffs.flags.writeable for _, nu in built)

    def test_report_dumps_with_the_standard_encoder(self):
        # a numpy float residual made the verdict a numpy bool, which the
        # standard json encoder refuses
        report = verify_suite((3,), (1,), 3)
        assert all(type(check.passed) is bool for check in report.checks)
        assert json.loads(json.dumps(report.to_dict()))["passed"] is True

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
        # transform-roundtrip and convolution-theorem were re-recorded when
        # the complex transform took the Stockham layout, and every residual
        # that moved when the stages came to contract several digits at once.
        # lemma2-pattern and order-projection read 0.0 with context {} since
        # each lemma2 coefficient is the exact value of its chaos order, and
        # lemma1-pattern since lemma1 evaluates its selector's Lagrange form
        # (it was 1.6613700224990385e-14 at p=2, d=2, J=[1, 1, 1, 1]).
        # lemma1-membership was re-recorded when the Riesz factor tables came
        # to be taken in float64 (it was 4.163336342344337e-16).
        checks = [c.to_dict() for c in verify_suite((2, 3), (1, 2), 3, seed=0).checks]
        expected = [
            ("transform-roundtrip", 6.39546298579141e-16, 1e-10, {"p": 3, "level": 7}),
            ("parseval", 2.2184254304971438e-16, 1e-10, {"p": 2, "level": 12}),
            ("fast-vs-naive", 2.2357038141839077e-16, 1e-12, {"p": 2, "level": 4}),
            ("convolution-theorem", 1.1837184066238754e-17, 1e-12, {"p": 3, "level": 6}),
            ("character-multiplicativity", 8.95090418262362e-16, 1e-14, {"p": 3, "m": 15, "level": 4}),
            ("riesz-mass", 4.440892098500626e-16, 1e-12, {"p": 2, "level": 12}),
            ("lemma1-pattern", 0.0, 1e-06, {}),
            ("lemma1-membership", 4.049162102228955e-16, 1e-08, {"p": 3, "d": 2}),
            ("lemma2-pattern", 0.0, 1e-08, {}),
            ("rho-y-scaling", 2.8576114088871287e-16, 1e-10, {"p": 3, "d": 2}),
            ("decomposition", 0.0, 1e-10, {}),
            ("young-bound", 0.0, 1e-08, {}),
            ("order-projection", 0.0, 1e-08, {}),
            ("sidon-exact-d1", 0.0, 1e-12, {"p": 2, "d": 1}),
        ]
        assert checks == [
            {"name": name, "residual": residual, "tolerance": tol, "passed": True, "context": ctx}
            for name, residual, tol, ctx in expected
        ]

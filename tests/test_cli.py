"""CLI exit codes, file round trips, report artifacts and the documented
surface: the README's commands and the package's public names."""

import argparse
import inspect
import json
import os
import platform
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pchaos
from pchaos import Spectrum, StepFunction, chaos, cli, config, experiments, random_chaos
from pchaos import serialization as ser
from pchaos.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def run(*argv):
    return main([str(a) for a in argv])


def test_verify_small_grid(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("verify", "--p", "2,3", "--d", "1,2", "--N", "4", "--seed", "1", "--out", out) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["passed"] is True
    assert payload["config"]["p_values"] == [2, 3]
    assert any(c["name"] == "lemma1-pattern" for c in payload["checks"])


def test_verify_stdout_json(capsys):
    assert run("verify", "--p", "2", "--d", "1", "--N", "3", "--seed", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert set(payload["meta"]["check_wall_s"]) == {c["name"] for c in payload["checks"]}


def test_verify_check_that_raises_fails_with_report(tmp_path, capsys, monkeypatch):
    # one check's library call raises: that check fails with the error and
    # no residual, and the checks after it still run
    def refuse(Q):
        raise pchaos.DegenerateInput("refused in the decomposition check")

    monkeypatch.setattr(experiments, "decomposition_residual", refuse)
    out = tmp_path / "report.json"
    assert run("verify", "--p", "2", "--d", "2", "--N", "3", "--out", out) == 1
    payload = json.loads(Path(out).read_text())
    assert payload["passed"] is False
    errored = {c["name"]: c for c in payload["checks"] if c["residual"] is None}
    assert set(errored) == {"decomposition"}
    assert not errored["decomposition"]["passed"]
    assert errored["decomposition"]["context"]["error"] == "refused in the decomposition check"
    err = capsys.readouterr().err
    assert "[FAIL] decomposition: error: refused in the decomposition check" in err
    assert "[ok] young-bound: residual" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--p", "2", "--d", "0", "--N", "2"), "order must be at least 1, got 0"),
        (("--p", "2", "--d", "1", "--N", "-1"), "top position must be >= 0, got -1"),
        # order 3 needs three of the two positions 0..1
        (("--p", "3", "--d", "3", "--N", "1"), "order 3 exceeds the 2 available positions"),
    ],
    ids=["d0", "N-1", "d-above-N+1"],
)
def test_verify_refuses_bad_order_or_top_position(argv, message, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("verify", *argv, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_runs_at_order_7(tmp_path, capsys):
    # order 7 fits the positions and the cell guard, and the selector has
    # no order cap of its own: every check passes, and every order-7
    # lemma1 coefficient is its target exactly
    out = tmp_path / "report.json"
    assert run("verify", "--p", "2", "--d", "7", "--N", "7", "--seed", "1", "--out", out) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["passed"] is True
    residuals = {c["name"]: c["residual"] for c in payload["checks"]}
    assert residuals["lemma1-pattern"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "--p", "2", "--d", "2", "--N", "4,6"),
        ("ensemble", "--p", "2", "--d", "2", "--N", "4"),
        ("verify", "--p", "2", "--d", "1", "--N", "2"),
    ],
    ids=["growth", "ensemble", "verify"],
)
def test_negative_seed_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(*argv, "--seed", "-1", "--out", out) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_top_position_exits_2(tmp_path, capsys):
    # two identical rows can never grow strictly: refused, not reported as a failure
    out = tmp_path / "report.json"
    argv = ("growth", "--p", "2", "--d", "2", "--N", "4,4", "--trials", "3", "--seed", "1")
    assert run(*argv, "--out", out) == 2
    assert "error: top positions must be distinct, got [4, 4]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("growth", "--p", "2", "--d", "2", "--N", ",", "--trials", "3"), "N_values must not be empty"),
        (("verify", "--p", "", "--d", "1", "--N", "3"), "p_values must not be empty"),
        (("verify", "--p", "2", "--d", ",", "--N", "3"), "d_values must not be empty"),
    ],
    ids=["growth-N", "verify-p", "verify-d"],
)
def test_empty_grid_exits_2(argv, message, tmp_path, capsys):
    # a run over no grid point would report a pass over nothing
    out, csv_path = tmp_path / "report.json", tmp_path / "rows.csv"
    extra = ("--csv", csv_path) if argv[0] == "growth" else ()
    assert run(*argv, "--out", out, *extra) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == "" and not out.exists() and not csv_path.exists()


@pytest.mark.parametrize("command", ["growth", "ensemble"])
def test_zero_trials_exit_2(command, tmp_path, capsys):
    # a study over no trials would pass over nothing: refused before any row
    out = tmp_path / "report.json"
    argv = (command, "--p", "2", "--d", "2", "--N", "4,6", "--trials", "0", "--seed", "1")
    assert run(*argv, "--out", out) == 2
    captured = capsys.readouterr()
    assert "error: trial count must be >= 1, got 0" in captured.err
    assert captured.out == "" and not out.exists()


def test_trials_past_2_to_the_32_exit_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ("growth", "--p", "2", "--d", "2", "--N", "4,6", "--trials", str(2**32 + 1))
    assert run(*argv, "--out", out) == 2
    captured = capsys.readouterr()
    assert "error: trial count must be <= 2^32, got 4294967297" in captured.err
    assert captured.out == "" and not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(pchaos.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "pchaos", "--help"], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: pchaos")
    assert all(command in proc.stdout for command in ("verify", "growth", "ensemble"))


def test_lemma1_writes_measure_and_summary(tmp_path):
    out = tmp_path / "nu.json"
    code = run(
        "lemma1", "--p", "3", "--d", "2", "--J", "1,2,1,2,1,2", "--N", "5", "--out", out
    )
    assert code == 0
    payload = json.loads(Path(out).read_text())
    assert payload["pattern_check"]["passed"] is True
    assert payload["config"]["J"] == [1, 2, 1, 2, 1, 2]
    assert ser.load_grid(str(out)).level == 6


def test_lemma1_admits_orders_up_to_the_cap(tmp_path, capsys):
    # order 4 exited 2: a residual gate on the selector's float monomial
    # coefficients refused it
    out = tmp_path / "nu4.json"
    assert run("lemma1", "--p", "3", "--d", "4", "--J", "1,2,1,2,1,2", "--N", "5", "--out", out) == 0
    assert "matched=0.000e+00 mismatched=0.000e+00" in capsys.readouterr().out
    assert json.loads(Path(out).read_text())["pattern_check"]["passed"] is True


def test_lemma2_pattern(tmp_path):
    out = tmp_path / "nu2.json"
    assert run("lemma2", "--p", "3", "--d", "2", "--s", "1", "--N", "4", "--out", out) == 0
    assert json.loads(Path(out).read_text())["pattern_check"]["passed"] is True


def test_lemma2_is_exact_at_a_high_order(capsys):
    # the float product route left a killed residual past 1e-8 here: exit 1
    assert run("lemma2", "--p", "2", "--d", "8", "--s", "8", "--N", "8") == 0
    assert "kept=0.000e+00 killed=0.000e+00" in capsys.readouterr().out


def test_lemma2_order_without_terms_is_refused(tmp_path, capsys):
    # order 3 on the 2 positions of N=1 has no term to check: exit 2, no file
    out = tmp_path / "nu3.json"
    assert run("lemma2", "--p", "2", "--d", "3", "--s", "3", "--N", "1", "--out", out) == 2
    assert "order 3 exceeds the 2 available positions" in capsys.readouterr().err
    assert not out.exists()


def test_lemma2_past_the_float_range_exits_before_the_solve(tmp_path, capsys, monkeypatch):
    # the O(d^2) products of the selector's table would run for minutes
    def refuse(*args):
        raise AssertionError("the selector's table was built")

    monkeypatch.setattr(pchaos.measures, "_lemma2_table", refuse)
    out = tmp_path / "nu.json"
    assert run("lemma2", "--p", "2", "--d", "300000", "--s", "1", "--N", "3", "--out", out) == 2
    assert "leaves the float64 range" in capsys.readouterr().err
    assert not out.exists()


def test_riesz_mass_output(tmp_path):
    out = tmp_path / "rho.json"
    code = run(
        "riesz", "--p", "3", "--level", "3", "--a", "1,0.5+0.5j,0", "--j", "1,2,1",
        "--out", out,
    )
    assert code == 0
    payload = json.loads(Path(out).read_text())
    assert payload["checks"]["integral_error"] <= 1e-12
    assert abs(payload["variation"] - 1.0) <= 1e-12
    assert isinstance(ser.load_grid(str(out)), Spectrum)


def test_transform_round_trip_through_files(tmp_path):
    rng = np.random.default_rng(6)
    f = StepFunction(2, 4, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    cells = tmp_path / "cells.json"
    paley = tmp_path / "paley.json"
    back = tmp_path / "back.json"
    ser.save_grid(str(cells), f)
    assert run("transform", "--in", cells, "--out", paley) == 0
    assert run("transform", "--in", paley, "--out", back) == 0
    loaded = ser.load_grid(str(back))
    assert isinstance(loaded, StepFunction)
    assert np.abs(loaded.values - f.values).max() <= 1e-12


def test_norms_reports_values(tmp_path, capsys):
    poly = tmp_path / "q.json"
    Q = random_chaos(2, 2, 4, np.random.default_rng(0), "signs")
    ser.save_polynomial(str(poly), Q)
    assert run("norms", "--poly", poly) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terms"] == len(Q.coeffs)
    assert payload["linf"] > 0


def test_norms_synthesises_once(tmp_path, monkeypatch, capsys):
    poly = tmp_path / "q.json"
    Q = random_chaos(3, 3, 5, np.random.default_rng(1), "unimodular")
    ser.save_polynomial(str(poly), Q)
    calls = []
    tensor_dft = chaos._tensor_dft

    # every synthesis on the sup-norm path runs chaos's stage loop
    def counting(values, p, level, **kwargs):
        calls.append(p**level)
        return tensor_dft(values, p, level, **kwargs)

    monkeypatch.setattr(chaos, "_tensor_dft", counting)
    assert run("norms", "--poly", poly) == 0
    assert calls == [3**6]
    payload = json.loads(capsys.readouterr().out)
    assert payload["sidon_ratio"] == chaos.sidon_ratio(ser.load_polynomial(str(poly)))


def test_norms_refuses_zero_polynomial(tmp_path, monkeypatch, capsys):
    poly = tmp_path / "q.json"
    Q = random_chaos(2, 2, 4, np.random.default_rng(0))
    zero = pchaos.ChaosPolynomial.from_indices(2, 4, Q.indices, np.zeros(Q.indices.size))
    ser.save_polynomial(str(poly), zero)
    calls = []
    monkeypatch.setattr(chaos, "_tensor_dft", lambda *args, **kwargs: calls.append(args))
    assert run("norms", "--poly", poly, "--out", tmp_path / "norms.json") == 2
    assert "no norm ratio" in capsys.readouterr().err
    assert not (tmp_path / "norms.json").exists()
    assert calls == []  # refused before the synthesis


_NO_RATIO = "the zero polynomial has no norm ratio"


def _zero_polynomials(N):
    # no terms, and every order-2 term with coefficient 0
    indices = pchaos.term_indices(2, 2, N)
    return {
        "empty": pchaos.ChaosPolynomial.from_indices(2, N, [], []),
        "all-zero": pchaos.ChaosPolynomial.from_indices(2, N, indices, np.zeros(indices.size)),
    }


@pytest.mark.parametrize("kind", ["empty", "all-zero"])
@pytest.mark.parametrize(
    "caller, message",
    [
        (("sidon_ratio",), {"empty": _NO_RATIO, "all-zero": _NO_RATIO}),
        # with no --q the exponent is read first, and an empty polynomial has none
        (("norms",), {"empty": "the zero polynomial has no coefficient exponent", "all-zero": _NO_RATIO}),
        (("norms", "--q", "1.5"), {"empty": _NO_RATIO, "all-zero": _NO_RATIO}),
    ],
    ids=["sidon_ratio", "norms", "norms-q"],
)
@pytest.mark.parametrize("N", [4, 30], ids=["N4", "past-MAX_CELLS"])
def test_zero_polynomial_refusals(tmp_path, monkeypatch, capsys, kind, caller, message, N):
    # every ratio caller refuses a zero polynomial with DegenerateInput, and
    # before the cell guard: 2^31 cells at N=30 exceed MAX_CELLS
    Q = _zero_polynomials(N)[kind]
    syntheses = []
    monkeypatch.setattr(chaos, "_tensor_dft", lambda *args, **kwargs: syntheses.append(args))
    if caller == ("sidon_ratio",):
        with pytest.raises(pchaos.DegenerateInput) as refused:
            pchaos.sidon_ratio(Q)
    else:
        poly = tmp_path / "q.json"
        ser.save_polynomial(str(poly), Q)
        argv = [*caller, "--poly", str(poly)]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {message[kind]}\n"
        args = build_parser().parse_args(argv)
        with pytest.raises(pchaos.DegenerateInput) as refused:
            args.func(args)
    assert str(refused.value) == message[kind]
    assert syntheses == []
    if N == 30:  # a polynomial with a nonzero term meets the guard there
        with pytest.raises(pchaos.GuardExceeded):
            pchaos.linf_norm(pchaos.ChaosPolynomial.from_indices(2, N, [1], [1.0]))


def test_every_ratio_caller_makes_one_core_call(tmp_path, monkeypatch, capsys):
    # sidon_ratio, pchaos norms, each study row and verify's sidon-exact-d1
    # check each take their sups and norms in one chaos._row_norms call
    core, row_sups, calls, blocks = chaos._row_norms, chaos._row_sups, [], []

    def spy(Q, draw, rows, exponents):
        calls.append((rows, tuple(exponents)))
        return core(Q, draw, rows, exponents)

    for module in (chaos, cli, experiments):
        monkeypatch.setattr(module, "_row_norms", spy)
    monkeypatch.setattr(chaos, "_row_sups", lambda Q, block: blocks.append(len(block)) or row_sups(Q, block))
    Q = random_chaos(3, 2, 3, np.random.default_rng(0), "unimodular")
    pchaos.sidon_ratio(Q)
    assert calls == [(1, (None,))]
    calls.clear()
    poly = tmp_path / "q.json"
    ser.save_polynomial(str(poly), Q)
    assert run("norms", "--poly", poly, "--q", "1.5") == 0
    assert calls == [(1, (1.0, 1.5, None))]
    calls.clear()
    cfg = pchaos.ExperimentConfig(p=2, d=2, N_values=(4, 5, 6), trials=3, seed=0)
    for study in (pchaos.random_ensemble_study, pchaos.growth_study):
        study(cfg)
        assert calls == [(3, (1.0, 4 / 3))] * 3
        calls.clear()
    blocks.clear()
    pchaos.verify_suite([2], [1], N=3)
    assert calls == [(10, (None,))]
    # the other checks norm one polynomial at a time through linf_norm
    assert [n for n in blocks if n != 1] == [10]


_SEVENTEEN = ",".join(["1"] * 17)


@pytest.mark.parametrize(
    "argv",
    [
        ("riesz", "--p", "2", "--level", "17", "--a", _SEVENTEEN, "--j", _SEVENTEEN),
        ("lemma1", "--p", "2", "--d", "1", "--J", _SEVENTEEN, "--N", "16"),
        ("lemma2", "--p", "2", "--d", "1", "--s", "1", "--N", "16"),
        ("norms", "--poly", "q.json"),
        ("project", "--poly", "q.json", "--J", _SEVENTEEN),
        ("project", "--poly", "q.json", "--order", "1"),
        ("ensemble", "--p", "2", "--d", "1", "--N", "3,16", "--trials", "2"),
        ("growth", "--p", "2", "--d", "1", "--N", "3,16", "--trials", "2"),
        ("verify", "--p", "2", "--d", "1", "--N", "16"),
    ],
    ids=["riesz", "lemma1", "lemma2", "norms", "project-J", "project-order", "ensemble", "growth", "verify"],
)
def test_cell_guard_refuses_before_allocating(argv, tmp_path, monkeypatch, capsys):
    # 2^17 cells pass the default guard; a lowered one refuses them before
    # any grid is built, any trial drawn or any file written
    poly = tmp_path / "q.json"
    ser.save_polynomial(str(poly), random_chaos(2, 1, 16, np.random.default_rng(0), "signs"))
    monkeypatch.setattr(config, "MAX_CELLS", 2**16)
    draws = []
    monkeypatch.setattr(experiments, "trial_rng", lambda *key: draws.append(key))
    out = tmp_path / "out.json"
    argv = [str(poly) if a == "q.json" else a for a in argv]
    # one-time imports (argparse's gettext, numpy.ma in np.unique) stay out of the peak
    build_parser().parse_args(argv)
    ser.load_polynomial(str(poly))
    tracemalloc.start()
    try:
        code = run(*argv, "--out", out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "exceeds the cell guard 65536" in capsys.readouterr().err
    assert draws == [] and not out.exists()
    assert peak < 2**19  # one 2^17-cell float64 grid alone is 1 MiB


@pytest.mark.parametrize("q", ["nan", "inf", "-inf", "0", "-1.5"])
def test_norms_refuses_bad_q_before_loading(tmp_path, monkeypatch, capsys, q):
    poly = tmp_path / "q.json"
    out = tmp_path / "norms.json"
    ser.save_polynomial(str(poly), random_chaos(2, 2, 4, np.random.default_rng(0)))
    loads = []
    monkeypatch.setattr(ser, "load_polynomial", lambda path: loads.append(path))
    assert run("norms", "--poly", poly, f"--q={q}", "--out", out) == 2
    assert "norm exponent" in capsys.readouterr().err
    assert loads == [] and not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [2, 3])
def test_norms_refuses_a_sup_past_float64(tmp_path, capsys, p):
    poly = tmp_path / "q.json"
    out = tmp_path / "norms.json"
    ser.save_polynomial(str(poly), pchaos.ChaosPolynomial.from_indices(p, 1, [1, p], [1e308] * 2))
    assert run("norms", "--poly", poly, "--out", out) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def test_norms_missing_file(capsys):
    assert run("norms", "--poly", "missing.json") == 2
    assert "missing.json" in capsys.readouterr().err


def test_project_exponent_route(tmp_path):
    poly = tmp_path / "q.json"
    out = tmp_path / "proj.json"
    Q = random_chaos(3, 2, 3, np.random.default_rng(1), "unimodular")
    ser.save_polynomial(str(poly), Q)
    assert run("project", "--poly", poly, "--J", "1,2,1,2", "--out", out) == 0
    assert json.loads(Path(out).read_text())["passed"] is True


def test_project_prints_its_term_counts(tmp_path, capsys):
    # 24 order-2 terms at p=3, N=3; J keeps one exponent pair per position
    # pair, 6 of them
    poly = tmp_path / "q.json"
    ser.save_polynomial(str(poly), random_chaos(3, 2, 3, np.random.default_rng(1), "unimodular"))
    assert run("project", "--poly", poly, "--J", "1,2,1,2") == 0
    assert capsys.readouterr().out.startswith("project: terms 24 -> 6, route residual ")


def test_project_order_route(tmp_path):
    poly = tmp_path / "q.json"
    Q = random_chaos(2, 2, 3, np.random.default_rng(2), "signs")
    ser.save_polynomial(str(poly), Q)
    assert run("project", "--poly", poly, "--order", "2") == 0


def test_project_requires_exactly_one_mode(tmp_path, capsys):
    poly = tmp_path / "q.json"
    ser.save_polynomial(str(poly), random_chaos(2, 1, 2, np.random.default_rng(3)))
    assert run("project", "--poly", poly) == 2
    assert "exactly one of --J and --order" in capsys.readouterr().err
    # the usage check comes before the file is read
    assert run("project", "--poly", tmp_path / "missing.json") == 2
    err = capsys.readouterr().err
    assert "exactly one of --J and --order" in err and "missing.json" not in err


def test_decompose(tmp_path):
    poly = tmp_path / "q.json"
    Q = random_chaos(3, 2, 3, np.random.default_rng(4), "unimodular")
    ser.save_polynomial(str(poly), Q)
    assert run("decompose", "--poly", poly) == 0


def test_one_shot_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call in a process (about 15 ms)
    Q = random_chaos(3, 2, 3, np.random.default_rng(4), "unimodular")
    ser.save_polynomial(str(tmp_path / "q.json"), Q)
    script = """
import sys
from pchaos.cli import main
for argv in (
    ["norms", "--poly", "q.json"],
    ["project", "--poly", "q.json", "--order", "2"],
    ["decompose", "--poly", "q.json"],
):
    assert main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""
    src = str(Path(pchaos.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_ensemble_writes_csv_and_json(tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    code = run(
        "ensemble", "--p", "2", "--d", "1", "--N", "4,5", "--trials", "10",
        "--seed", "7", "--out", out, "--csv", csv_path,
    )
    assert code == 0
    payload = json.loads(Path(out).read_text())
    assert len(payload["rows"]) == 2
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0].startswith("format_version,p,d,N")
    assert len(lines) == 3


def test_ensemble_reports_failures_on_stderr(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "check_against_baselines", lambda report: ["baseline-drift: x"])
    out = tmp_path / "report.json"
    code = run("ensemble", "--p", "2", "--d", "1", "--N", "3", "--trials", "2", "--out", out)
    assert code == 1
    assert json.loads(Path(out).read_text())["failures"] == ["baseline-drift: x"]
    captured = capsys.readouterr()
    assert captured.err == "FAIL baseline-drift: x\n"
    assert "FAIL" not in captured.out


def test_growth_exit_code(tmp_path):
    out = tmp_path / "growth.json"
    code = run(
        "growth", "--p", "2", "--d", "2", "--N", "4,6", "--trials", "40",
        "--seed", "42", "--out", out,
    )
    assert code == 0
    assert json.loads(Path(out).read_text())["passed"] is True


def _expected_env():
    return {
        "pchaos": pchaos.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": "-".join((platform.system(), platform.release(), platform.machine())),
    }


def test_reports_carry_the_env_block(tmp_path, capsys):
    poly = tmp_path / "q.json"
    ser.save_polynomial(str(poly), random_chaos(2, 2, 4, np.random.default_rng(0), "signs"))
    study = ["--p", "2", "--d", "2", "--N", "3,4", "--trials", "2"]
    for argv in (
        ["norms", "--poly", poly],
        ["verify", "--p", "2", "--d", "1", "--N", "3"],
        ["ensemble", *study],
        ["growth", *study],
    ):
        run(*argv)
        payload = json.loads(capsys.readouterr().out)
        assert payload["env"] == _expected_env(), argv[0]
        assert "env" not in payload["config"]
    assert cli._env() is cli._env()  # built once per process


@pytest.mark.parametrize("command", ["growth", "ensemble"])
def test_env_block_leaves_seeded_rows_byte_identical(tmp_path, command):
    argv = [command, "--p", "2", "--d", "2", "--N", "4,6", "--trials", "12", "--seed", "5"]
    cfg = experiments.ExperimentConfig(p=2, d=2, N_values=(4, 6), trials=12, seed=5)
    study = experiments.growth_study if command == "growth" else experiments.random_ensemble_study
    expected = ser.dump_json({"rows": study(cfg).to_dict()["rows"]})
    for name in ("a", "b"):
        out, csv_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        run(*argv, "--out", out, "--csv", csv_path)
        payload = json.loads(Path(out).read_text())
        assert payload["env"] == _expected_env()
        assert ser.dump_json({"rows": payload["rows"]}) == expected
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert "env" not in (tmp_path / "a.csv").read_text()


def test_usage_error_exit_code():
    assert run("no-such-command") == 2
    assert run("verify") == 2  # missing required flags


def test_malformed_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("norms", "--poly", bad) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, message",
    [(b'{"format_version": 1, "p": 2, "\xff": 0}', "not UTF-8"), (b"[" * 200_000 + b"]" * 200_000, "nested")],
    ids=["invalid-utf8", "nested-200000-deep"],
)
@pytest.mark.parametrize("command", ["transform", "norms"])
def test_unreadable_input_file_exits_2(raw, message, command, tmp_path, capsys):
    # an input that is not UTF-8, or nested beyond json's recursion, is a
    # FormatError: exit 2 with a message, and no output file
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_bytes(raw)
    source = "--in" if command == "transform" else "--poly"
    assert run(command, source, bad, "--out", out) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "constant, argv",
    [
        ("MASS_TOL", ("riesz", "--p", "3", "--level", "3", "--a", "1,0.5+0.5j,0", "--j", "1,2,1")),
        ("LEMMA1_PATTERN_TOL", ("lemma1", "--p", "3", "--d", "2", "--J", "1,2,1,2", "--N", "3")),
        ("CONSTRUCTION_TOL", ("lemma2", "--p", "3", "--d", "2", "--s", "1", "--N", "3")),
        ("CONSTRUCTION_TOL", ("project", "--poly", "q.json", "--order", "1")),
        ("TRANSFORM_TOL", ("decompose", "--poly", "q.json")),
    ],
    ids=["riesz", "lemma1", "lemma2", "project", "decompose"],
)
def test_self_check_below_its_residual_fails(constant, argv, tmp_path, monkeypatch, capsys):
    # a tolerance below every residual (all are >= 0) must turn the check into exit 1
    poly = tmp_path / "q.json"
    ser.save_polynomial(str(poly), random_chaos(3, 2, 3, np.random.default_rng(5), "unimodular"))
    monkeypatch.setattr(cli, constant, -1.0)
    assert run(*[str(poly) if a == "q.json" else a for a in argv]) == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("riesz", "--p", "3", "--level", "2", "--a", "np.float64(0.5),0", "--j", "1,1"),
        ("riesz", "--p", "3", "--level", "2", "--a", "0.5,0", "--j", "1,1.5"),
        ("verify", "--p", "2,x", "--d", "1"),
        ("lemma1", "--p", "3", "--d", "1", "--J", "1,two", "--N", "1"),
        ("growth", "--p", "2", "--d", "1", "--N", "4,x"),
    ],
)
def test_malformed_number_exit_code(argv, capsys):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "is not a valid" in err


def test_non_finite_riesz_coefficient(capsys):
    assert run("riesz", "--p", "3", "--level", "2", "--a", "nan,0", "--j", "1,1") == 2
    assert "not finite" in capsys.readouterr().err


def test_nan_grid_transform_refused(tmp_path, capsys):
    cells = tmp_path / "cells.json"
    out = tmp_path / "out.json"
    data = [[0.0, 0.0]] * 16
    data[5] = [float("nan"), 0.0]
    cells.write_text(json.dumps({"format_version": 1, "kind": "cells", "p": 2, "level": 4, "data": data}))
    assert run("transform", "--in", cells, "--out", out) == 2
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["provenance", "note"])
def test_non_finite_token_outside_data_exits_2(tmp_path, capsys, field):
    # the data are finite; the NaN sits in a field transform never reads
    cells, out = tmp_path / "cells.json", tmp_path / "out.json"
    payload = {"format_version": 1, "kind": "cells", "p": 2, "level": 1, "data": [[1.0, 0.0]] * 2}
    cells.write_text(json.dumps(payload | {field: {"bound": [float("nan")]}}))
    assert run("transform", "--in", cells, "--out", out) == 2
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


SUBCOMMAND_OPTIONS = {
    "transform": {"--in", "--out"},
    "riesz": {"--p", "--level", "--a", "--j", "--out"},
    "lemma1": {"--p", "--d", "--J", "--N", "--out"},
    "lemma2": {"--p", "--d", "--s", "--N", "--out"},
    "norms": {"--poly", "--q", "--out"},
    "project": {"--poly", "--J", "--order", "--out"},
    "decompose": {"--poly"},
    "ensemble": {"--p", "--d", "--N", "--trials", "--ensemble", "--out", "--csv", "--seed"},
    "growth": {"--p", "--d", "--N", "--trials", "--ensemble", "--out", "--csv", "--seed"},
    "verify": {"--p", "--d", "--N", "--out", "--seed"},
}


def test_subcommand_option_sets():
    # every registered option is read by its handler; nothing else is accepted
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {o for action in sp._actions for o in action.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "--in", "cells.json", "--out", "paley.json", "--tol", "transform=1e-9"),
        ("transform", "--in", "cells.json", "--out", "paley.json", "--seed", "1"),
        ("decompose", "--poly", "q.json", "--out", "r.json"),
        ("norms", "--poly", "q.json", "--tol", "construction=1e-9"),
        ("riesz", "--p", "2", "--level", "1", "--a", "0", "--j", "1", "--seed", "1"),
        # the cell and decomposition guards are fixed caps, not options
        ("riesz", "--p", "2", "--level", "1", "--a", "0", "--j", "1", "--max-cells", "10"),
        ("lemma1", "--p", "3", "--d", "1", "--J", "1,2", "--N", "1", "--max-cells", "10"),
        ("lemma2", "--p", "3", "--d", "1", "--s", "1", "--N", "1", "--max-cells", "10"),
        ("norms", "--poly", "q.json", "--max-cells", "10"),
        ("project", "--poly", "q.json", "--order", "1", "--max-cells", "10"),
        ("ensemble", "--p", "2", "--d", "1", "--N", "3", "--max-cells", "10"),
        ("growth", "--p", "2", "--d", "1", "--N", "3", "--max-cells", "10"),
        ("verify", "--p", "2", "--d", "1", "--max-cells", "10"),
        ("decompose", "--poly", "q.json", "--max-sequences", "10"),
        # the tolerance tiers are fixed, and transform infers its direction
        ("lemma2", "--p", "3", "--d", "1", "--s", "1", "--N", "1", "--tol", "construction=1e-8"),
        ("project", "--poly", "q.json", "--order", "1", "--tol", "construction=1e-8"),
        ("decompose", "--poly", "q.json", "--tol", "transform=1e-10"),
        ("verify", "--p", "2", "--d", "1", "--tol", "transform=1e-10"),
        ("transform", "--in", "cells.json", "--out", "paley.json", "--direction", "forward"),
        ("transform", "--in", "paley.json", "--out", "back.json", "--direction", "auto"),
    ],
)
def test_stray_option_is_usage_error(argv, capsys):
    assert run(*argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_commands():
    """The `pchaos ...` lines of the README's CLI block, as argument lists."""
    block = README.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pchaos ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)


PUBLIC_NAMES = [
    "ChaosError", "ChaosPolynomial", "ChaosTerm", "CoefficientOutOfRange",
    "DegenerateInput", "EmptyIndexSet",
    "ExperimentConfig", "FormatError", "GuardExceeded", "IllConditionedSystem",
    "InsufficientLevel", "InvalidExponent", "InvalidOrder", "LevelMismatch", "MalformedIndex",
    "MeasureRep", "NonFiniteValue", "Spectrum", "StepFunction",
    "character_value", "convolve", "convolve_functions", "convolve_with_measure",
    "decomposition_residual", "forward", "group_sub", "growth_study", "inverse",
    "lemma1_measure", "lemma1_pattern_residual", "lemma2_measure",
    "lemma2_pattern_residual", "linf_norm", "naive_forward",
    "paley_encode", "polynomial_spectrum", "project_J", "project_order", "random_chaos",
    "random_ensemble_study", "rho_y_measure", "riesz_density", "sidon_ratio", "term_indices",
    "trial_rng", "verify_suite",
]


def test_public_names():
    # what the CLI, the studies, the acceptance gate and the reference oracles use
    names = sorted(
        name for name, value in vars(pchaos).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_NAMES


def test_library_surface_the_benchmark_uses(tmp_path):
    # bench/ reaches these module names and call shapes from outside the
    # package, and when tracing wraps ChaosPolynomial.__post_init__ and
    # replaces experiments.CheckResult, called with the check name first
    from pchaos import errors, padic, transform

    Q = chaos.ChaosPolynomial(3, 2, {padic.ChaosTerm((0, 2), (1, 2)): 1.5})
    assert callable(chaos.ChaosPolynomial.__post_init__)
    assert chaos.linf_norm(Q)[0] == pytest.approx(1.5)
    assert len(chaos.ChaosPolynomial.from_indices(3, 2, [1, 3], [1.0, 2.0]).coeffs) == 2
    f = transform.StepFunction(2, 2, [1.0, 2.0, 3.0, 4.0])
    assert transform.forward(f).coeffs[0] == pytest.approx(2.5)
    path = str(tmp_path / "f.json")
    ser.save_step_function(path, f)
    assert ser.load_grid(path).values.tolist() == f.values.tolist()
    config = experiments.ExperimentConfig(
        p=2, d=1, N_values=(2,), trials=2, seed=1, ensemble="signs"
    )
    for study in (experiments.growth_study, experiments.random_ensemble_study):
        assert [row.N for row in study(config).rows] == [2]
    report = experiments.verify_suite((2,), (1,), 2, seed=1)
    assert all(isinstance(c, experiments.CheckResult) for c in report.checks)
    assert next(iter(inspect.signature(experiments.CheckResult).parameters)) == "name"
    assert issubclass(errors.ChaosError, Exception)
    assert cli.main(["decompose", "--poly", str(tmp_path / "missing.json")]) == 2

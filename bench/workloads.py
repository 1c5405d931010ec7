"""The benchmark's workloads: inputs, one timed pass, and output checks.

A workload makes its inputs from the seed, runs a fixed list of steps per
pass (``steps``; the runner times each step on its own), and checks a pass's
outputs (``check``) against the oracles in ``oracles.py`` or against
properties the method guarantees. Every
pass runs the same operations on the same inputs, so all passes of a run
must produce identical outputs; ``check`` returns a digest to compare them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re

import numpy as np

from oracles import (
    check_l1_ratio,
    dense_forward_rows,
    order_terms,
    paley_index,
    rademacher_eval,
    require,
    strict_json_load,
    trial_coefficients,
)

VERIFY_CHECKS = (
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
)


class VerifyGrid:
    """``verify_suite`` on the README grid. One operation per pass."""

    P, D, N = (2, 3, 5), (1, 2, 3), 4
    # The warm-up runs every check of the same grid at the smallest N that
    # admits d = 3; a full pass takes several seconds.
    WARMUP_N = 2
    ops = 1

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed

    def warmup(self, pc) -> None:
        pc.experiments.verify_suite(self.P, self.D, self.WARMUP_N, seed=self.seed)

    def _suite(self, pc):
        try:
            return pc.experiments.verify_suite(self.P, self.D, self.N, seed=self.seed)
        except pc.errors.ChaosError as exc:
            return exc

    def steps(self, pc):
        return [lambda: self._suite(pc)]

    def check(self, pc, outputs, full: bool):
        (report,) = outputs
        if isinstance(report, Exception):
            return 1, repr(report)
        names = tuple(c.name for c in report.checks)
        require(names == VERIFY_CHECKS, f"verify checks {names} differ from {VERIFY_CHECKS}")
        for c in report.checks:
            require(
                math.isfinite(c.residual) and c.residual >= 0.0,
                f"{c.name}: residual {c.residual!r} is not a finite non-negative number",
            )
            require(c.passed == (c.residual <= c.tolerance), f"{c.name}: verdict disagrees with residual")
        digest = tuple((c.name, c.residual, c.passed) for c in report.checks)
        return (0 if report.passed else 1), digest


class Study:
    """One study call per pass; each row (one N) is one operation."""

    def __init__(self, seed: int, kind: str, p: int, d: int, N_values, trials: int, ensemble: str):
        self.seed, self.kind = seed, kind
        self.p, self.d, self.N_values = p, d, tuple(N_values)
        self.trials, self.ensemble = trials, ensemble
        self.ops = len(self.N_values)
        self.findings: list[str] = []

    def _config(self, pc):
        return pc.experiments.ExperimentConfig(
            p=self.p, d=self.d, N_values=self.N_values, trials=self.trials,
            seed=self.seed, ensemble=self.ensemble,
        )

    def _study(self, pc):
        if self.kind == "growth":
            return pc.experiments.growth_study
        return pc.experiments.random_ensemble_study

    def warmup(self, pc) -> None:
        self._study(pc)(self._config(pc))

    def _run(self, pc):
        try:
            return self._study(pc)(self._config(pc))
        except pc.errors.ChaosError as exc:
            return exc

    def steps(self, pc):
        return [lambda: self._run(pc)]

    def check(self, pc, outputs, full: bool):
        (report,) = outputs
        if isinstance(report, Exception):
            return self.ops, repr(report)
        rows = report.rows
        require([r.N for r in rows] == sorted(self.N_values), "study rows do not cover N_values")
        for row in rows:
            terms = math.comb(row.N + 1, self.d) * (self.p - 1) ** self.d
            for value in (row.median_l1_ratio, row.max_l1_ratio):
                check_l1_ratio(value, terms, f"N={row.N}")
            require(row.median_l1_ratio <= row.max_l1_ratio, f"N={row.N}: median above max")
            require(0 < row.median_lq_ratio <= row.max_lq_ratio, f"N={row.N}: lq ratios out of order")
            if full:
                self._check_trial_zero(pc, row)
        # The study's own verdicts (median growth, lq band, baselines) are
        # sampling findings about the ensemble, not failed operations.
        self.findings = list(report.failures)
        digest = (tuple(tuple(sorted(r.to_dict().items())) for r in rows), tuple(report.failures))
        return 0, digest

    def _check_trial_zero(self, pc, row) -> None:
        """Rebuild trial 0 of a row from its documented substream, evaluate
        it directly on every cell and compare with ``linf_norm``."""
        terms = order_terms(self.p, self.d, row.N)
        coeffs = trial_coefficients(self.seed, row.N, 0, len(terms), self.ensemble)
        values = rademacher_eval(terms, coeffs, self.p, row.N + 1)
        sup = float(np.abs(values).max())
        term_objs = [pc.padic.ChaosTerm(ks, ls) for ks, ls in terms]
        poly = pc.chaos.ChaosPolynomial(self.p, row.N, dict(zip(term_objs, coeffs)))
        lib_sup, _ = pc.chaos.linf_norm(poly)
        require(abs(lib_sup - sup) <= 1e-9 * max(1.0, sup), f"N={row.N}: linf_norm {lib_sup!r} != direct {sup!r}")
        l1_ratio = float(np.abs(coeffs).sum()) / sup
        check_l1_ratio(l1_ratio, len(terms), f"N={row.N} trial 0")
        require(l1_ratio <= row.max_l1_ratio * (1 + 1e-12), f"N={row.N}: trial 0 exceeds the row maximum")
        require(
            row.trials > 1 or l1_ratio == row.median_l1_ratio,
            f"N={row.N}: single trial does not reproduce the row",
        )


def _write_json(path: str, payload) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps(payload))


def _pairs(values: np.ndarray) -> list:
    return np.stack([values.real, values.imag], axis=1).tolist()


def _complex_arg(values) -> str:
    return ",".join(f"({float(v.real)!r}{float(v.imag):+.17g}j)" for v in values)


def _grid_values(payload: dict) -> np.ndarray:
    data = np.array(payload["data"], dtype=np.float64)
    return data[:, 0] + 1j * data[:, 1]


class CliFiles:
    """The README's CLI commands, run in-process through ``pchaos.cli.main``.

    Each command is one operation. The last one feeds a grid file holding
    NaN to ``transform``; the expected outcome is exit code 2 and no output
    file, which the program does not meet while it accepts non-finite data.
    """

    GRIDS = ((2, 16), (3, 10), (16, 4))
    POLY = (3, 3, 7)  # p, d, N of the polynomial file
    MEASURE = (3, 3, 8)  # p, d, N of the lemma1/lemma2 measures; riesz at level N+1
    SAMPLED_ROWS = 64

    def __init__(self, seed: int, tmp: str) -> None:
        rng = np.random.default_rng(seed)
        self.path = lambda name: os.path.join(tmp, name)
        self.grids = {}
        for p, level in self.GRIDS:
            size = p**level
            values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            self.grids[p] = (level, values)
            _write_json(self.path(f"cells-p{p}.json"), {
                "format_version": 1, "kind": "cells", "p": p, "level": level, "data": _pairs(values),
            })
        nan_data = [[0.0, 0.0]] * 16
        nan_data[5] = [float("nan"), 0.0]
        _write_json(self.path("cells-nan.json"), {
            "format_version": 1, "kind": "cells", "p": 2, "level": 4, "data": nan_data,
        })
        p, d, N = self.POLY
        self.poly_terms = order_terms(p, d, N)
        self.poly_coeffs = np.exp(2j * np.pi * rng.random(len(self.poly_terms)))
        _write_json(self.path("poly.json"), {
            "format_version": 1, "p": p, "N": N,
            "terms": [
                {"k": list(ks), "l": list(ls), "re": c.real, "im": c.imag}
                for (ks, ls), c in zip(self.poly_terms, self.poly_coeffs)
            ],
        })
        self.project_J = [int(x) for x in rng.integers(1, p, size=N + 1)]
        mp, md, mN = self.MEASURE
        self.lemma1_J = [int(x) for x in rng.integers(1, mp, size=mN + 1)]
        self.lemma2_s = int(rng.integers(1, md + 1))
        radius = rng.random(mN + 1)
        self.riesz_a = radius * np.exp(2j * np.pi * rng.random(mN + 1))
        self.riesz_j = [int(x) for x in rng.integers(1, mp, size=mN + 1)]
        self.rows = {
            p: np.concatenate(([0, p**level - 1], rng.integers(1, p**level - 1, self.SAMPLED_ROWS - 2)))
            for p, (level, _) in self.grids.items()
        }
        self.commands = self._commands()
        self.ops = len(self.commands)

    def _commands(self):
        f = self.path
        cmds = []
        for p in self.grids:
            cmds.append(("forward", p, ["transform", "--in", f(f"cells-p{p}.json"), "--out", f(f"paley-p{p}.json")]))
            cmds.append(("inverse", p, ["transform", "--in", f(f"paley-p{p}.json"), "--out", f(f"back-p{p}.json")]))
        mp, md, mN = self.MEASURE
        cmds += [
            ("lemma1", None, ["lemma1", "--p", str(mp), "--d", str(md), "--N", str(mN),
                              "--J", ",".join(map(str, self.lemma1_J)), "--out", f("lemma1.json")]),
            ("lemma2", None, ["lemma2", "--p", str(mp), "--d", str(md), "--s", str(self.lemma2_s),
                              "--N", str(mN), "--out", f("lemma2.json")]),
            ("riesz", None, ["riesz", "--p", str(mp), "--level", str(mN + 1), "--a", _complex_arg(self.riesz_a),
                             "--j", ",".join(map(str, self.riesz_j)), "--out", f("riesz.json")]),
            ("norms", None, ["norms", "--poly", f("poly.json"), "--out", f("norms.json")]),
            ("project", None, ["project", "--poly", f("poly.json"), "--J", ",".join(map(str, self.project_J)),
                               "--out", f("project.json")]),
            ("decompose", None, ["decompose", "--poly", f("poly.json")]),
            ("nan-grid", None, ["transform", "--in", f("cells-nan.json"), "--out", f("nan-out.json")]),
        ]
        return cmds

    def warmup(self, pc) -> None:
        for step in self.steps(pc):
            step()
        self._reset()

    def _reset(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path("nan-out.json"))

    @staticmethod
    def _run(pc, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pc.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def steps(self, pc):
        return [lambda argv=argv: self._run(pc, argv) for _, _, argv in self.commands]

    def check(self, pc, outcomes, full: bool):
        failed = 0
        digest = []
        for (kind, p, argv), (rc, out, err) in zip(self.commands, outcomes):
            out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
            if kind == "nan-grid":
                ok = rc == 2 and not os.path.exists(out_path)
                failed += not ok
                digest.append((kind, rc, os.path.exists(out_path)))
                continue
            if rc != 0:
                failed += 1
                digest.append((kind, rc, err))
                continue
            file_hash = None
            if out_path is not None:
                with open(out_path, "rb") as handle:
                    file_hash = hashlib.sha256(handle.read()).hexdigest()
            digest.append((kind, rc, out, file_hash))
            if full:
                payload = strict_json_load(out_path) if out_path else None
                getattr(self, "_check_" + kind)(payload, p, out)
        self._reset()
        return failed, tuple(digest)

    # -- per-command oracles, run on the first pass ----------------------

    def _check_forward(self, payload, p, out) -> None:
        level, values = self.grids[p]
        require(payload["kind"] == "paley" and payload["p"] == p and payload["level"] == level, "forward header")
        coeffs = _grid_values(payload)
        rows = self.rows[p]
        expected = dense_forward_rows(values, p, level, rows)
        err = float(np.abs(coeffs[rows] - expected).max())
        require(err <= 1e-12 * max(1.0, float(np.abs(values).max())), f"forward p={p}: dense rows differ by {err:.3e}")

    def _check_inverse(self, payload, p, out) -> None:
        level, values = self.grids[p]
        require(payload["kind"] == "cells" and payload["level"] == level, "inverse header")
        err = float(np.abs(_grid_values(payload) - values).max())
        require(err <= 1e-10 * float(np.abs(values).max()), f"inverse p={p}: round trip differs by {err:.3e}")

    def _coefficient_at(self, data, n) -> complex:
        re, im = data[n]
        return complex(re, im)

    def _check_lemma1(self, payload, p, out) -> None:
        mp, md, mN = self.MEASURE
        data, J = payload["data"], self.lemma1_J
        require(len(data) == mp ** (mN + 1), "lemma1 data length")
        for ks, ls in order_terms(mp, md, mN):
            want = 1.0 if all(l == J[k] for k, l in zip(ks, ls)) else 0.0
            got = self._coefficient_at(data, paley_index(ks, ls, mp))
            require(abs(got - want) <= 1e-6, f"lemma1 coefficient at {ks},{ls} is {got}, not {want}")
        require(payload["pattern_check"]["passed"] is True, "lemma1 pattern check flag")

    def _check_lemma2(self, payload, p, out) -> None:
        mp, md, mN = self.MEASURE
        data = payload["data"]
        for order in range(1, md + 1):
            want = 1.0 if order == self.lemma2_s else 0.0
            for ks, ls in order_terms(mp, order, mN):
                got = self._coefficient_at(data, paley_index(ks, ls, mp))
                require(abs(got - want) <= 1e-8, f"lemma2 coefficient at {ks},{ls} is {got}, not {want}")

    def _check_riesz(self, payload, p, out) -> None:
        mp, _, mN = self.MEASURE
        data = payload["data"]
        require(abs(self._coefficient_at(data, 0) - 1.0) <= 1e-12, "riesz mass is not 1")
        require(abs(payload["variation"] - 1.0) <= 1e-10, "riesz variation is not 1")
        for k, (a, j) in enumerate(zip(self.riesz_a, self.riesz_j)):
            want = a.real if (2 * j) % mp == 0 else a / 2
            got = self._coefficient_at(data, j * mp**k)
            require(abs(got - want) <= 1e-12, f"riesz coefficient at position {k} is {got}, not {want}")

    def _check_norms(self, payload, p, out) -> None:
        pp, _, N = self.POLY
        values = rademacher_eval(self.poly_terms, self.poly_coeffs, pp, N + 1)
        sup = float(np.abs(values).max())
        l1 = float(np.abs(self.poly_coeffs).sum())
        require(abs(payload["linf"] - sup) <= 1e-9 * sup, f"norms linf {payload['linf']!r} != direct {sup!r}")
        require(abs(payload["l1"] - l1) <= 1e-9 * l1, "norms l1")
        require(payload["terms"] == len(self.poly_terms), "norms term count")
        check_l1_ratio(payload["l1"] / payload["linf"], len(self.poly_terms), "norms")

    def _check_project(self, payload, p, out) -> None:
        J = self.project_J
        want = [
            (list(ks), list(ls), c.real, c.imag)
            for (ks, ls), c in zip(self.poly_terms, self.poly_coeffs)
            if all(l == J[k] for k, l in zip(ks, ls))
        ]
        got = [(t["k"], t["l"], t["re"], t["im"]) for t in payload["terms"]]
        require(got == want, "projected terms differ from the selected input terms")
        require(payload["passed"] is True and payload["route_residual"] <= 1e-8, "project route residual")

    def _check_decompose(self, payload, p, out) -> None:
        match = re.search(r"residual=(\S+)", out)
        require(match is not None and float(match.group(1)) <= 1e-10, f"decompose output {out!r}")


WORKLOADS = {
    "verify-grid": lambda seed, tmp: VerifyGrid(seed, tmp),
    "study-deep": lambda seed, tmp: Study(seed, "growth", 2, 2, range(12, 17), 12, "signs"),
    "study-wide": lambda seed, tmp: Study(seed, "ensemble", 3, 3, (6, 7, 8), 40, "unimodular"),
    "cli-files": lambda seed, tmp: CliFiles(seed, tmp),
}

"""Run one benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` of the checkout that holds this file.
With ``--trace 0`` the result carries the end-to-end metrics (pass_s,
setup_s, peak_rss_mib); with ``--trace 1`` it carries the per-layer metrics
of a traced run. See bench/README.md.
"""

from __future__ import annotations

import os

# One process, one thread: keep OpenBLAS (used by numpy's matmul) from
# starting its own pool. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

import oracles
from tracing import LAYERS, Tracer
from workloads import VERIFY_CHECKS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MODULES = LAYERS + ("errors",)


def import_pchaos():
    """Import pchaos afresh from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "pchaos" or n.startswith("pchaos.")]:
        del sys.modules[name]
    package = importlib.import_module("pchaos")
    if Path(package.__file__).resolve().parent != SRC / "pchaos":
        raise ImportError(f"pchaos imported from {package.__file__}, not from {SRC}")
    pc = types.SimpleNamespace(package=package)
    for name in MODULES:
        setattr(pc, name, importlib.import_module(f"pchaos.{name}"))
    return pc


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(pc) -> dict:
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = None
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "pchaos": pc.package.__version__,
        "commit": git_commit(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
    }


class Calibration:
    """A fixed mix of interpreter, numpy and JSON work that shares no code
    with pchaos, timed between steps to read the machine's speed.

    On the shared 2-vCPU VM this benchmark was tuned on, the speed of all
    code changes by up to 2x over seconds to minutes, so wall times of runs
    made minutes apart spread by up to a third. A step's time divided by the
    calibration times taken just before and after it spreads far less.
    """

    # Median time of one calibration on the machine of bench/README.md's
    # "Reference speed"; scaled times are seconds at that speed.
    REFERENCE_S = 0.050

    def __init__(self) -> None:
        self.values = np.exp(1j * np.arange(2**16))
        self.matrix = np.ones((64, 64), dtype=np.complex128)
        self.doc = [[float(i), i / 3.0] for i in range(20_000)]
        self.times: list[float] = []

    def measure(self) -> float:
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        for _ in range(10):
            (self.values * self.values.conj()).sum()
            self.values.reshape(1024, 64) @ self.matrix
        json.loads(json.dumps(self.doc))
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def timed(self, fn):
        """Run ``fn`` after the last calibration and before a new one;
        return its result, its wall time and its time at the reference speed."""
        before = self.times[-1] if self.times else self.measure()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        after = self.measure()
        return result, elapsed, elapsed * 2 * self.REFERENCE_S / (before + after)


class Runner:
    """Setup, timed passes and output checks of one workload."""

    def __init__(self, workload: str, seed: int, work_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.first_outputs = None
        self.calibration = Calibration()

    def _setup_once(self, tmp: str) -> None:
        self.pc = import_pchaos()
        self.wl = WORKLOADS[self.workload](self.seed, tmp)
        self.wl.warmup(self.pc)

    def setup(self) -> tuple[list[float], list[float]]:
        """Set up SETUP_REPEATS times; return wall and scaled times."""
        wall, scaled = [], []
        for i in range(SETUP_REPEATS):
            tmp = os.path.join(self.work_dir, f"inputs-{i}")
            os.mkdir(tmp)
            _, elapsed, at_reference = self.calibration.timed(lambda: self._setup_once(tmp))
            wall.append(elapsed)
            scaled.append(at_reference)
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(tmp)
        return wall, scaled

    def one_pass(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """Time each step of one pass between calibrations, then make the
        cheap checks of its outputs outside the timed spans. Return the
        pass's wall time and its time at the reference speed, both summed
        over its steps."""
        if tracer is not None:
            tracer.begin_pass()
        outputs, wall, scaled = [], 0.0, 0.0
        for step in self.wl.steps(self.pc):
            result, elapsed, at_reference = self.calibration.timed(step)
            outputs.append(result)
            wall += elapsed
            scaled += at_reference
        if tracer is not None:
            tracer.end_pass(wall)
        failed, digest = self.wl.check(self.pc, outputs, full=False)
        oracles.require(
            self.digest is None or digest == self.digest,
            "a pass produced outputs that differ from the first pass",
        )
        if self.digest is None:
            self.digest, self.first_outputs = digest, outputs
        self.attempted += self.wl.ops
        self.failed += failed
        return wall, scaled

    def full_check(self) -> None:
        """Check the first pass's outputs against the oracles. This runs
        after peak memory is read, so the oracles' arrays cannot set it;
        every later pass gave the same outputs."""
        self.wl.check(self.pc, self.first_outputs, full=True)

    def passes(self, seconds: float, minimum: int, tracer: Tracer | None = None):
        """Run whole passes while another pass of the last length fits;
        return the passes' wall times and their times at the reference speed."""
        wall, scaled = [], []
        start = time.perf_counter()
        while len(wall) < minimum or time.perf_counter() - start + wall[-1] <= seconds:
            pass_wall, pass_scaled = self.one_pass(tracer)
            wall.append(pass_wall)
            scaled.append(pass_scaled)
            if tracer is not None:
                tracer.recording = False
        return wall, scaled


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float]) -> dict:
    n = len(traced)
    per_pass = lambda value: value / n
    work, fn = tracer.work, tracer.fn_calls
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_pass(tracer.self_s[layer]), "s")
        out[f"{layer}.calls"] = (per_pass(tracer.calls[layer]), "count")
    fast_s = tracer.tag_s["transform.fast"]
    write_s, read_s = tracer.tag_s["serialization.write"], tracer.tag_s["serialization.read"]
    mib = 1024.0 * 1024.0
    scanned = work["chaos.project_J.scanned"]
    out.update({
        "padic.terms_encoded": (per_pass(fn["padic.paley_encode"]), "count"),
        "chaos.polynomials": (per_pass(work["chaos.polynomials"]), "count"),
        "chaos.terms_validated": (per_pass(work["chaos.terms_validated"]), "count"),
        "chaos.project_J.calls": (per_pass(fn["chaos.project_J"]), "count"),
        "chaos.project_J.match_ratio": (work["chaos.project_J.kept"] / scanned if scanned else 0.0, "ratio"),
        "chaos.decomposition_s": (per_pass(tracer.tag_s["chaos.decomposition"]), "s"),
        "transform.cells": (per_pass(work["transform.cells"]), "count"),
        "transform.cells_per_s": (work["transform.cells"] / fast_s if fast_s else 0.0, "1/s"),
        "transform.ops_computed": (per_pass(work["transform.ops_computed"]), "count"),
        "transform.bytes_computed": (per_pass(work["transform.bytes_computed"]), "B"),
        "transform.reference_s": (per_pass(tracer.tag_s["transform.reference"]), "s"),
        "measures.solves": (per_pass(fn["measures.lemma1_system"] + fn["measures.lemma2_polynomial"]), "count"),
        "measures.pattern_s": (per_pass(tracer.tag_s["measures.pattern"]), "s"),
        "experiments.trials": (per_pass(fn["experiments.trial_rng"]), "count"),
        "serialization.bytes_written": (per_pass(work["serialization.bytes_written"]), "B"),
        "serialization.bytes_read": (per_pass(work["serialization.bytes_read"]), "B"),
        "serialization.write_mib_per_s": (work["serialization.bytes_written"] / mib / write_s if write_s else 0.0, "MiB/s"),
        "serialization.read_mib_per_s": (work["serialization.bytes_read"] / mib / read_s if read_s else 0.0, "MiB/s"),
        "bench.self_s": (per_pass(tracer.bench_s), "s"),
        "trace.pass_s": (statistics.median(traced), "s"),
        "trace.untraced_pass_s": (statistics.median(untraced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    })
    for name in VERIFY_CHECKS:
        out[f"experiments.check.{name}_s"] = (per_pass(tracer.check_s[name]), "s")
    return out


def write_trace(tracer: Tracer, path: Path, metrics: dict) -> None:
    spans = [s for s in tracer.spans if s is not None]
    origin = spans[0][1] if spans else 0.0
    payload = {
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[n, s - origin, e - origin, parent] for n, s, e, parent in spans],
        "dropped_spans": tracer.dropped_spans,
        "function_calls": dict(sorted(tracer.fn_calls.items())),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, allow_nan=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pchaos" / "__init__.py").is_file():
        print(f"error: no pchaos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = args.seed % 2**32

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    runner = Runner(args.workload, seed, work_dir)
    try:
        oracles.selftest()
        setup_wall, setup_scaled = runner.setup()
        detail = {"workload": args.workload, "seed": seed, "wall_setup_s": setup_wall, "setup_s": setup_scaled}
        if args.trace == 0:
            wall, scaled = runner.passes(args.seconds, minimum=2)
            detail.update(wall_pass_s=wall, pass_s=scaled, calibration_s=runner.calibration.times)
            metrics = {
                "pass_s": (statistics.median(scaled), "s"),
                "setup_s": (statistics.median(setup_scaled), "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
            runner.full_check()
        else:
            _, untraced = runner.passes(args.seconds / 2, minimum=1)
            tracer = Tracer()
            tracer.install(runner.pc)
            tracer.recording = True
            _, traced = runner.passes(args.seconds / 2, minimum=1, tracer=tracer)
            tracer.uninstall()
            runner.full_check()
            metrics = layer_metrics(tracer, traced, untraced)
            trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{seed}.json"
            write_trace(tracer, trace_file, metrics)
            detail.update(untraced_pass_s=untraced, traced_pass_s=traced, trace_file=str(trace_file.relative_to(ROOT)))
        correct = True
    except oracles.OracleMismatch as exc:
        print(f"incorrect output: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(runner.attempted, 1), "failed": runner.failed, "metrics": {}}))
        return 1
    detail["findings"] = getattr(runner.wl, "findings", [])
    detail["env"] = fingerprint(runner.pc)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

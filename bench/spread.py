"""Run a workload once per seed and report each metric's median and spread.

    python3 bench/spread.py --workload study-wide --seeds 1-10

Each run measures for BENCHMARK.json's run_seconds with tracing off. The
spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; a
metric's spread should stay well inside its bound in BENCHMARK.json.
Runs are sequential, so they do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range such as 1-10")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add((result["failed"], result["attempted"], result["failed"] / result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    print("failed/attempted:", sorted(shares))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        print(f"{name}: median {med:.5g} spread {spread:.4f} bound {bound} ({spread / bound:.2f} of it)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

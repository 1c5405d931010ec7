"""Reference figures for bench/README.md: single operations timed k times.

    python3 bench/reference.py            # prints one JSON object

Covers the README verify example, ``forward`` at p=2 L=20/24 and p=16
L=6, and grid-file save/load at 2^16 and 2^20 cells. Each entry gives the
median, the minimum and maximum, and the repeat count, with the
environment fingerprint. The 2^24-cell transforms hold about 0.8 GB.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

import run  # sets the one-thread environment before numpy is imported

import numpy as np


def timed(fn, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "min_s": min(times), "max_s": max(times), "repeats": repeats}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pc = run.import_pchaos()
    from pchaos import serialization as ser

    rng = np.random.default_rng(0)
    figures = {}

    def grid(p, level):
        size = p**level
        return pc.transform.StepFunction(p, level, rng.standard_normal(size) + 1j * rng.standard_normal(size))

    for N, repeats in ((5, 3), (6, 1)):
        figures[f"verify p=2,3,5 d=1,2,3 N={N}"] = timed(
            lambda: pc.experiments.verify_suite((2, 3, 5), (1, 2, 3), N, seed=1), repeats
        )
    for p, level, repeats in ((2, 20, 5), (2, 24, 3), (16, 6, 3)):
        f = grid(p, level)
        figures[f"forward p={p} L={level}"] = timed(lambda: pc.transform.forward(f), repeats)
        del f
    scratch = run.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for level, repeats in ((16, 5), (20, 3)):
            f = grid(2, level)
            path = os.path.join(tmp, f"grid-{level}.json")
            figures[f"save grid 2^{level} cells"] = timed(lambda: ser.save_step_function(path, f), repeats)
            figures[f"load grid 2^{level} cells"] = timed(lambda: ser.load_grid(path), repeats)
            figures[f"grid 2^{level} file MB"] = os.path.getsize(path) / 1e6
    print(json.dumps({"figures": figures, "env": run.fingerprint(pc)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer tracing from outside the library.

``Tracer.install`` replaces every public function of the traced modules, in
every ``pchaos`` module namespace that binds it, by a wrapper that opens a
span when the call crosses into another layer. Calls inside one layer open
no span, so a layer's self time is its spans' duration minus their child
spans, and the time of a pass outside every span is the benchmark's own.
A few wrappers also count work from argument and result sizes. No library
code changes; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("padic", "transform", "measures", "chaos", "experiments", "serialization", "cli")

# Inclusive timers: the outermost call of any listed function is timed once.
TAGS = {
    "transform.fast": ("transform.forward", "transform.inverse"),
    "transform.reference": (
        "transform.naive_forward",
        "transform.character_matrix",
        "transform.convolve_functions",
    ),
    "measures.pattern": ("measures.lemma1_pattern_residual", "measures.lemma2_pattern_residual"),
    "chaos.decomposition": ("chaos.decomposition_residual",),
    "serialization.write": tuple(
        "serialization." + n
        for n in (
            "save_step_function",
            "save_spectrum",
            "save_measure",
            "save_polynomial",
            "write_json_atomic",
            "write_text_atomic",
            "write_csv_atomic",
        )
    ),
    "serialization.read": tuple(
        "serialization." + n
        for n in ("load_grid", "load_step_function", "load_spectrum", "load_measure", "load_polynomial")
    ),
}
_TAG_OF = {fn: tag for tag, fns in TAGS.items() for fn in fns}

# Spans kept for the written trace; the aggregates never drop anything.
MAX_RECORDED_SPANS = 200_000


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


class Tracer:
    def __init__(self) -> None:
        self.self_s = Counter()
        self.calls = Counter()  # spans opened per layer
        self.fn_calls = Counter()  # every wrapped call, by "layer.function"
        self.tag_s = Counter()
        self.work = Counter()  # sizes counted from arguments and results
        self.check_s = Counter()
        self.bench_s = 0.0
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.recording = False
        self._stack = [["bench", 0.0, 0.0, -1]]
        self._tag_depth = Counter()
        self._last_check = 0.0
        self._patched: list[tuple] = []

    # -- bookkeeping -----------------------------------------------------

    def begin_pass(self) -> None:
        self._stack = [["bench", time.perf_counter(), 0.0, -1]]

    def end_pass(self, elapsed: float) -> None:
        """Charge the part of a pass outside every span to the benchmark."""
        self.bench_s += elapsed - self._stack[0][2]

    def _enter_tag(self, qualname, args, kwargs):
        tag = _TAG_OF.get(qualname)
        if tag is None:
            return None
        self._tag_depth[tag] += 1
        if self._tag_depth[tag] > 1:
            return (tag, None, None)
        path = None
        if tag == "serialization.read":
            path = _path_arg(args, kwargs)
            self.work["serialization.bytes_read"] += os.path.getsize(path)
        elif tag == "serialization.write":
            path = _path_arg(args, kwargs)
        return (tag, time.perf_counter(), path)

    def _exit_tag(self, state) -> None:
        tag, start, path = state
        self._tag_depth[tag] -= 1
        if start is None:
            return
        self.tag_s[tag] += time.perf_counter() - start
        if tag == "serialization.write" and os.path.exists(path):
            self.work["serialization.bytes_written"] += os.path.getsize(path)

    def _count(self, qualname, args, result) -> None:
        if qualname in ("transform.forward", "transform.inverse"):
            grid = args[0]
            p, level = grid.p, grid.level
            self.work["transform.cells"] += p**level
            # L stages of a p x p complex contraction over p^(L-1) blocks.
            self.work["transform.ops_computed"] += level * p ** (level + 1)
            # Each stage and the final digit reversal read and write the array.
            self.work["transform.bytes_computed"] += (level + 1) * 2 * 16 * p**level
        elif qualname == "chaos.project_J":
            self.work["chaos.project_J.scanned"] += len(args[0].coeffs)
            self.work["chaos.project_J.kept"] += len(result.coeffs)

    def wrap(self, layer: str, name: str, fn):
        qualname = f"{layer}.{name}"
        tracer = self
        counted = qualname in ("transform.forward", "transform.inverse", "chaos.project_J")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.fn_calls[qualname] += 1
            tag = tracer._enter_tag(qualname, args, kwargs)
            stack = tracer._stack
            same_layer = stack[-1][0] == layer
            if not same_layer:
                slot = -1
                if tracer.recording:
                    if len(tracer.spans) < MAX_RECORDED_SPANS:
                        slot = len(tracer.spans)
                        tracer.spans.append(None)
                    else:
                        tracer.dropped_spans += 1
                frame = [layer, time.perf_counter(), 0.0, slot]
                if qualname == "experiments.verify_suite":
                    tracer._last_check = frame[1]
                stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                if not same_layer:
                    end = time.perf_counter()
                    stack.pop()
                    duration = end - frame[1]
                    tracer.self_s[layer] += duration - frame[2]
                    stack[-1][2] += duration
                    tracer.calls[layer] += 1
                    if frame[3] >= 0:
                        tracer.spans[frame[3]] = (qualname, frame[1], end, stack[-1][3])
                if tag is not None:
                    tracer._exit_tag(tag)
            if counted:
                tracer._count(qualname, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, pc) -> None:
        """Wrap the public functions of every traced layer of package ``pc``."""
        modules = [m for n, m in sys.modules.items() if n == "pchaos" or n.startswith("pchaos.")]
        replacements = {}
        for layer in LAYERS:
            module = getattr(pc, layer)
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    replacements[id(obj)] = self.wrap(layer, name, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    self._patched.append((module, name, obj))
                    setattr(module, name, replacements[id(obj)])
        self._install_polynomial_counter(pc.chaos.ChaosPolynomial)
        self._install_check_clock(pc.experiments)

    def _install_polynomial_counter(self, cls) -> None:
        """Count ChaosPolynomial constructions and the terms they validate,
        and time validation as chaos work."""
        original = cls.__post_init__
        tracer = self

        def counting(poly):
            tracer.work["chaos.polynomials"] += 1
            tracer.work["chaos.terms_validated"] += len(poly.coeffs)
            return original(poly)

        counting.__name__ = "ChaosPolynomial"
        self._patched.append((cls, "__post_init__", original))
        cls.__post_init__ = self.wrap("chaos", "ChaosPolynomial", counting)

    def _install_check_clock(self, experiments) -> None:
        """Time each verify check as the interval since the previous
        CheckResult (or the start of the suite) was created."""
        original = experiments.CheckResult
        tracer = self

        def check_result(name, *args, **kwargs):
            now = time.perf_counter()
            tracer.check_s[name] += now - tracer._last_check
            tracer._last_check = now
            return original(name, *args, **kwargs)

        self._patched.append((experiments, "CheckResult", original))
        experiments.CheckResult = check_result

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

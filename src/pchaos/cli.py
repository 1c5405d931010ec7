"""Command-line interface.

Subcommands: transform, riesz, lemma1, lemma2, norms, project, decompose,
ensemble, growth, verify. Every self-check is held to a fixed tolerance
from pchaos.config, and transform infers its direction from the input
file's kind. Exit codes: 0 success with every check inside tolerance, 1 a
check failed, 2 usage or input-format error. All files are
written atomically and every JSON artifact echoes the fully resolved
configuration that produced it. The reports of norms, ensemble, growth and
verify also carry a top-level ``env`` block (pchaos, numpy and Python
versions, platform), so a drift in their numbers can be traced to its
cause. All file I/O goes through `serialization`, which only this module
calls; the math modules stay pure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import platform
import sys

import numpy as np

from .config import (
    CONSTRUCTION_TOL,
    LEMMA1_PATTERN_TOL,
    MASS_TOL,
    TRANSFORM_TOL,
    check_norm_exponent,
)
from .errors import ChaosError
from .measures import (
    MeasureRep,
    _riesz_block,
    _riesz_mass,
    lemma1_measure,
    lemma1_pattern_residual,
    lemma2_measure,
    lemma2_pattern_residual,
)
from .chaos import (
    _row_norms,
    convolve_with_measure,
    decomposition_residual,
    polynomial_spectrum,
    project_J,
    project_order,
)
from ._substreams import ENSEMBLES
from .experiments import (
    ExperimentConfig,
    ExperimentRow,
    growth_study,
    random_ensemble_study,
    verify_suite,
)
from .transform import StepFunction, forward, inverse
from . import __version__
from . import serialization as ser


def _number(token: str, kind: type):
    try:
        return kind(token)
    except ValueError:
        raise ChaosError(f"{token!r} is not a valid {kind.__name__}") from None


def _int_list(text: str) -> list[int]:
    return [_number(x, int) for x in text.split(",") if x != ""]


def _complex_list(text: str) -> list[complex]:
    return [_number(x, complex) for x in text.split(",") if x != ""]


def _echo(config: dict) -> dict:
    return {"format_version": ser.FORMAT_VERSION, "config": config}


@functools.cache
def _env() -> dict:
    """Environment fingerprint of a report, built once per process.

    The platform is os.uname's system, release and machine: platform.platform()
    would also scan the interpreter binary for its libc version and import
    subprocess, about 0.5 MiB of resident memory for one more field."""
    return {
        "pchaos": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": "-".join((platform.system(), platform.release(), platform.machine())),
    }


def _emit(args, payload: dict) -> None:
    """Write a report, with the ``env`` block, to --out or stdout."""
    payload = payload | {"env": dict(_env())}
    if getattr(args, "out", None):
        ser.write_json_atomic(args.out, payload)
        print(f"wrote {args.out}")
    else:
        print(ser.dump_json(payload), end="")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    obj = ser.load_grid(args.input)
    if isinstance(obj, StepFunction):
        direction, result = "forward", forward(obj)
    else:
        direction, result = "inverse", inverse(obj)
    ser.save_grid(args.out, result, extras=_echo({"direction": direction}))
    print(f"{direction}: p={obj.p} level={obj.level} -> {args.out}")
    return 0


def cmd_riesz(args) -> int:
    a = _complex_list(args.a)
    j = _int_list(args.j)
    block = _riesz_block(args.p, args.level, [a], [j])
    integral, variation, min_density = (
        float(rows[0]) for rows in _riesz_mass(block, args.p, args.level)
    )
    checks = {
        "integral_error": abs(integral - 1.0),
        "variation_error": abs(variation - 1.0),
        "min_density": min_density,
    }
    ok = max(checks["integral_error"], checks["variation_error"], -min_density) <= MASS_TOL
    if args.out:
        measure = MeasureRep(
            forward(StepFunction(args.p, args.level, block[0])),
            variation,
            {
                "construction": "riesz",
                "p": args.p,
                "a": [complex(x) for x in a],
                "j": tuple(j),
            },
        )
        config = {"p": args.p, "level": args.level, "a": args.a, "j": args.j}
        ser.save_grid(args.out, measure, extras=_echo(config) | {"checks": checks})
    print(
        f"riesz: p={args.p} level={args.level} integral={integral:.12f} "
        f"variation={variation:.12f} min={min_density:.3e} "
        f"[{'ok' if ok else 'FAIL'}]"
    )
    return 0 if ok else 1


def cmd_selector(args) -> int:
    # what differs between lemma1 and lemma2: the argument that picks the
    # selected terms and its parser, the measure and its pattern residual
    # (both take p or the measure, d, that argument, then level or N), the
    # names of the residual pair and the tolerance they are held to
    key, parse, build, pattern_residual, names, tol = {
        "lemma1": (
            "J", _int_list, lemma1_measure, lemma1_pattern_residual,
            ("matched", "mismatched"), LEMMA1_PATTERN_TOL,
        ),
        "lemma2": (
            "s", int, lemma2_measure, lemma2_pattern_residual,
            ("kept", "killed"), CONSTRUCTION_TOL,
        ),
    }[args.command]
    chosen = parse(getattr(args, key))
    measure = build(args.p, args.d, chosen, args.N + 1)
    residuals = pattern_residual(measure, args.d, chosen, args.N)
    ok = all(r <= tol for r in residuals)
    config = {"p": args.p, "d": args.d, key: chosen, "N": args.N}
    summary = {f"{name}_residual": r for name, r in zip(names, residuals)}
    summary |= {"tolerance": tol, "passed": ok}
    if args.out:
        ser.save_grid(args.out, measure, extras=_echo(config) | {"pattern_check": summary})
    # the line names the scalar parameters: J is one exponent per position
    params = " ".join(f"{k}={v}" for k, v in config.items() if k != "J")
    found = " ".join(f"{name}={r:.3e}" for name, r in zip(names, residuals))
    print(
        f"{args.command}: {params} {found} variation={measure.variation:.6f} "
        f"[{'ok' if ok else 'FAIL'}]"
    )
    return 0 if ok else 1


def cmd_norms(args) -> int:
    if args.q is not None:
        check_norm_exponent(args.q)
    Q = ser.load_polynomial(args.poly)
    q = args.q if args.q is not None else Q.sidon_exponent
    sups, cells, norms, _, _ = _row_norms(Q, lambda rows: Q.values[None], 1, (1.0, q, None))
    sup, (l1, lq, sidon) = float(sups[0]), norms[:, 0].tolist()
    payload = _echo({"poly": args.poly, "q": q}) | {
        "linf": sup,
        "argmax_cell": cells[0],
        "l1": l1,
        "lq": lq,
        "sidon_ratio": sidon / sup,
        "orders": list(Q.orders),
        "terms": Q.indices.size,
    }
    _emit(args, payload)
    return 0


def cmd_project(args) -> int:
    if (args.J is None) == (args.order is None):
        raise ChaosError("exactly one of --J and --order is required")
    Q = ser.load_polynomial(args.poly)
    level = Q.N + 1
    if args.J is not None:
        J = _int_list(args.J)
        result = project_J(Q, J)
        measure = lemma1_measure(Q.p, Q.order, J, level)
        mode = {"J": J}
    else:
        result = project_order(Q, args.order)
        measure = lemma2_measure(Q.p, Q.order, args.order, level)
        mode = {"order": args.order}
    route = convolve_with_measure(Q, measure)
    direct = polynomial_spectrum(result, level)
    residual = float(np.abs(route.coeffs - direct.coeffs).max())
    ok = residual <= CONSTRUCTION_TOL
    config = _echo({"poly": args.poly} | mode)
    if args.out:
        ser.save_polynomial(
            args.out,
            result,
            extras=config | {"route_residual": residual, "passed": ok},
        )
    print(
        f"project: terms {Q.indices.size} -> {result.indices.size}, "
        f"route residual {residual:.3e} [{'ok' if ok else 'FAIL'}]"
    )
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    Q = ser.load_polynomial(args.poly)
    residual = decomposition_residual(Q)
    ok = residual <= TRANSFORM_TOL
    print(
        f"decompose: p={Q.p} N={Q.N} order={Q.order} residual={residual:.3e} "
        f"[{'ok' if ok else 'FAIL'}]"
    )
    return 0 if ok else 1


def _study_csv(path: str, report) -> None:
    fieldnames = ["format_version", *(f.name for f in dataclasses.fields(ExperimentRow))]
    rows = [
        {"format_version": ser.FORMAT_VERSION} | row.to_dict() for row in report.rows
    ]
    ser.write_csv_atomic(path, fieldnames, rows)


def cmd_study(args) -> int:
    study = growth_study if args.command == "growth" else random_ensemble_study
    cfg = ExperimentConfig(
        p=args.p,
        d=args.d,
        N_values=tuple(_int_list(args.N)),
        trials=args.trials,
        seed=args.seed,
        ensemble=args.ensemble,
    )
    report = study(cfg)
    payload = {"format_version": ser.FORMAT_VERSION} | report.to_dict()
    if args.csv:
        _study_csv(args.csv, report)
        print(f"wrote {args.csv}")
    _emit(args, payload)
    for failure in report.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    report = verify_suite(_int_list(args.p), _int_list(args.d), args.N, seed=args.seed)
    payload = {"format_version": ser.FORMAT_VERSION} | report.to_dict()
    _emit(args, payload)
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        if check.residual is None:
            outcome = f"error: {check.context['error']}"
        else:
            outcome = f"residual {check.residual:.3e} (tol {check.tolerance:.1e})"
        print(f"[{status}] {check.name}: {outcome}", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pchaos",
        description="Transforms, Riesz product measures and chaos coefficient "
        "inequalities on p-adic cell grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="transform a cells file forward or a paley file back")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("riesz", help="build a Riesz product measure")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--a", required=True, help="comma-separated complex coefficients")
    p.add_argument("--j", required=True, help="comma-separated exponents")
    p.add_argument("--out")
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("lemma1", help="build the exponent-selector measure")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--J", required=True, help="comma-separated exponents, length N+1")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_selector)

    p = sub.add_parser("lemma2", help="build the order-selector measure")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_selector)

    p = sub.add_parser("norms", help="norms and ratio of a polynomial file")
    p.add_argument("--poly", required=True)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("project", help="exponent or order projection")
    p.add_argument("--poly", required=True)
    p.add_argument("--J", help="comma-separated exponents, length N+1")
    p.add_argument("--order", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("decompose", help="exponent-averaging identity residual")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_decompose)

    for name in ("ensemble", "growth"):
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--N", required=True, help="comma-separated top positions")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--ensemble", choices=ENSEMBLES, default="signs")
        p.add_argument("--out")
        p.add_argument("--csv")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=cmd_study)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--p", required=True, help="comma-separated bases")
    p.add_argument("--d", required=True, help="comma-separated orders")
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ChaosError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

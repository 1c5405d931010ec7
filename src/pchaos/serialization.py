"""Versioned file formats and atomic writers.

Grid files (JSON, format_version 1):

    {"format_version": 1, "kind": "cells" | "paley", "p": int, "level": int,
     "data": [[re, im], ...]}

``data`` has exactly p^level entries, in cell order for kind "cells" and
Paley order for kind "paley". Measure files use kind "paley" and add
{"variation": float, "provenance": {...}} (complex numbers as [re, im],
complex arrays as {"complex_array": pairs}); they load as their spectrum.
A file's own fields are written over the caller's ``extras``.

Polynomial files:

    {"format_version": 1, "p": int, "N": int,
     "terms": [{"k": [...], "l": [...], "re": float, "im": float}, ...]}

with terms sorted by (k, l). Every file is indented JSON with sorted keys,
except that a top-level ``data`` array is written compactly on one line;
any JSON layout loads, so indented ``data`` from older writers still does.
Floats are emitted as their repr, so stored values round-trip exactly. A
grid's ``data`` is not handed to json: `dump_json` fills one ``%`` format
of "[%r,%r]" per cell from the flat float64 array, writing the bytes json
would without a Python list per cell. Files are read as UTF-8, with the
cyclic garbage collector paused while json parses (`_load_header`).
Every number must be finite: NaN and infinity are not written (they are
not JSON); a NaN or Infinity token anywhere in a file, an overflowing
literal (1e999) in ``data`` or a term, and a JSON boolean where a number
belongs are FormatErrors on load, as is a file that is not UTF-8 or is
nested deeper than json's recursion limit.
Every writer goes through a temporary file in the target directory
followed by os.replace; readers never observe a partial file.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import tempfile
from itertools import chain
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from .chaos import ChaosPolynomial, _check_positions
from .config import check_base_level
from .errors import FormatError, InvalidExponent, MalformedIndex
from .measures import MeasureRep
from .padic import digit_matrix
from .transform import Spectrum, StepFunction

FORMAT_VERSION = 1


def _write_atomic(path: str, write: Callable[[TextIO], None], newline: str | None = None) -> None:
    """Run `write` on a temp file in the target directory, then os.replace
    it onto `path`; the temp file is removed if anything fails."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline=newline) as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_default(value: Any):
    """Fold numpy scalars and arrays into plain JSON types; a complex array
    becomes {"complex_array": [[re, im], ...]}."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"complex_array": _encode_array(value)}
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


# How the top-level "data" key opens at indent 2. A newline is escaped inside
# JSON strings and nested keys sit deeper, so only the top-level key matches.
_DATA_KEY = '\n  "data": '


def dump_json(payload: dict) -> str:
    """Indented, key-sorted JSON, except that a top-level ``data`` value, a
    grid's complex array, is written compactly on one line as [re, im]
    pairs.

    The envelope goes through json with ``data`` set to null. The grid does
    not: one ``%`` format, the envelope around one "[%r,%r]" per cell, is
    filled from the flat float64 view and is the whole text, so no Python
    list is built per cell and no partial text is copied. ``%r`` is
    float's repr, which is what json writes for a finite float, so the
    bytes are json's. A non-finite value is refused before anything is
    written."""
    options = dict(sort_keys=True, default=json_default, allow_nan=False)
    try:
        if "data" not in payload:
            return json.dumps(payload, indent=2, **options) + "\n"
        text = json.dumps(dict(payload, data=None), indent=2, **options)
    except ValueError as exc:
        raise FormatError(f"refusing to write invalid JSON: {exc}") from exc
    values = np.ascontiguousarray(payload["data"], dtype=np.complex128)
    if not np.isfinite(values).all():
        raise FormatError("refusing to write invalid JSON: data holds a non-finite number")
    head, _, tail = text.partition(_DATA_KEY + "null")
    cells = ",".join(["[%r,%r]"] * values.size)
    template = "".join(["%s", _DATA_KEY, "[", cells, "]%s\n"])
    return template % (head, *values.view(np.float64).tolist(), tail)


def write_json_atomic(path: str, payload: dict) -> None:
    text = dump_json(payload)
    _write_atomic(path, lambda handle: handle.write(text))


def write_csv_atomic(path: str, fieldnames: Sequence[str], rows: Iterable[dict]) -> None:
    def write(handle: TextIO) -> None:
        writer = csv.DictWriter(handle, fieldnames=list(fieldnames))
        writer.writeheader()
        writer.writerows(rows)

    _write_atomic(path, write, newline="")


def _require(payload: dict, field: str, path: str) -> Any:
    if field not in payload:
        raise FormatError(f"{path}: missing required field {field!r}")
    return payload[field]


def _load_header(path: str, *fields: str) -> tuple[dict, list[int]]:
    """Read a file's JSON object, check its format_version and return it with
    the named header fields, each required to be a JSON integer. A NaN or
    Infinity token is refused wherever it sits.

    The file is read as UTF-8 whatever the locale. The cyclic garbage
    collector is paused while json parses: parsing makes no reference
    cycles, and a grid's one list per cell would otherwise set off repeated
    full collections in a process that holds many live objects."""
    def refuse(token: str):
        raise FormatError(f"{path}: {token} is a non-finite number, not JSON")

    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle, parse_constant=refuse)
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None
    finally:
        if collecting:
            gc.enable()
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    version = _require(payload, "format_version", path)
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: format_version {version} unsupported (expected {FORMAT_VERSION})"
        )
    values = [_require(payload, field, path) for field in fields]
    for field, value in zip(fields, values):
        if type(value) is not int:  # bool is an int subclass: true is refused too
            raise FormatError(f"{path}: field {field!r} must be an integer, got {value!r}")
    return payload, values


def _encode_array(values: np.ndarray) -> list:
    return np.stack([values.real, values.imag], axis=1).tolist()


def _decode_array(data: Any, expected: int, path: str, field: str = "data") -> np.ndarray:
    if not isinstance(data, list) or len(data) != expected:
        raise FormatError(
            f"{path}: field {field!r} must hold {expected} [re, im] pairs"
        )
    if expected == 0:
        return np.zeros(0, dtype=np.complex128)
    try:
        pairs = np.array(data)
    except ValueError:
        pairs = None
    if pairs is None or pairs.dtype.kind not in "iuf" or pairs.shape != (expected, 2):
        raise FormatError(f"{path}: field {field!r} entries must be [re, im] pairs")
    # numpy promotes a boolean among numbers ([true, 0.0]) to 1.0 or 0.0, so
    # the parsed values of every pair holding a 0 or a 1 are looked at.
    suspects = np.flatnonzero(((pairs == 0) | (pairs == 1)).any(axis=1)).tolist()
    if any(type(x) is bool for i in suspects for x in data[i]):
        raise FormatError(f"{path}: field {field!r} holds a boolean, not a number")
    if not np.isfinite(pairs).all():
        raise FormatError(f"{path}: field {field!r} holds a non-finite number")
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128).reshape(-1)


def save_grid(
    path: str, grid: StepFunction | Spectrum | MeasureRep, extras: dict | None = None
) -> None:
    """Write a StepFunction as kind "cells", a Spectrum as kind "paley", or a
    MeasureRep as its spectrum plus "variation" and "provenance"; these
    fields are written over `extras`."""
    payload = dict(extras or {})
    if isinstance(grid, MeasureRep):
        payload |= {"variation": grid.variation, "provenance": grid.provenance}
        grid = grid.spectrum
    cells = isinstance(grid, StepFunction)
    payload |= {"format_version": FORMAT_VERSION, "kind": "cells" if cells else "paley"}
    payload |= {"p": grid.p, "level": grid.level, "data": grid.values if cells else grid.coeffs}
    write_json_atomic(path, payload)


save_step_function = save_grid  # the grid writer's earlier name (bench/reference.py)


def load_grid(path: str) -> StepFunction | Spectrum:
    """Load either grid kind; the payload's 'kind' field decides the type."""
    payload, (p, level) = _load_header(path, "p", "level")
    kind = _require(payload, "kind", path)
    check_base_level(p, level)
    data = _decode_array(_require(payload, "data", path), p**level, path)
    if kind == "cells":
        return StepFunction(p, level, data)
    if kind == "paley":
        return Spectrum(p, level, data)
    raise FormatError(f"{path}: unknown kind {kind!r} (expected 'cells' or 'paley')")


def save_polynomial(path: str, Q: ChaosPolynomial, extras: dict | None = None) -> None:
    digits = digit_matrix(Q.indices, Q.p, Q.N + 1)
    rows, positions = np.nonzero(digits)  # row-major: positions ascend within a term
    ks, ls = positions.tolist(), digits[rows, positions].tolist()
    ends = np.cumsum(np.count_nonzero(digits, axis=1)).tolist()
    terms = [
        {"k": ks[a:b], "l": ls[a:b], "re": re, "im": im}
        for a, b, (re, im) in zip([0] + ends, ends, _encode_array(Q.values))
    ]
    own = {"format_version": FORMAT_VERSION, "p": Q.p, "N": Q.N, "terms": terms}
    write_json_atomic(path, dict(extras or {}) | own)


def load_polynomial(path: str) -> ChaosPolynomial:
    payload, (p, N) = _load_header(path, "p", "N")
    raw_terms = _require(payload, "terms", path)
    if not isinstance(raw_terms, list):
        raise FormatError(f"{path}: field 'terms' must be a list")
    ks, ls, pairs = [], [], []
    for i, entry in enumerate(raw_terms):
        try:
            k, l = list(entry["k"]), list(entry["l"])
            pairs.append([entry["re"], entry["im"]])
        except (KeyError, TypeError) as exc:
            raise FormatError(
                f"{path}: terms[{i}] must carry fields 'k', 'l', 're', 'im'"
            ) from exc
        if not all(type(x) is int for x in k + l):  # true, 0.5 and "0" are refused
            raise FormatError(f"{path}: terms[{i}] positions and exponents must be integers")
        ks.append(k)
        ls.append(l)
    lengths = np.array([len(k) for k in ks], dtype=np.int64)
    if not np.array_equal(lengths, [len(l) for l in ls]):
        raise MalformedIndex(f"{path}: a term's positions and exponents differ in length")
    if lengths.size and lengths.min() == 0:
        raise MalformedIndex(f"{path}: a chaos term needs at least one position")
    starts = np.cumsum(lengths) - lengths
    try:
        positions = np.array(list(chain.from_iterable(ks)), dtype=np.int64)
    except OverflowError:
        raise MalformedIndex(f"{path}: a term position is out of range") from None
    try:
        exponents = np.array(list(chain.from_iterable(ls)), dtype=np.int64)
    except OverflowError:
        raise InvalidExponent(f"{path}: an exponent is out of range for base {p}") from None
    first = np.zeros(positions.size, dtype=bool)
    first[starts] = True
    if (positions < 0).any() or not (first[1:] | (positions[1:] > positions[:-1])).all():
        raise MalformedIndex(f"{path}: term positions must be strictly increasing and non-negative")
    if (exponents < 1).any():
        raise InvalidExponent(f"{path}: exponents must be at least 1")
    values = _decode_array(pairs, len(pairs), path, "terms")
    _check_positions(p, N)
    if (positions > N).any():
        raise MalformedIndex(f"{path}: a term position exceeds the top position {N}")
    if (exponents >= p).any():
        raise InvalidExponent(f"{path}: an exponent is out of range for base {p}")
    indices = np.add.reduceat(exponents * np.int64(p) ** positions, starts)
    ordered = np.sort(indices)
    if (ordered[1:] == ordered[:-1]).any():
        raise FormatError(f"{path}: a term is listed more than once")
    return ChaosPolynomial.from_indices(p, N, indices, values)

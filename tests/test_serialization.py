"""File format round trips and malformed-input diagnostics."""

import gc
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pchaos import ChaosPolynomial, FormatError, GuardExceeded, StepFunction, enumerate_Nd, forward
from pchaos import InvalidExponent, MalformedIndex, Spectrum
from pchaos import MeasureRep, lemma1_measure, random_chaos
from pchaos import serialization as ser


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def test_step_function_round_trip(tmp_path, rng):
    f = StepFunction(3, 3, rng.standard_normal(27) + 1j * rng.standard_normal(27))
    path = str(tmp_path / "f.json")
    ser.save_grid(path, f)
    loaded = ser.load_grid(path)
    assert isinstance(loaded, StepFunction)
    assert loaded.p == 3 and loaded.level == 3
    np.testing.assert_array_equal(loaded.values, f.values)  # repr round trip is exact


def test_spectrum_round_trip(tmp_path, rng):
    f = StepFunction(2, 4, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    s = forward(f)
    path = str(tmp_path / "s.json")
    ser.save_grid(path, s)
    loaded = ser.load_grid(path)
    assert isinstance(loaded, Spectrum)
    np.testing.assert_array_equal(loaded.coeffs, s.coeffs)


def test_measure_round_trip(tmp_path):
    # a measure file loads as its spectrum; variation and provenance are
    # written for the reader of the file
    nu = lemma1_measure(3, 2, [1, 2, 1, 2], 4)
    path = str(tmp_path / "nu.json")
    ser.save_grid(path, nu)
    loaded = ser.load_grid(path)
    assert isinstance(loaded, Spectrum)
    np.testing.assert_array_equal(loaded.coeffs, nu.spectrum.coeffs)
    payload = json.loads(Path(path).read_text())
    assert payload["variation"] == nu.variation
    assert payload["provenance"]["construction"] == "lemma1"
    assert tuple(payload["provenance"]["J"]) == (1, 2, 1, 2)
    coefficients = np.array(payload["provenance"]["coefficients"]["complex_array"])
    np.testing.assert_array_equal(
        coefficients.view(np.complex128).ravel(), nu.provenance["coefficients"]
    )


def test_extras_never_replace_the_files_own_fields(tmp_path, rng):
    f = StepFunction(2, 2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    path = str(tmp_path / "f.json")
    clash = {"level": 3, "p": 5, "kind": "paley", "format_version": 2, "data": [], "note": 1}
    ser.save_grid(path, f, extras=clash)
    loaded = ser.load_grid(path)
    assert isinstance(loaded, StepFunction) and (loaded.p, loaded.level) == (2, 2)
    np.testing.assert_array_equal(loaded.values, f.values)
    assert json.loads(Path(path).read_text())["note"] == 1
    nu = lemma1_measure(3, 1, [1, 2], 2)
    ser.save_grid(path, nu, extras={"variation": "x", "provenance": None})
    payload = json.loads(Path(path).read_text())
    assert payload["variation"] == nu.variation and payload["provenance"]["construction"] == "lemma1"
    Q = random_chaos(3, 2, 3, rng, "unimodular")
    ser.save_polynomial(path, Q, extras={"N": 9, "p": 2, "terms": [], "format_version": 0})
    assert ser.load_polynomial(path) == Q


def test_polynomial_round_trip(tmp_path, rng):
    Q = random_chaos(3, 2, 4, rng, "unimodular")
    path = str(tmp_path / "q.json")
    ser.save_polynomial(path, Q)
    loaded = ser.load_polynomial(path)
    assert loaded == Q


def test_polynomial_term_order_is_deterministic(tmp_path):
    terms = enumerate_Nd(3, 2, 2)
    Q = ChaosPolynomial(3, 2, {t: 1.0 for t in terms})
    path_a, path_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    ser.save_polynomial(path_a, Q)
    ser.save_polynomial(path_b, ChaosPolynomial(3, 2, dict(reversed(list(Q.coeffs.items())))))
    assert Path(path_a).read_text() == Path(path_b).read_text()


def test_missing_file():
    with pytest.raises(FormatError, match="no such file"):
        ser.load_grid("/nonexistent/file.json")


def test_malformed_json_reports_line(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as handle:
        handle.write('{"format_version": 1,\n  "kind": }')
    with pytest.raises(FormatError, match="line 2"):
        ser.load_grid(path)


def test_missing_field_reports_name(tmp_path):
    path = str(tmp_path / "incomplete.json")
    with open(path, "w") as handle:
        json.dump({"format_version": 1, "kind": "cells", "p": 2}, handle)
    with pytest.raises(FormatError, match="'level'"):
        ser.load_grid(path)


def test_wrong_version(tmp_path):
    path = str(tmp_path / "v2.json")
    with open(path, "w") as handle:
        json.dump({"format_version": 2}, handle)
    with pytest.raises(FormatError, match="format_version"):
        ser.load_grid(path)


def test_wrong_data_length(tmp_path):
    path = str(tmp_path / "short.json")
    with open(path, "w") as handle:
        json.dump(
            {"format_version": 1, "kind": "cells", "p": 2, "level": 2, "data": [[1, 0]]},
            handle,
        )
    with pytest.raises(FormatError, match="4"):
        ser.load_grid(path)


def test_atomic_write_leaves_no_partial(tmp_path):
    path = str(tmp_path / "out.json")
    ser.write_json_atomic(path, {"ok": True})
    assert json.loads(Path(path).read_text()) == {"ok": True}
    assert [p for p in os.listdir(tmp_path) if p.endswith(".part")] == []


def test_csv_writer(tmp_path):
    path = str(tmp_path / "rows.csv")
    ser.write_csv_atomic(path, ["a", "b"], [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1:] == ["1,2", "3,4"]


def _write(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_grid_refused(tmp_path, bad):
    path = str(tmp_path / "nan.json")
    data = [[0.0, 0.0]] * 4
    data[2] = [0.0, bad]
    _write(path, {"format_version": 1, "kind": "cells", "p": 2, "level": 2, "data": data})
    with pytest.raises(FormatError, match="non-finite"):
        ser.load_grid(path)


def test_non_finite_measure_fields_refused(tmp_path):
    # json writes NaN, Infinity and -Infinity tokens; none is JSON, and a
    # measure file holding one is refused wherever it sits
    nu = lemma1_measure(3, 1, [1, 2], 2)
    path = str(tmp_path / "nu.json")
    ser.save_grid(path, nu)
    payload = json.loads(Path(path).read_text())
    for field, value in (
        ("variation", float("nan")),
        ("provenance", {"bound": float("inf")}),
        ("provenance", {"c": {"complex_array": [[1.0, float("nan")]]}}),
        ("unknown", [0.0, {"x": float("-inf")}]),
    ):
        _write(path, dict(payload, **{field: value}))
        with pytest.raises(FormatError, match="non-finite") as caught:
            ser.load_grid(path)
        assert path in str(caught.value)


def test_guard_runs_before_size(tmp_path):
    path = str(tmp_path / "huge.json")
    _write(path, {"format_version": 1, "kind": "paley", "p": 2, "level": 30, "data": []})
    with pytest.raises(GuardExceeded):
        ser.load_grid(path)


def test_non_finite_polynomial_refused(tmp_path):
    path = str(tmp_path / "q.json")
    term = {"k": [0], "l": [1], "re": float("nan"), "im": 0.0}
    _write(path, {"format_version": 1, "p": 2, "N": 1, "terms": [term]})
    with pytest.raises(FormatError, match="non-finite"):
        ser.load_polynomial(path)


@pytest.mark.parametrize(
    "k,l",
    [([0], [3]), ([1, 0], [1, 1]), ([0, 0], [1, 1]), ([-1], [1]), ([5], [1]), ([0], [])],
)
def test_malformed_polynomial_terms(tmp_path, k, l):
    path = str(tmp_path / "q.json")
    term = {"k": k, "l": l, "re": 1.0, "im": 0.0}
    _write(path, {"format_version": 1, "p": 3, "N": 2, "terms": [term]})
    with pytest.raises((MalformedIndex, InvalidExponent)):
        ser.load_polynomial(path)


def test_empty_polynomial_round_trip(tmp_path):
    path = str(tmp_path / "q.json")
    ser.save_polynomial(path, ChaosPolynomial(3, 2, {}))
    assert ser.load_polynomial(path) == ChaosPolynomial(3, 2, {})


def test_writer_refuses_non_finite(tmp_path):
    path = str(tmp_path / "out.json")
    with pytest.raises(FormatError):
        ser.write_json_atomic(path, {"value": float("nan")})
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "terms",
    [
        [{"k": [0.5], "l": [1], "re": 1.0, "im": 0.0}],
        [{"k": "0", "l": [1], "re": 1.0, "im": 0.0}],
        [{"k": [0], "l": [1], "re": 1.0, "im": 0.0}, {"k": [0], "l": [1], "re": 2.0, "im": 0.0}],
    ],
)
def test_polynomial_terms_refused_as_format_errors(tmp_path, terms):
    path = str(tmp_path / "q.json")
    _write(path, {"format_version": 1, "p": 3, "N": 2, "terms": terms})
    with pytest.raises(FormatError):
        ser.load_polynomial(path)


def _term(k, l, re=1.0):
    return {"k": k, "l": l, "re": re, "im": 0.0}


@pytest.mark.parametrize(
    "header,terms,error",
    [
        ({}, [_term([True], [1])], FormatError),
        ({}, [_term(["0"], [1])], FormatError),
        ({}, [_term([0], [True])], FormatError),
        ({}, [_term([0], [1.0])], FormatError),
        ({}, [_term(0, [1])], FormatError),
        ({}, [_term([0], None)], FormatError),
        ({}, [[0, 1]], FormatError),
        ({}, [_term([0, 2], [1, 2]), _term([1], [1]), _term([0, 2], [1, 2])], FormatError),
        ({}, [_term([0], [0])], InvalidExponent),
        ({}, [_term([0, 1], [1, -1])], InvalidExponent),
        ({}, [_term([0], [3])], InvalidExponent),
        ({}, [_term([0], [10**30])], InvalidExponent),
        ({}, [_term([0], [-(10**30)])], InvalidExponent),
        ({}, [_term([3], [1])], MalformedIndex),
        ({}, [_term([0, 10**30], [1, 1])], MalformedIndex),
        ({}, [_term([1], [1]), _term([1, 0], [1, 1])], MalformedIndex),
        ({}, [_term([2, 2], [1, 1])], MalformedIndex),
        ({}, [_term([-1], [1])], MalformedIndex),
        ({}, [_term([0, 1], [1])], MalformedIndex),
        ({}, [_term([0], [])], MalformedIndex),
        ({}, [_term([], [])], MalformedIndex),
        ({"N": -1}, [_term([0], [1])], MalformedIndex),
        ({"N": -1}, [], MalformedIndex),
        ({"p": 1}, [_term([0], [1])], GuardExceeded),
        ({"p": 17}, [_term([0], [1])], GuardExceeded),
        ({"N": 63}, [_term([0], [1])], GuardExceeded),
    ],
)
def test_polynomial_refusal_classes(tmp_path, header, terms, error):
    """Each malformed term or header is refused with one error class (p=3,
    N=2 unless set); test_malformed_polynomial_terms and
    test_polynomial_terms_refused_as_format_errors hold further cases."""
    path = str(tmp_path / "q.json")
    _write(path, {"format_version": 1, "p": 3, "N": 2, "terms": terms} | header)
    with pytest.raises(error) as caught:
        ser.load_polynomial(path)
    assert type(caught.value) is error


# ---------------------------------------------------------------------------
# Compact data writer
# ---------------------------------------------------------------------------


def _indented(payload):
    """The fully indented encoding, as every file was written before ``data``
    became compact."""
    text = json.dumps(
        payload, indent=2, sort_keys=True, default=ser.json_default, allow_nan=False
    )
    return text + "\n"


def _pairs(payload):
    """The payload with a grid's complex ``data`` array as the [re, im] pairs
    json writes for it."""
    if "data" not in payload:
        return payload
    return dict(payload, data=ser._encode_array(payload["data"]))


@pytest.fixture
def payloads(monkeypatch, rng):
    """The payloads the save functions hand to the writer, by file kind."""
    captured = {}
    monkeypatch.setattr(ser, "write_json_atomic", captured.__setitem__)
    f = StepFunction(3, 2, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    ser.save_grid("grid", f, extras={"config": {"data": [1, 2], "p": 3}})
    nu = lemma1_measure(3, 2, [1, 2, 1], 3)
    nested = MeasureRep(nu.spectrum, nu.variation, nu.provenance | {"data": {"data": [0.25]}})
    ser.save_grid("measure", nested)
    ser.save_polynomial("polynomial", random_chaos(3, 2, 3, rng, "unimodular"))
    return captured


@pytest.mark.parametrize("kind", ["grid", "measure", "polynomial"])
def test_compact_writer_encodes_the_same_json(payloads, kind):
    payload = payloads[kind]
    assert json.loads(ser.dump_json(payload)) == json.loads(_indented(_pairs(payload)))


@pytest.mark.parametrize("kind", ["grid", "measure"])
def test_top_level_data_is_one_compact_line(payloads, kind):
    """Only the top-level data value changes: it is the one-line compact
    encoding, and the rest of the text, nested "data" keys included, is
    byte for byte the indented encoding."""
    payload = payloads[kind]
    text = ser.dump_json(payload)
    compact = json.dumps(ser._encode_array(payload["data"]), separators=(",", ":"))
    assert "\n" not in compact
    assert text.count('  "data": ' + compact) == 1
    assert text.replace('"data": ' + compact, '"data": null') == _indented(
        dict(payload, data=None)
    )
    decoded = json.loads(text)
    if kind == "grid":
        assert decoded["config"]["data"] == [1, 2]
    else:
        assert decoded["provenance"]["data"] == {"data": [0.25]}
        assert '\n      "data": [\n        0.25\n' in text


def test_payload_without_data_is_written_as_before(payloads):
    report = {
        "format_version": 1,
        "config": {"p": [2, 3], "data": [0.5, 1.5], "N": np.int64(4)},
        "checks": [{"name": "parseval", "residual": 1.5e-16, "passed": np.bool_(True)}],
        "meta": {"check_wall_s": {"parseval": np.float64(0.01)}},
    }
    assert ser.dump_json(report) == _indented(report)
    assert ser.dump_json(payloads["polynomial"]) == _indented(payloads["polynomial"])


@pytest.mark.parametrize("kind", ["grid", "measure"])
def test_indented_files_still_load(tmp_path, payloads, kind):
    old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
    with open(old, "w") as handle:
        handle.write(_indented(_pairs(payloads[kind])))
    Path(new).write_text(ser.dump_json(payloads[kind]))
    assert os.path.getsize(new) < os.path.getsize(old)
    a, b = ser.load_grid(old), ser.load_grid(new)
    a, b = (x.values if kind == "grid" else x.coeffs for x in (a, b))
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("part", [0, 1])
def test_non_finite_data_refused_before_any_file(tmp_path, bad, part):
    coeffs = np.zeros(4, dtype=np.complex128)
    coeffs.view(np.float64)[2 + part] = bad
    path = str(tmp_path / "s.json")
    with pytest.raises(FormatError, match="invalid JSON"):
        ser.save_grid(path, Spectrum(2, 2, coeffs))
    assert os.listdir(tmp_path) == []


# Floats whose repr sits on a boundary of float.__repr__: signed zero, the
# subnormals, the smallest normal, the switch to exponent notation at 1e16
# and below 1e-4, integral values and the ends of the range.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.5e-320, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e16, 9999999999999998.0, 1.23e17, 1e-4, 9.999999999999999e-05, 9.99e-5, 1e-5,
    1.0, -3.0, 2.0**53, 2.0**53 + 2, 12345678.0, math.nextafter(1.0, 2.0),
    sys.float_info.max, -sys.float_info.max,
]
WRITER_FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
TEXT = st.text(alphabet='%srd()[]{}"\\\n data', max_size=8)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), WRITER_FLOATS, TEXT),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)


def _spliced(payload):
    """The grid file as json writes it: the indented envelope with a null
    ``data``, and json's compact encoding of the [re, im] pairs spliced in."""
    options = dict(sort_keys=True, default=ser.json_default, allow_nan=False)
    envelope = json.dumps(dict(payload, data=None), indent=2, **options)
    head, key, tail = envelope.partition('\n  "data": null')
    assert key
    pairs = json.dumps(ser._encode_array(payload["data"]), separators=(",", ":"), **options)
    return head + '\n  "data": ' + pairs + tail + "\n"


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from([(2, 0), (3, 0), (2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (2, 5)]),
    floats=st.lists(WRITER_FLOATS, min_size=64, max_size=64),
    measure=st.booleans(),
    extras=st.dictionaries(TEXT, JSON_VALUES, max_size=3),
    provenance=st.dictionaries(TEXT, JSON_VALUES, max_size=3),
)
def test_grid_writer_is_byte_identical_to_json(shape, floats, measure, extras, provenance):
    # extras may name "data": save_grid writes the grid's own data over it
    p, level = shape
    size = p**level
    values = np.array(floats[: 2 * size]).view(np.complex128)
    grid = Spectrum(p, level, values) if measure else StepFunction(p, level, values)
    if measure:
        grid = MeasureRep(grid, 1.5, provenance | {"data": {"data": values[:2]}, "%s": "%r%%"})
    captured = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ser, "write_json_atomic", captured.__setitem__)
        ser.save_grid("grid", grid, extras=extras | {"%": "%(data)s"})
    payload = captured["grid"]
    np.testing.assert_array_equal(payload["data"], values)
    assert ser.dump_json(payload) == _spliced(payload)


# ---------------------------------------------------------------------------
# Reading: encoding, nesting and the collector
# ---------------------------------------------------------------------------


def _unreadable_files(tmp_path):
    """Files that _load_header refuses, each with a word of its message."""
    files = {
        "invalid UTF-8": (b'{"format_version": 1, "note": "\xff"}', "UTF-8"),
        "nested too deeply": (b"[" * 200_000 + b"]" * 200_000, "nested"),
        "invalid JSON": (b"{not json", "line 1"),
        "not an object": (b"[]", "object"),
        "wrong version": (b'{"format_version": 2}', "format_version"),
    }
    paths = {}
    for name, (raw, word) in files.items():
        path = tmp_path / (name.replace(" ", "-") + ".json")
        path.write_bytes(raw)
        paths[name] = (str(path), word)
    paths["missing"] = (str(tmp_path / "missing.json"), "no such file")
    return paths


def test_unreadable_files_are_format_errors(tmp_path):
    for name, (path, word) in _unreadable_files(tmp_path).items():
        for load in (ser.load_grid, ser.load_polynomial):
            with pytest.raises(FormatError, match=word):
                load(path)


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path, monkeypatch):
    # an open() whose default encoding is latin-1 stands in for a locale
    # that is not UTF-8; a non-ASCII provenance string still reads as written
    monkeypatch.setattr(
        ser, "open", lambda file, encoding="latin-1": open(file, encoding=encoding), raising=False
    )
    nu = lemma1_measure(3, 1, [1, 2], 2)
    nu = MeasureRep(nu.spectrum, nu.variation, nu.provenance | {"note": "\u03bd \u2265 0"})
    path = Path(tmp_path / "nu.json")
    ser.save_grid(str(path), nu)
    path.write_text(path.read_text().replace("\\u03bd \\u2265", "\u03bd \u2265"), encoding="utf-8")
    assert "\u03bd \u2265".encode() in path.read_bytes()
    payload, _ = ser._load_header(str(path), "p", "level")
    assert payload["provenance"]["note"] == "\u03bd \u2265 0"
    assert isinstance(ser.load_grid(str(path)), Spectrum)


@pytest.mark.parametrize("depth", [500, 900, 2000, 200_000])
def test_deep_provenance_loads_or_is_a_format_error(tmp_path, depth):
    # json's parser recurses to depths that differ between Python versions;
    # at every depth the load either succeeds or is a FormatError, never a
    # RecursionError
    nu = lemma1_measure(3, 1, [1, 2], 2)
    path = tmp_path / "nu.json"
    ser.save_grid(str(path), nu)
    deep = '"provenance": {"deep": ' + "[" * depth + "]" * depth + ","
    path.write_text(path.read_text().replace('"provenance": {', deep, 1))
    try:
        loaded = ser.load_grid(str(path))
    except FormatError as exc:
        assert "nested too deeply" in str(exc)
    else:
        np.testing.assert_array_equal(loaded.coeffs, nu.spectrum.coeffs)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_header_pauses_and_restores_the_collector(tmp_path, rng, monkeypatch, enabled):
    path = str(tmp_path / "f.json")
    ser.save_grid(path, StepFunction(2, 3, rng.standard_normal(8) + 0j))
    during = []
    parse = json.load
    monkeypatch.setattr(
        json, "load", lambda handle, **kw: during.append(gc.isenabled()) or parse(handle, **kw)
    )
    cases = {"valid": (path, None)} | _unreadable_files(tmp_path)
    was = gc.isenabled()
    try:
        for name, (case, word) in cases.items():
            (gc.enable if enabled else gc.disable)()
            during.clear()
            if word is None:
                ser.load_grid(case)
            else:
                with pytest.raises(FormatError, match=word):
                    ser.load_grid(case)
            assert gc.isenabled() is enabled, name
            assert during == ([] if name == "missing" else [False]), name
    finally:
        (gc.enable if was else gc.disable)()

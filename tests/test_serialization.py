"""File format round trips and malformed-input diagnostics."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

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
    ser.save_step_function(path, f)
    loaded = ser.load_grid(path)
    assert isinstance(loaded, StepFunction)
    assert loaded.p == 3 and loaded.level == 3
    np.testing.assert_array_equal(loaded.values, f.values)  # repr round trip is exact


def test_spectrum_round_trip(tmp_path, rng):
    f = StepFunction(2, 4, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    s = forward(f)
    path = str(tmp_path / "s.json")
    ser.save_spectrum(path, s)
    loaded = ser.load_grid(path)
    assert isinstance(loaded, Spectrum)
    np.testing.assert_array_equal(loaded.coeffs, s.coeffs)


def test_measure_round_trip(tmp_path):
    nu = lemma1_measure(3, 2, [1, 2, 1, 2], 4)
    path = str(tmp_path / "nu.json")
    ser.save_measure(path, nu)
    loaded = ser.load_measure(path)
    np.testing.assert_array_equal(loaded.spectrum.coeffs, nu.spectrum.coeffs)
    assert loaded.variation == nu.variation
    assert loaded.provenance["construction"] == "lemma1"
    assert tuple(loaded.provenance["J"]) == (1, 2, 1, 2)
    np.testing.assert_array_equal(
        loaded.provenance["coefficients"], nu.provenance["coefficients"]
    )


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
    nu = lemma1_measure(3, 1, [1, 2], 2)
    path = str(tmp_path / "nu.json")
    ser.save_measure(path, nu)
    payload = json.loads(Path(path).read_text())
    for field, value in (("variation", float("nan")), ("provenance", {"bound": float("inf")})):
        broken = dict(payload, **{field: value})
        _write(path, broken)
        with pytest.raises(FormatError, match="non-finite|finite number"):
            ser.load_measure(path)
    broken = dict(payload, provenance={"c": {"complex_array": [[1.0, float("nan")]]}})
    _write(path, broken)
    with pytest.raises(FormatError, match="non-finite"):
        ser.load_measure(path)


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


@pytest.fixture
def payloads(monkeypatch, rng):
    """The payloads the save functions hand to the writer, by file kind."""
    captured = {}
    monkeypatch.setattr(ser, "write_json_atomic", captured.__setitem__)
    f = StepFunction(3, 2, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    ser.save_step_function("grid", f, extras={"config": {"data": [1, 2], "p": 3}})
    nu = lemma1_measure(3, 2, [1, 2, 1], 3)
    nested = MeasureRep(nu.spectrum, nu.variation, nu.provenance | {"data": {"data": [0.25]}})
    ser.save_measure("measure", nested)
    ser.save_polynomial("polynomial", random_chaos(3, 2, 3, rng, "unimodular"))
    return captured


@pytest.mark.parametrize("kind", ["grid", "measure", "polynomial"])
def test_compact_writer_encodes_the_same_json(payloads, kind):
    payload = payloads[kind]
    assert json.loads(ser.dump_json(payload)) == json.loads(_indented(payload))


@pytest.mark.parametrize("kind", ["grid", "measure"])
def test_top_level_data_is_one_compact_line(payloads, kind):
    """Only the top-level data value changes: it is the one-line compact
    encoding, and the rest of the text, nested "data" keys included, is
    byte for byte the indented encoding."""
    payload = payloads[kind]
    text = ser.dump_json(payload)
    compact = json.dumps(payload["data"], separators=(",", ":"))
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
    load = ser.load_grid if kind == "grid" else ser.load_measure
    old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
    with open(old, "w") as handle:
        handle.write(_indented(payloads[kind]))
    ser.write_text_atomic(new, ser.dump_json(payloads[kind]))
    assert os.path.getsize(new) < os.path.getsize(old)
    a, b = load(old), load(new)
    a, b = (x.values if kind == "grid" else x.spectrum.coeffs for x in (a, b))
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("part", [0, 1])
def test_non_finite_data_refused_before_any_file(tmp_path, bad, part):
    coeffs = np.zeros(4, dtype=np.complex128)
    coeffs.view(np.float64)[2 + part] = bad
    path = str(tmp_path / "s.json")
    with pytest.raises(FormatError, match="invalid JSON"):
        ser.save_spectrum(path, Spectrum(2, 2, coeffs))
    assert os.listdir(tmp_path) == []

"""Property tests over the file formats and the CLI exit-code contract.

Grid, measure and polynomial files round-trip exactly; a measure file
loads as its "paley" grid. A file with a missing field, a wrong data
length, a non-finite number (anywhere, for a NaN or Infinity token), a
JSON boolean where a number belongs, a non-integer position, a duplicate
term, a wrong format_version, a header p/level/N that is not a JSON
integer or a top level that is not a JSON object is refused by its loader
with FormatError; the CLI commands that read it exit 2 and write no output
file.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pchaos import ChaosPolynomial, FormatError, MeasureRep, Spectrum, StepFunction, term_indices
from pchaos import serialization as ser
from pchaos.cli import main

FINITE = st.floats(allow_nan=False, allow_infinity=False)
PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def grids(draw):
    p = draw(st.integers(2, 5))
    level = draw(st.integers(0, 3))
    size = p**level
    pairs = draw(st.lists(st.tuples(FINITE, FINITE), min_size=size, max_size=size))
    values = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    cls = draw(st.sampled_from((StepFunction, Spectrum)))
    return cls(p, level, values)


@st.composite
def measures(draw):
    spectrum = draw(grids().filter(lambda g: isinstance(g, Spectrum)))
    count = draw(st.integers(0, 4))
    pairs = draw(st.lists(st.tuples(FINITE, FINITE), min_size=count, max_size=count))
    provenance = {
        "construction": draw(st.sampled_from(("lemma1", "lemma2", "riesz"))),
        "p": spectrum.p,
        "J": draw(st.lists(st.integers(1, spectrum.p - 1), max_size=4)),
        "coefficients": np.array([complex(re, im) for re, im in pairs], dtype=np.complex128),
        "bound": draw(FINITE),
    }
    return MeasureRep(spectrum, draw(FINITE), provenance)


@st.composite
def polynomials(draw):
    p = draw(st.integers(2, 4))
    d = draw(st.integers(1, 2))
    N = draw(st.integers(d - 1, 3))
    indices = term_indices(p, d, N)
    keep = draw(st.lists(st.booleans(), min_size=len(indices), max_size=len(indices)))
    chosen = indices[np.array(keep, dtype=bool)]
    pairs = draw(st.lists(st.tuples(FINITE, FINITE), min_size=len(chosen), max_size=len(chosen)))
    coeffs = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    return ChaosPolynomial.from_indices(p, N, chosen, coeffs)


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _grid_values(grid):
    return grid.values if isinstance(grid, StepFunction) else grid.coeffs


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


@PROPERTY
@given(grid=grids())
def test_grid_round_trip(tmp_path, grid):
    path = str(tmp_path / "grid.json")
    ser.save_grid(path, grid)
    loaded = ser.load_grid(path)
    assert type(loaded) is type(grid) and (loaded.p, loaded.level) == (grid.p, grid.level)
    np.testing.assert_array_equal(_bits(_grid_values(loaded)), _bits(_grid_values(grid)))
    first = _read(path)
    ser.save_grid(path, loaded)
    assert _read(path) == first


@PROPERTY
@given(measure=measures())
def test_measure_round_trip(tmp_path, measure):
    path = str(tmp_path / "measure.json")
    ser.save_grid(path, measure)
    loaded = ser.load_grid(path)
    assert type(loaded) is Spectrum
    np.testing.assert_array_equal(_bits(loaded.coeffs), _bits(measure.spectrum.coeffs))
    payload = json.loads(_read(path))
    assert payload["variation"] == measure.variation
    pairs = np.array(payload["provenance"]["coefficients"]["complex_array"], dtype=np.float64)
    np.testing.assert_array_equal(
        _bits(pairs.reshape(-1, 2)).ravel(), _bits(measure.provenance["coefficients"]).ravel()
    )
    first = _read(path)
    ser.save_grid(path, MeasureRep(loaded, measure.variation, measure.provenance))
    assert _read(path) == first


@PROPERTY
@given(poly=polynomials())
def test_polynomial_round_trip(tmp_path, poly):
    path = str(tmp_path / "poly.json")
    ser.save_polynomial(path, poly)
    loaded = ser.load_polynomial(path)
    assert loaded == poly
    np.testing.assert_array_equal(_bits(loaded.values), _bits(poly.values))
    first = _read(path)
    ser.save_polynomial(path, loaded)
    assert _read(path) == first


@PROPERTY
@given(poly=polynomials())
def test_polynomial_file_matches_term_decoding(tmp_path, poly):
    """save_polynomial reads k/l off the digit matrix; its file is byte for
    byte the one built by decoding every term."""
    terms = [
        {"k": list(t.ks), "l": list(t.ls), "re": c.real, "im": c.imag}
        for t, c in poly.coeffs.items()
    ]
    path = str(tmp_path / "poly.json")
    ser.save_polynomial(path, poly)
    expected = {"format_version": 1, "p": poly.p, "N": poly.N, "terms": terms}
    assert _read(path) == ser.dump_json(expected).encode()


# ---------------------------------------------------------------------------
# Mutated files
# ---------------------------------------------------------------------------

GRID = {"format_version": 1, "kind": "cells", "p": 3, "level": 2, "data": [[0.5, -1.0]] * 9}
MEASURE = dict(
    GRID, kind="paley", variation=1.0, provenance={"construction": "riesz", "a": [0.5, 0.0]}
)
POLY = {
    "format_version": 1,
    "p": 3,
    "N": 2,
    "terms": [
        {"k": [0], "l": [1], "re": 1.0, "im": 0.0},
        {"k": [1], "l": [2], "re": 0.0, "im": -1.0},
        {"k": [0, 2], "l": [2, 1], "re": 0.5, "im": 0.5},
    ],
}
NON_FINITE = st.sampled_from((float("nan"), float("inf"), float("-inf")))
BAD_NUMBERS = st.one_of(NON_FINITE, st.booleans())
VERSIONS = st.sampled_from((0, 2, "1", None, 1.5, 1.0, True))
NON_INTEGERS = st.sampled_from((None, "3", 2.5, 3.0, True, [3]))
NON_OBJECTS = st.sampled_from((5, None, "cells", [], [1, 2]))


@st.composite
def grid_mutations(draw, base):
    payload = json.loads(json.dumps(base))
    kinds = ("missing", "length", "bad-number", "version", "header", "top-level")
    kind = draw(st.sampled_from(kinds))
    if kind == "missing":  # a grid field: a measure file needs no more to load
        del payload[draw(st.sampled_from(sorted(GRID)))]
    elif kind == "length":
        size = len(payload["data"])
        length = draw(st.integers(0, 2 * size).filter(lambda n: n != size))
        payload["data"] = [[0.0, 0.0]] * length
    elif kind == "bad-number":
        entry = draw(st.integers(0, len(payload["data"]) - 1))
        pair = list(payload["data"][entry])
        pair[draw(st.integers(0, 1))] = draw(BAD_NUMBERS)
        payload["data"][entry] = pair
    elif kind == "version":
        payload["format_version"] = draw(VERSIONS)
    elif kind == "header":
        payload[draw(st.sampled_from(("p", "level")))] = draw(NON_INTEGERS)
    else:
        payload = draw(NON_OBJECTS)
    return payload


@st.composite
def measure_mutations(draw):
    if draw(st.booleans()):
        return draw(grid_mutations(MEASURE))
    payload = json.loads(json.dumps(MEASURE))
    if draw(st.booleans()):
        payload["variation"] = draw(NON_FINITE)
    else:
        payload["provenance"]["a"][draw(st.integers(0, 1))] = draw(NON_FINITE)
    return payload


@st.composite
def poly_mutations(draw):
    payload = json.loads(json.dumps(POLY))
    terms = payload["terms"]
    kinds = (
        "missing", "term-field", "bad-number", "position", "duplicate", "version", "header",
        "top-level",
    )
    kind = draw(st.sampled_from(kinds))
    term = terms[draw(st.integers(0, len(terms) - 1))]
    if kind == "missing":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif kind == "term-field":
        del term[draw(st.sampled_from(("k", "l", "re", "im")))]
    elif kind == "bad-number":
        term[draw(st.sampled_from(("re", "im")))] = draw(BAD_NUMBERS)
    elif kind == "position":
        spot = draw(st.integers(0, len(term["k"]) - 1))
        k = term["k"][spot]
        term["k"][spot] = draw(st.sampled_from((k + 0.5, float(k), str(k), None)))
    elif kind == "duplicate":
        terms.insert(draw(st.integers(0, len(terms))), dict(term, re=draw(FINITE)))
    elif kind == "version":
        payload["format_version"] = draw(VERSIONS)
    elif kind == "header":
        payload[draw(st.sampled_from(("p", "N")))] = draw(NON_INTEGERS)
    else:
        payload = draw(NON_OBJECTS)
    return payload


def _write(path, payload):
    with open(path, "w") as handle:
        handle.write(json.dumps(payload))


@PROPERTY
@given(payload=grid_mutations(GRID))
def test_mutated_grid_refused(tmp_path, capsys, payload):
    path, out = str(tmp_path / "grid.json"), str(tmp_path / "out.json")
    _write(path, payload)
    with pytest.raises(FormatError):
        ser.load_grid(path)
    assert main(["transform", "--in", path, "--out", out]) == 2
    assert not os.path.exists(out)
    assert capsys.readouterr().err.startswith("error: ")


@PROPERTY
@given(payload=measure_mutations())
def test_mutated_measure_refused(tmp_path, capsys, payload):
    path, out = str(tmp_path / "measure.json"), str(tmp_path / "out.json")
    _write(path, payload)
    with pytest.raises(FormatError):
        ser.load_grid(path)
    assert main(["transform", "--in", path, "--out", out]) == 2
    assert not os.path.exists(out)
    assert capsys.readouterr().err.startswith("error: ")


@PROPERTY
@given(payload=poly_mutations())
def test_mutated_polynomial_refused(tmp_path, capsys, payload):
    path = str(tmp_path / "poly.json")
    _write(path, payload)
    with pytest.raises(FormatError):
        ser.load_polynomial(path)
    out = str(tmp_path / "out.json")
    for argv in (["norms"], ["project", "--order", "1"]):
        assert main(argv + ["--poly", path, "--out", out]) == 2
        assert not os.path.exists(out)
    assert main(["decompose", "--poly", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")

"""Each input rule has one guard: every entry point that takes a bad input
refuses it with the rule's one exception type and message."""

import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from pchaos import (
    ChaosPolynomial,
    ChaosTerm,
    ChaosError,
    CoefficientOutOfRange,
    GuardExceeded,
    InsufficientLevel,
    InvalidExponent,
    InvalidOrder,
    MalformedIndex,
    Spectrum,
    StepFunction,
    character_value,
    convolve_with_measure,
    lemma1_measure,
    lemma1_pattern_residual,
    lemma2_measure,
    lemma2_pattern_residual,
    polynomial_spectrum,
    project_order,
    random_chaos,
    rho_y_measure,
    riesz_density,
    term_indices,
    verify_suite,
)
from pchaos.experiments import ExperimentConfig
from pchaos.measures import selector_nodes
from pchaos.padic import check_cell, encode_terms, from_digits, paley_encode, to_digits
from pchaos.serialization import load_polynomial


def _base_entry_points(p):
    """Every entry point that takes a base, called with base `p` and
    otherwise admitted arguments."""
    return {
        "term_indices": lambda: term_indices(p, 1, 2),
        "to_digits": lambda: to_digits(1, p, 2),
        "from_digits": lambda: from_digits((1,), p),
        "paley_encode": lambda: paley_encode(ChaosTerm((0,), (1,)), p),
        "encode_terms": lambda: encode_terms(p, 1, [[0]], [[1]]),
        "check_cell": lambda: check_cell(p, 1, 0),
        "character_value": lambda: character_value(1, p, 1, 0),
        "StepFunction": lambda: StepFunction(p, 1, [0.0, 0.0]),
        "Spectrum": lambda: Spectrum(p, 1, [0.0, 0.0]),
        "riesz_density": lambda: riesz_density(p, 1, [0.5], [1]),
        "lemma1_measure": lambda: lemma1_measure(p, 1, [1], 1),
        "lemma2_measure": lambda: lemma2_measure(p, 1, 1, 1),
        "rho_y_measure": lambda: rho_y_measure(p, [1], [1], 1),
        "from_indices": lambda: ChaosPolynomial.from_indices(p, 1, [1], [1.0]),
    }


def _base_range_entry_points(p):
    """The entry points of `_base_entry_points`, and verify_suite, whose
    list of bases holds integers, so only the range rule reaches it."""
    return {**_base_entry_points(p), "verify_suite": lambda: verify_suite([p], [1], 2)}


def _level_entry_points(level):
    """Every entry point that takes a level, at p=2 and N=2."""
    Q = ChaosPolynomial.from_indices(2, 2, [1], [1.0])
    return {
        "check_cell": lambda: check_cell(2, level, 0),
        "character_value": lambda: character_value(1, 2, level, 0),
        "StepFunction": lambda: StepFunction(2, level, [0.0] * 8),
        "Spectrum": lambda: Spectrum(2, level, [0.0] * 8),
        "riesz_density": lambda: riesz_density(2, level, [0.5] * 3, [1] * 3),
        "lemma1_measure": lambda: lemma1_measure(2, 1, [1] * 3, level),
        "lemma2_measure": lambda: lemma2_measure(2, 1, 1, level),
        "rho_y_measure": lambda: rho_y_measure(2, [1] * 3, [1] * 3, level),
        "polynomial_spectrum": lambda: polynomial_spectrum(Q, level),
    }


def _order_entry_points(d):
    """Every entry point that takes a chaos order, at p=2 and N=2."""
    nu1 = lemma1_measure(2, 1, [1] * 3, 3)
    nu2 = lemma2_measure(2, 2, 1, 3)
    Q = ChaosPolynomial.from_indices(2, 2, [1, 3], [1.0, 1.0])
    return {
        "term_indices": lambda: term_indices(2, d, 2),
        "random_chaos": lambda: random_chaos(2, d, 2, np.random.default_rng(0)),
        "selector_nodes": lambda: selector_nodes(d),
        "lemma1_measure": lambda: lemma1_measure(2, d, [1] * 3, 3),
        "lemma2_measure": lambda: lemma2_measure(2, d, 1, 3),
        "lemma1_pattern_residual": lambda: lemma1_pattern_residual(nu1, d, [1] * 3, 2),
        "lemma2_pattern_residual": lambda: lemma2_pattern_residual(nu2, d, 1, 2),
        "project_order": lambda: project_order(Q, d),
    }


def _top_position_entry_points(N):
    """Every entry point that takes a top position N, at p=2 and order 1;
    the pattern residuals take it with a level-3 measure."""
    nu1 = lemma1_measure(2, 1, [1] * 3, 3)
    nu2 = lemma2_measure(2, 1, 1, 3)
    return {
        "term_indices": lambda: term_indices(2, 1, N),
        "random_chaos": lambda: random_chaos(2, 1, N, np.random.default_rng(0)),
        "from_indices": lambda: ChaosPolynomial.from_indices(2, N, [1], [1.0]),
        "ChaosPolynomial": lambda: ChaosPolynomial(2, N, {ChaosTerm((0,), (1,)): 1.0}),
        "encode_terms": lambda: encode_terms(2, N, [[0]], [[1]]),
        "lemma1_pattern_residual": lambda: lemma1_pattern_residual(nu1, 1, [1] * 3, N),
        "lemma2_pattern_residual": lambda: lemma2_pattern_residual(nu2, 1, 1, N),
        "verify_suite": lambda: verify_suite([2], [1], N),
    }


def _load_polynomial_with_top_position(N):
    """load_polynomial on a p=2 file of no terms with top position N."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poly.json")
        with open(path, "w") as f:
            json.dump({"format_version": 1, "p": 2, "N": N, "terms": []}, f)
        return load_polynomial(path)


def _top_position_range_entry_points(N, pattern_residuals=True):
    """The entry points of `_top_position_entry_points`, and the study
    config and the polynomial loader, whose N arrives in a list or a file
    that holds integers, so only the range rules reach them. Without
    `pattern_residuals`, which refuse a level-3 measure for an N past it
    first."""
    entry_points = {
        **_top_position_entry_points(N),
        "ExperimentConfig": lambda: ExperimentConfig(p=2, d=1, N_values=(N,), trials=1, seed=0),
        "load_polynomial": lambda: _load_polynomial_with_top_position(N),
    }
    if not pattern_residuals:
        del entry_points["lemma1_pattern_residual"], entry_points["lemma2_pattern_residual"]
    return entry_points


def _natural_entry_points(n):
    """Every entry point that takes a natural number (an index or a cell
    value read as digits), at p=2."""
    return {
        "to_digits": lambda: to_digits(n, 2, 3),
        "character_value": lambda: character_value(n, 2, 2, 0),
    }


def _short_level_entry_points():
    """Every entry point that needs a level of at least N+1, given level 2
    and N = 2."""
    Q = ChaosPolynomial.from_indices(2, 2, [1], [1.0])
    return {
        "polynomial_spectrum": lambda: polynomial_spectrum(Q, 2),
        "convolve_with_measure": lambda: convolve_with_measure(
            Q, lemma1_measure(2, 1, [1, 1], 2)
        ),
        "lemma1_pattern_residual": lambda: lemma1_pattern_residual(
            lemma1_measure(2, 1, [1, 1], 2), 1, [1, 1, 1], 2
        ),
        "lemma2_pattern_residual": lambda: lemma2_pattern_residual(
            lemma2_measure(2, 1, 1, 2), 1, 1, 2
        ),
    }


def _selected_order_entry_points():
    """Every entry point that takes a selected order s, given s = 3 > d = 2."""
    return {
        "lemma2_measure": lambda: lemma2_measure(2, 2, 3, 3),
        "lemma2_pattern_residual": lambda: lemma2_pattern_residual(
            lemma2_measure(2, 2, 1, 3), 2, 3, 2
        ),
    }


# (rule, the entry points given the bad input, exception type, message)
_RULES = [
    ("base-1", lambda: _base_range_entry_points(1), GuardExceeded, "base must be >= 2, got 1"),
    ("base-17", lambda: _base_range_entry_points(17), GuardExceeded,
     "base 17 exceeds the supported cap 16"),
    ("base-float", lambda: _base_entry_points(2.5), MalformedIndex,
     "p must be an integer, got 2.5"),
    ("base-str", lambda: _base_entry_points("3"), MalformedIndex, "p must be an integer, got '3'"),
    ("level-float", lambda: _level_entry_points(2.5), MalformedIndex,
     "level must be an integer, got 2.5"),
    ("level-25", lambda: _level_entry_points(25), GuardExceeded,
     "level 25 exceeds the supported cap 24"),
    ("level-short", _short_level_entry_points, InsufficientLevel,
     "level 2 cannot hold positions up to 2"),
    ("order-float", lambda: _order_entry_points(2.5), MalformedIndex,
     "order must be an integer, got 2.5"),
    ("order-bool", lambda: _order_entry_points(True), MalformedIndex,
     "order must be an integer, got True"),
    ("order-0", lambda: _order_entry_points(0), InvalidOrder, "order must be at least 1, got 0"),
    ("selected-order", _selected_order_entry_points, InvalidOrder, "selected order 3 not in 1..2"),
    ("N-float", lambda: _top_position_entry_points(2.5), MalformedIndex,
     "N must be an integer, got 2.5"),
    ("N-negative", lambda: _top_position_range_entry_points(-1), MalformedIndex,
     "top position must be >= 0, got -1"),
    ("N-wide", lambda: _top_position_range_entry_points(70, pattern_residuals=False),
     GuardExceeded, "2^71 Paley indices exceed the int64 range"),
    ("n-float", lambda: _natural_entry_points(2.5), MalformedIndex,
     "expected a natural number, got 2.5"),
    ("n-str", lambda: _natural_entry_points("3"), MalformedIndex,
     "expected a natural number, got '3'"),
    ("n-negative", lambda: _natural_entry_points(-1), MalformedIndex,
     "expected a natural number, got -1"),
    ("digit-float", lambda: {"from_digits": lambda: from_digits((1.5, 0), 2)}, MalformedIndex,
     "digits must be integers, got 1.5"),
    ("digit-bool", lambda: {"from_digits": lambda: from_digits((True, 1), 2)}, MalformedIndex,
     "digits must be integers, got True"),
]


@pytest.mark.parametrize(
    "entry_points, error, message", [rule[1:] for rule in _RULES], ids=[r[0] for r in _RULES]
)
def test_every_entry_point_refuses_a_bad_input_alike(entry_points, error, message):
    # base 1 was MalformedIndex in padic and GuardExceeded elsewhere, base
    # 17 passed the scalar digit functions, 2.5 ran as a digit, and lemma1
    # named its order "d" where every other entry point names it "order";
    # N = -1 was an empty order-1 index set to term_indices, and N = 70 at
    # p=2 a level past the cap to the study config
    refusals = {}
    for name, call in entry_points().items():
        with pytest.raises(Exception) as info:
            call()
        refusals[name] = (type(info.value), str(info.value))
    assert refusals == {name: (error, message) for name in refusals}


def _load_polynomial_term(ks, ls):
    """load_polynomial on a p=3, N=2 file whose one term is (ks, ls); a
    refusal is raised again without the file's path, which must prefix it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poly.json")
        term = {"k": ks, "l": ls, "re": 1.0, "im": 0.0}
        with open(path, "w") as f:
            json.dump({"format_version": 1, "p": 3, "N": 2, "terms": [term]}, f)
        try:
            return load_polynomial(path)
        except ChaosError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: "), message
            raise type(exc)(message[len(path) + 2:]) from None


def _term_entry_points(ks, ls, structural):
    """Every entry point that takes the term (ks, ls), at p=3 and N=2. A
    structural rule (one that needs no base or top position) is met by
    ChaosTerm, so the mapping constructor never sees the term; a rule on
    the base or N is met by the mapping constructor and `paley_encode`."""
    entry_points = {
        "load_polynomial": lambda: _load_polynomial_term(list(ks), list(ls)),
        "encode_terms": lambda: encode_terms(3, 2, [ks], [ls]),
    }
    if structural:
        entry_points["ChaosTerm"] = lambda: ChaosTerm(ks, ls)
    else:
        entry_points["ChaosPolynomial"] = lambda: ChaosPolynomial(3, 2, {ChaosTerm(ks, ls): 1.0})
        if max(ks) <= 2:  # paley_encode takes the term's last position as N
            entry_points["paley_encode"] = lambda: paley_encode(ChaosTerm(ks, ls), 3)
    return entry_points


# (case, positions, exponents, structural, exception type, message)
_TERM_RULES = [
    ("lengths-differ", (0, 1), (1,), True, MalformedIndex,
     "a term's positions and exponents differ in length"),
    ("no-position", (), (), True, MalformedIndex, "a chaos term needs at least one position"),
    ("position-int64", (0, 10**30), (1, 1), True, MalformedIndex,
     "a term position is out of the int64 range"),
    ("exponent-int64", (0,), (10**30,), True, InvalidExponent,
     "an exponent is out of the int64 range"),
    ("exponent-negative-int64", (0,), (-(10**30),), True, InvalidExponent,
     "an exponent is out of the int64 range"),
    ("positions-decreasing", (1, 0), (1, 1), True, MalformedIndex,
     "term positions must be strictly increasing and non-negative"),
    ("positions-repeated", (2, 2), (1, 1), True, MalformedIndex,
     "term positions must be strictly increasing and non-negative"),
    ("position-negative", (-1,), (1,), True, MalformedIndex,
     "term positions must be strictly increasing and non-negative"),
    ("exponent-0", (0,), (0,), True, InvalidExponent, "exponents must be at least 1"),
    ("exponent-negative", (0, 1), (1, -1), True, InvalidExponent, "exponents must be at least 1"),
    ("position-past-N", (0, 3), (1, 1), False, MalformedIndex,
     "a term position exceeds the top position 2"),
    ("exponent-past-base", (0, 1), (1, 3), False, InvalidExponent,
     "an exponent is out of range for base 3"),
]


@pytest.mark.parametrize(
    "ks, ls, structural, error, message",
    [rule[1:] for rule in _TERM_RULES],
    ids=[rule[0] for rule in _TERM_RULES],
)
def test_every_entry_point_refuses_a_bad_term_alike(ks, ls, structural, error, message):
    # the loader, ChaosTerm and the mapping constructor each stated these
    # rules in their own words: a position past N was "term positions (0, 3)
    # exceed top position 2" to the mapping constructor, and an exponent
    # past the base "exponents (1, 3) out of range for base 3" to it and to
    # paley_encode
    refusals = {}
    for name, call in _term_entry_points(ks, ls, structural).items():
        with pytest.raises(ChaosError) as info:
            call()
        refusals[name] = (type(info.value), str(info.value))
    assert refusals == {name: (error, message) for name in refusals}


_TERM = ChaosTerm((0,), (1,))

# (case, call, exception type, message)
_MALFORMED_POLYNOMIALS = [
    ("key-not-a-term", lambda: ChaosPolynomial(2, 2, {(0,): 1}), MalformedIndex,
     "coeffs must be a mapping with ChaosTerm keys"),
    ("coeffs-a-list", lambda: ChaosPolynomial(2, 2, [_TERM]), MalformedIndex,
     "coeffs must be a mapping with ChaosTerm keys"),
    ("mapping-str", lambda: ChaosPolynomial(2, 2, {_TERM: "x"}), CoefficientOutOfRange,
     "coefficients must be numbers, got 'x'"),
    ("mapping-mixed", lambda: ChaosPolynomial(2, 2, {_TERM: 1, ChaosTerm((1,), (1,)): "x"}),
     CoefficientOutOfRange, "coefficients must be numbers, got 'x'"),
    ("indices-str", lambda: ChaosPolynomial.from_indices(2, 2, [1], ["a"]),
     CoefficientOutOfRange, "coefficients must be numbers, got 'a'"),
    ("indices-numeric-str", lambda: ChaosPolynomial.from_indices(2, 2, [1], ["1"]),
     CoefficientOutOfRange, "coefficients must be numbers, got '1'"),
    ("indices-none", lambda: ChaosPolynomial.from_indices(2, 2, [1], [None]),
     CoefficientOutOfRange, "coefficients must be numbers, got None"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [case[1:] for case in _MALFORMED_POLYNOMIALS],
    ids=[case[0] for case in _MALFORMED_POLYNOMIALS],
)
def test_malformed_polynomial_input_is_a_typed_refusal(call, error, message):
    # these escaped as AttributeError, TypeError and ValueError, and "1"
    # was parsed as the coefficient 1 and None run as NaN
    with pytest.raises(ChaosError) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def _cell_guard_entry_points(p):
    """Every entry point that allocates a p^level grid, given p^16 cells."""
    Q = ChaosPolynomial.from_indices(p, 2, [1], [1.0])
    return {
        "riesz_density": lambda: riesz_density(p, 16, [0.5] * 16, [1] * 16),
        "lemma1_measure": lambda: lemma1_measure(p, 1, [1] * 16, 16),
        "lemma2_measure": lambda: lemma2_measure(p, 1, 1, 16),
        "rho_y_measure": lambda: rho_y_measure(p, [1] * 16, [1] * 16, 16),
        "polynomial_spectrum": lambda: polynomial_spectrum(Q, 16),
        "verify_suite": lambda: verify_suite([p], [1], 15),
    }


# 3^16 cells, and a numpy base whose 16^16 = 2^64 cells wrapped to 0 in
# int64 and passed; verify_suite refuses 16^16 Paley indices before that
_CELL_GUARD_CASES = [
    pytest.param(p, name, id=prefix + name)
    for p, prefix in [(3, ""), (np.int64(16), "int64-16-")]
    for name in sorted(_cell_guard_entry_points(3))
    if prefix == "" or name != "verify_suite"
]


@pytest.mark.parametrize("p, name", _CELL_GUARD_CASES)
def test_cell_guard_refuses_before_any_grid(p, name):
    # the 3^16-cell grid would take 689 MB in complex128; the refusal
    # allocates none of it
    call = _cell_guard_entry_points(p)[name]
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded) as info:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"p^level = {p}^16 exceeds the cell guard 16777216"
    assert peak < 2**16


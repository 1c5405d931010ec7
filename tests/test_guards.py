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
    GuardExceeded,
    InsufficientLevel,
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
from pchaos.measures import lemma2_polynomial, selector_nodes
from pchaos.padic import check_cell, from_digits, paley_decode, paley_encode, to_digits
from pchaos.serialization import load_polynomial


def _base_entry_points(p):
    """Every entry point that takes a base, called with base `p` and
    otherwise admitted arguments."""
    return {
        "term_indices": lambda: term_indices(p, 1, 2),
        "to_digits": lambda: to_digits(1, p, 2),
        "from_digits": lambda: from_digits((1,), p),
        "paley_encode": lambda: paley_encode(ChaosTerm((0,), (1,)), p),
        "paley_decode": lambda: paley_decode(1, p),
        "check_cell": lambda: check_cell(p, 1, 0),
        "character_value": lambda: character_value(1, p, 1, 0),
        "StepFunction": lambda: StepFunction(p, 1, [0.0, 0.0]),
        "Spectrum": lambda: Spectrum(p, 1, [0.0, 0.0]),
        "riesz_density": lambda: riesz_density(p, 1, [0.5], [1]),
        "lemma1_measure": lambda: lemma1_measure(p, 1, [1], 1),
        "lemma2_polynomial": lambda: lemma2_polynomial(p, 2, 1),
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
        "lemma2_polynomial": lambda: lemma2_polynomial(2, d, 1),
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
        "paley_decode": lambda: paley_decode(n, 2),
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
        "lemma2_polynomial": lambda: lemma2_polynomial(2, 2, 3),
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


def _cell_guard_entry_points():
    """Every entry point that allocates a p^level grid, given 3^16 cells."""
    Q = ChaosPolynomial.from_indices(3, 2, [1], [1.0])
    return {
        "riesz_density": lambda: riesz_density(3, 16, [0.5] * 16, [1] * 16),
        "lemma1_measure": lambda: lemma1_measure(3, 1, [1] * 16, 16),
        "lemma2_measure": lambda: lemma2_measure(3, 1, 1, 16),
        "rho_y_measure": lambda: rho_y_measure(3, [1] * 16, [1] * 16, 16),
        "polynomial_spectrum": lambda: polynomial_spectrum(Q, 16),
        "verify_suite": lambda: verify_suite([3], [1], 15),
    }


@pytest.mark.parametrize("name", sorted(_cell_guard_entry_points()))
def test_cell_guard_refuses_before_any_grid(name):
    # the 3^16-cell grid would take 689 MB in complex128; the refusal
    # allocates none of it
    call = _cell_guard_entry_points()[name]
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded) as info:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == "p^level = 3^16 exceeds the cell guard 16777216"
    assert peak < 2**16


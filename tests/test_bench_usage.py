"""The library calls of the benchmark harness in `bench/`, made here as the
harness makes them, so that a change to them fails the tier-1 suite and
not only the benchmark's smoke run. The bench lines they follow:

* `bench/workloads.py:152-154` (`_check_trial_zero`): a `ChaosTerm(ks, ls)`
  per term, the mapping constructor `ChaosPolynomial(p, N, {term: c})`,
  then `linf_norm`;
* `bench/tracing.py:189-202` (`_install_polynomial_counter`):
  `ChaosPolynomial.__post_init__` replaced on the class by a counter that
  reads `len(poly.coeffs)` and calls the original, once per construction;
* `bench/tracing.py:120-121` (`_count`): `len(args[0].coeffs)` and
  `len(result.coeffs)` around `project_J`;
* `bench/tracing.py:204-217` (`_install_check_clock`):
  `experiments.CheckResult` replaced by name, called with the check name
  first;
* `bench/run.py:233` (`layer_metrics`): the call count of the public
  function `padic.paley_encode` is the `padic.terms_encoded` metric.
"""

import inspect
from itertools import combinations, product

import numpy as np

import pchaos.experiments as experiments
import pchaos.padic as padic
from pchaos import ChaosPolynomial, ChaosTerm, inverse, linf_norm, polynomial_spectrum, project_J
from pchaos.padic import exponent_match


def _bench_polynomial(p, d, N, seed):
    """The trial-zero polynomial of `_check_trial_zero`: the order-d terms
    as (ks, ls) tuples, ChaosTerm objects, and the mapping constructor."""
    terms = [
        (ks, ls) for ks in combinations(range(N + 1), d) for ls in product(range(1, p), repeat=d)
    ]
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(terms)) + 1j * rng.standard_normal(len(terms))
    term_objs = [ChaosTerm(ks, ls) for ks, ls in terms]
    return ChaosPolynomial(p, N, dict(zip(term_objs, coeffs))), coeffs


def test_mapping_constructor_and_linf_norm():
    poly, coeffs = _bench_polynomial(3, 2, 4, seed=0)
    lib_sup, cell = linf_norm(poly)
    values = np.abs(inverse(polynomial_spectrum(poly, 5)).values)
    assert abs(lib_sup - values.max()) <= 1e-9 * max(1.0, values.max())
    assert values[cell] == values.max()
    assert np.array_equal(np.sort(np.abs(poly.values)), np.sort(np.abs(coeffs)))


def test_post_init_counter_runs_once_per_construction(monkeypatch):
    original = ChaosPolynomial.__post_init__
    counted = []

    def counting(poly):
        counted.append(len(poly.coeffs))
        return original(poly)

    monkeypatch.setattr(ChaosPolynomial, "__post_init__", counting)
    poly, coeffs = _bench_polynomial(2, 2, 3, seed=1)
    assert counted == [len(coeffs)]
    ChaosPolynomial(2, 3, dict(poly.coeffs))
    assert counted == [len(coeffs)] * 2


def test_project_j_result_has_a_term_count():
    poly, _ = _bench_polynomial(3, 2, 3, seed=2)
    J = [1, 2, 1, 2]
    kept = project_J(poly, J)
    assert len(poly.coeffs) == len(poly.indices)
    assert len(kept.coeffs) == int(exponent_match(poly.indices, 3, J).sum()) > 0


def test_check_result_is_called_by_name(monkeypatch):
    original = experiments.CheckResult
    names = []

    def check_result(name, *args, **kwargs):
        names.append(name)
        return original(name, *args, **kwargs)

    monkeypatch.setattr(experiments, "CheckResult", check_result)
    report = experiments.verify_suite([2], [1], 2, seed=1)
    assert names == [check.name for check in report.checks] and names


def test_paley_encode_is_a_public_padic_function():
    assert inspect.isfunction(padic.paley_encode)
    assert padic.paley_encode.__module__ == padic.__name__

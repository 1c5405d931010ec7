"""Harmonic analysis on p-adic cell grids: generalized Rademacher systems,
the fast Vilenkin-Chrestenson transform, Riesz product measures with
coefficient shaping, and sup-norm/coefficient-norm inequalities for
Rademacher chaos, all exact at finite level."""

from .errors import (
    ChaosError,
    CoefficientOutOfRange,
    DegenerateInput,
    EmptyIndexSet,
    FormatError,
    GuardExceeded,
    IllConditionedSystem,
    InsufficientLevel,
    InvalidExponent,
    InvalidOrder,
    LevelMismatch,
    MalformedIndex,
    NonFiniteValue,
)
from .padic import (
    ChaosTerm,
    group_sub,
    paley_encode,
    term_indices,
)
from .transform import (
    Spectrum,
    StepFunction,
    character_value,
    convolve,
    convolve_functions,
    forward,
    inverse,
    naive_forward,
)
from .measures import (
    MeasureRep,
    lemma1_measure,
    lemma1_pattern_residual,
    lemma2_measure,
    lemma2_pattern_residual,
    rho_y_measure,
    riesz_density,
)
from .chaos import (
    ChaosPolynomial,
    convolve_with_measure,
    decomposition_residual,
    linf_norm,
    polynomial_spectrum,
    project_J,
    project_order,
    sidon_ratio,
)
from .experiments import (
    ExperimentConfig,
    growth_study,
    random_chaos,
    random_ensemble_study,
    trial_rng,
    verify_suite,
)

__version__ = "0.1.0"

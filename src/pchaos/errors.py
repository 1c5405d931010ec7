"""Exception hierarchy for the pchaos library."""


class ChaosError(Exception):
    """Base class for all pchaos errors."""


class MalformedIndex(ChaosError):
    """An integer, digit expansion or term does not fit the requested shape."""


class NotAChaosIndex(ChaosError):
    """A Paley index has no chaos-term decomposition (for example 0)."""


class LevelMismatch(ChaosError):
    """Two grid objects or sequences disagree on base or level."""


class EmptyIndexSet(ChaosError):
    """The requested chaos index set is empty (order exceeds position count)."""


class InsufficientLevel(ChaosError):
    """The discretization level is too coarse for the requested operation."""


class CoefficientOutOfRange(ChaosError):
    """A Riesz factor coefficient lies outside the closed unit disc."""


class InvalidExponent(ChaosError):
    """An exponent argument is outside its admissible range."""


class IllConditionedSystem(ChaosError):
    """An interpolation's a priori rounding bound exceeds its tolerance."""


class InvalidOrder(ChaosError):
    """A chaos order argument is inconsistent with the polynomial or measure."""


class DegenerateInput(ChaosError):
    """The operation is undefined for this input (for example the zero polynomial)."""


class GuardExceeded(ChaosError):
    """A resource guard (base, level, cell count) would be exceeded."""


class FormatError(ChaosError):
    """A file does not conform to the documented format."""


class NonFiniteValue(ChaosError):
    """A coefficient is NaN or infinite where a finite number is required."""

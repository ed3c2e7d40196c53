"""Exception and warning types shared across the package.

Every error raised by levysid derives from :class:`LevysidError`, so callers can
catch one base class. The CLI maps subtrees of this hierarchy onto exit codes
(see ``levysid.cli``).
"""

import math
import numbers


class LevysidError(Exception):
    """Base class for all levysid errors."""


class DomainError(LevysidError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def positive(name, value):
    """``value`` if 0 < value < inf, else DomainError: the one rule for every
    length and scale (h, epsilon, the cube half width, sigma)."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value


def number(name, value, whole=False):
    """``value`` as a float, or as an int when ``whole``: the one type rule for
    config numbers. A bool, a string or anything else that is not a real
    number raises DomainError, and so does a fraction, NaN or infinity where
    ``whole`` asks for a count. Ranges stay with their owners."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a number, got {value!r}")
    if whole and isinstance(value, numbers.Integral):
        return int(value)
    try:
        x = float(value)
    except OverflowError:
        raise DomainError(f"{name} is too large, got {value!r}") from None
    if whole and not x.is_integer():
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(x) if whole else x


class ExpressionError(LevysidError, ValueError):
    """Base class for expression-language errors.

    Carries ``offset``, the byte offset into the source text where the
    problem was detected (or None when not applicable).
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text. ``expected`` is the set of acceptable tokens."""

    def __init__(self, message, offset, expected=()):
        super().__init__(message, offset)
        self.expected = frozenset(expected)


class UnknownVariableError(ExpressionError):
    """Variable index exceeds the declared model dimension."""


class UnknownFunctionError(ExpressionError):
    """Function name is not one of the supported callables."""


class EvaluationDomainError(LevysidError, ArithmeticError):
    """Runtime arithmetic fault: division by zero, even root of a negative,
    log of a non-positive, or a NaN produced by an otherwise legal operation."""


class GridSizeError(DomainError):
    """Requested tensor grid exceeds the configured row cap."""


class SimulationError(LevysidError):
    """An Euler step produced a non-finite state; the message names the row
    and the component. A coefficient that cannot be evaluated raises
    EvaluationDomainError instead."""


class InsufficientDataError(LevysidError):
    """Too few samples to run an estimator (empty bins, empty cube, M < K)."""


class NumericError(LevysidError):
    """Base class for dense linear-algebra failures."""


class RankDeficiencyError(NumericError):
    """No stable least-squares solution."""


class ConfigError(LevysidError, ValueError):
    """Invalid configuration document; the message names the field."""


class DataFormatError(LevysidError, ValueError):
    """Dataset or report file violates its documented format."""


class EstimationWarning(UserWarning):
    """Non-fatal estimator conditions: clamped parameters, skipped empty bins."""


class ConditioningWarning(UserWarning):
    """A Gram solve fell back to the eigendecomposition pseudo-inverse: its
    estimated cond(A) is above COND_THRESHOLD, or Cholesky broke down."""

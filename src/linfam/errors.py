"""Exception types shared across the package."""
from __future__ import annotations


class LinfamError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(LinfamError, ValueError):
    """Operands belong to different finite fields."""


class DivisionByZero(LinfamError, ZeroDivisionError):
    """Division by the zero element of a field."""


class DomainError(LinfamError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ShapeMismatch(LinfamError, ValueError):
    """Matrix or function shapes are incompatible."""


class BudgetExceeded(LinfamError, RuntimeError):
    """An enumeration or search would exceed the configured budget."""


class InconsistentRestriction(LinfamError, ValueError):
    """Constraint set admits no matrix (or defines no partial map)."""


class DomainOverlap(LinfamError, ValueError):
    """New constraint domains meet the existing context non-trivially."""


class NotQuasiregular(LinfamError, ValueError):
    """Function or family fails the required quasiregularity hypothesis."""


class NotInKernelRelation(LinfamError, ValueError):
    """Given coefficients and matrices do not sum to zero."""


class RankNotOne(LinfamError, ValueError):
    """A matrix expected to have rank one does not."""


class HypothesisUnmet(LinfamError, ValueError):
    """A claim's numeric hypothesis fails at the given parameters."""


class PreconditionViolated(LinfamError, ValueError):
    """Structural precondition on the inputs fails."""


class GeneratorSearchFailed(LinfamError, RuntimeError):
    """No multiplicative generator found (should not happen for true fields)."""


class NoNegativeEigenvalue(LinfamError, ValueError):
    """Ratio bound needs a negative eigenvalue and none exists."""


class ZeroFunction(LinfamError, ValueError):
    """Degree of the identically-zero function is undefined."""


class InvariantViolated(LinfamError, RuntimeError):
    """An identity the mathematics guarantees failed: a bug, not bad input."""

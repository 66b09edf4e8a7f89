"""Exception hierarchy shared across the package.

Every error raised by library code derives from HaarentError so callers
(and the CLI exit-code mapping) can tell usage problems from numeric ones.
"""

from __future__ import annotations


class HaarentError(Exception):
    """Base class for all package errors."""


class DomainError(HaarentError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class AbsoluteContinuityError(HaarentError):
    """Reference density vanishes where the numerator is positive."""


class NotInformationMeasureError(HaarentError):
    """A density quotient exceeds 1 beyond tolerance."""


class DegenerateMeasureError(HaarentError):
    """The measure of the set is zero (or negative), so entropy is undefined."""


class ConvergenceError(HaarentError):
    """Quadrature failed to converge; carries the best estimate found."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SumOverflowError(HaarentError):
    """An exact finite sum or an integral exceeds the float range, or a
    result the CLI is to print is inf or nan."""


class WindowOverflowError(HaarentError):
    """A translated set escapes the group's window.

    Recoverable: reconstruct the group with a larger window and retry.
    """


class UnsupportedOperationError(HaarentError):
    """The operation is not defined for this kind of object."""


class CatalogError(HaarentError, KeyError):
    """Requested claim id is not in the verification catalog."""


class NormalizationError(HaarentError):
    """Sup-normalization is impossible (zero or unbounded sup)."""


class StepSizeError(HaarentError):
    """The ascent cannot converge: a mirror step of 2 or more."""


class ExprSyntaxError(HaarentError):
    """Density-expression syntax error with source position.

    Attributes
    ----------
    position : int
        Byte offset of the offending token in the source text.
    expected : tuple of str
        Token kinds that would have been accepted at that position.
    found : str
        Description of what was actually found.
    """

    def __init__(self, message: str, position: int, expected: tuple = (), found: str = ""):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected)
        self.found = found


class ExprEvalError(HaarentError):
    """Density-expression evaluation error.

    Carries the offending subexpression (formatted) and the point x.
    """

    def __init__(self, message: str, subexpression: str, x):
        super().__init__(message)
        self.subexpression = subexpression
        self.x = x

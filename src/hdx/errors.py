"""Exception types shared across the library."""


class HdxError(Exception):
    """Base class for all library errors."""


class EmptyInputError(HdxError, ValueError):
    """No top faces were supplied."""


class NonUniformCardinalityError(HdxError, ValueError):
    """A listed top face does not have exactly d+1 distinct vertices."""


class DuplicateTopFaceError(HdxError, ValueError):
    """The same top face was listed twice."""


class UnknownFaceError(HdxError, LookupError):
    """A face (or vertex) is not part of the complex."""


class UnknownVertexError(UnknownFaceError):
    """A vertex is not part of the graph."""


class BadDimensionError(HdxError, ValueError):
    """A dimension argument is out of range for the operation."""


class WrongDimensionError(BadDimensionError):
    """The complex has the wrong dimension for this code path."""


class DimensionMismatchError(HdxError, ValueError):
    """Two objects live in incompatible dimensions or complexes."""


class GroupMismatchError(HdxError, ValueError):
    """Elements or cochains belong to different groups."""


class NonAbelianGroupError(HdxError, TypeError):
    """An abelian-only operation was applied to a non-abelian group."""


class UndefinedCoboundaryError(HdxError, ValueError):
    """The coboundary operator is not defined for this (dimension, group)."""


class DisconnectedGraphError(HdxError):
    """A walk-spectrum computation hit a disconnected graph."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BadIndexError(HdxError, IndexError):
    """A containment-count index is out of range."""


class UnknownVariantError(HdxError, ValueError):
    """An unknown tagged construction variant was requested."""


class NotNonLocalError(HdxError, ValueError):
    """The set failed its non-local classification precondition."""


class NotWeaklyNonLocalError(HdxError, ValueError):
    """The set failed its weakly-non-local classification precondition."""


class ParameterViolationError(HdxError, ValueError):
    """Parameters violate the preconditions of the statement being checked."""


class AlreadyLocallyMinimalError(HdxError, ValueError):
    """A correction step was requested but no correction is possible."""


class BudgetExceededError(HdxError, RuntimeError):
    """An enumeration would exceed the configured state budget."""


class PremiseFailedError(HdxError):
    """A certificate was refused because a measured premise failed."""

    def __init__(self, premise, message, details=None):
        super().__init__(f"{premise}: {message}")
        self.premise = premise
        self.details = details or {}


class FalsificationError(HdxError):
    """A checked theorem inequality failed; this should never happen."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(HdxError, ValueError):
    """A complex, cochain, or group file could not be parsed."""


class BadParamsError(HdxError, ValueError):
    """Invalid parameters for a generator or constructor."""

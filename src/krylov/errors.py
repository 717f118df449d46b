"""Exception types shared across the library."""

__all__ = [
    "KrylovError",
    "ZeroStartVector",
    "ZeroStartBlock",
    "SingularSystem",
    "FunctionDomainError",
    "NonFiniteSample",
    "InsufficientSupport",
    "MassMismatch",
    "InsufficientIterates",
    "InvalidInterval",
    "InvalidSpec",
    "ParseError",
    "NotSymmetric",
    "DimensionTooLarge",
    "SpectrumOutsideInterval",
    "NonFiniteOperator",
]


class KrylovError(Exception):
    """Base class for all library-specific errors."""


class ZeroStartVector(KrylovError):
    """The starting vector has zero norm."""


class ZeroStartBlock(KrylovError):
    """The starting block has numerical rank zero."""


class SingularSystem(KrylovError):
    """A small tridiagonal solve hit a pivot below the singularity threshold."""


class FunctionDomainError(KrylovError):
    """The scalar function is undefined (NaN/Inf) at a required eigenvalue."""


class NonFiniteSample(KrylovError):
    """A function sample at a quadrature node is NaN or Inf."""


class InsufficientSupport(KrylovError):
    """More recurrence steps requested than the measure has support points."""


class MassMismatch(KrylovError):
    """Two measures that must share total mass do not."""


class InsufficientIterates(KrylovError):
    """The iterate history does not retain enough iterates."""


class InvalidInterval(KrylovError):
    """Interval parameters do not define a valid spectrum enclosure."""


class InvalidSpec(KrylovError):
    """A matrix specification is malformed."""


class ParseError(KrylovError):
    """An input file could not be parsed."""


class NotSymmetric(KrylovError):
    """A loaded matrix is not symmetric within tolerance."""


class DimensionTooLarge(KrylovError):
    """The operator dimension exceeds the dense-oracle limit."""


class SpectrumOutsideInterval(KrylovError):
    """Ritz values exit the declared spectrum interval by more than the slack."""


class NonFiniteOperator(KrylovError):
    """The operator's output made a recurrence coefficient NaN or Inf."""

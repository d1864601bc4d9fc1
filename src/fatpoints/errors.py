"""Exception types shared across the package."""


def _brief(value: int) -> str:
    """An integer for an error message: in full up to 64 bits, else named
    by its bit length, so that the message stays one short line."""
    if value.bit_length() <= 64:
        return str(value)
    sign = "negative " if value < 0 else ""
    return f"({sign}{value.bit_length()}-bit integer)"


def _text(value, what: str) -> str:
    """``str(value)``, or over the integer-string limit an error naming its bits."""
    try:
        return str(value)
    except ValueError:
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        raise FatpointsError(f"a {bits}-bit {what} is over the integer-string limit") from None


class FatpointsError(Exception):
    """Base class for every error raised by this package."""


class ZeroPoint(FatpointsError):
    """A homogeneous coordinate vector was identically zero."""


class DuplicatePoint(FatpointsError):
    """Two components of a scheme normalize to the same projective point."""


class NonpositiveMultiplicity(FatpointsError):
    """A component multiplicity was not a positive integer."""


class DimensionMismatch(FatpointsError):
    """A coordinate vector does not have ambient_dim + 1 entries."""


class TargetTooSmall(FatpointsError):
    """The target dimension of an embedding is below the source dimension."""

    def __init__(self, target_dim: int, ambient_dim: int, relation: str = "is below"):
        super().__init__(target_dim, ambient_dim, relation)

    def __str__(self):
        target_dim, ambient_dim, relation = self.args
        return f"target dimension {_brief(target_dim)} {relation} ambient {ambient_dim}"


class ZeroParameter(FatpointsError):
    """A rational normal curve parameter pair was (0, 0)."""


class DuplicateParameter(FatpointsError):
    """Two curve parameter pairs describe the same point of the line."""


class TooFewPoints(FatpointsError):
    """An operation needs at least two points (it references m1 and m2)."""


class DegreeOutOfRange(FatpointsError):
    """A degree argument lies outside the range an operation is defined on."""


class NotOnRationalNormalCurve(FatpointsError):
    """A scheme handed to a curve-specific check has a point off the curve."""


class SchemeFormatError(FatpointsError, ValueError):
    """A scheme, report document or generator request is invalid."""


class ResourceLimit(FatpointsError):
    """A computation would exceed the configured column cap."""


class InternalBoundViolation(FatpointsError):
    """A proven bound failed at runtime; this signals a bug, not bad input."""

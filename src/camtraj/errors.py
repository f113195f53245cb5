"""Exception taxonomy shared across the package.

:class:`CamTrajError` (a ``ValueError``) and its subclasses are the only
exceptions the package raises for bad input data. I/O failures surface as
plain ``OSError``; any other exception is a bug.
"""

from __future__ import annotations


class CamTrajError(ValueError):
    """Base class for all domain errors raised by this package."""


# --- geometry ---------------------------------------------------------------

class ConventionMismatch(CamTrajError):
    """Two extrinsics with different conventions were combined."""


class NonUnitAxis(CamTrajError):
    """A rotation axis was not unit length within tolerance."""


class RotationInvalid(CamTrajError):
    """A 3x3 block failed the orthonormality / determinant check.

    ``line`` is the 1-based source line when the matrix came from a parsed
    file, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


# --- pose file parsing ------------------------------------------------------

class PoseParseError(CamTrajError):
    """Base for pose-file parse errors; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FieldCountError(PoseParseError):
    expected = 19  # fields in a pose-list data line

    def __init__(self, line: int, found: int):
        super().__init__(f"expected {self.expected} fields, found {found}", line)
        self.found = found


class NumericError(PoseParseError):
    """A field failed numeric conversion. ``column`` is 1-based."""

    def __init__(self, line: int, column: int, text: str):
        super().__init__(f"column {column}: cannot parse {text!r}", line)
        self.column = column
        self.text = text


class NonZeroDistortion(PoseParseError):
    def __init__(self, line: int, k1: float, k2: float):
        super().__init__(f"radial distortion must be zero, got k1={k1} k2={k2}", line)
        self.k1 = k1
        self.k2 = k2


class NonMonotonicTimestamp(PoseParseError):
    def __init__(self, line: int, timestamp: int, previous: int):
        super().__init__(
            f"timestamp {timestamp} does not increase over {previous}", line)
        self.timestamp = timestamp
        self.previous = previous


class IntrinsicsInvalid(PoseParseError):
    """Normalized intrinsics out of range (fx,fy <= 0 or cx,cy outside [0,1])."""


class IndexOutOfRange(CamTrajError):
    """A frame index selection was empty or referenced a missing record."""


class SchemaError(CamTrajError):
    """A JSON document failed schema validation.

    ``path`` is a /-separated pointer to the offending node.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


# --- trajectory synthesis ---------------------------------------------------

class NonUnitDirection(CamTrajError):
    """A translation direction was not unit length within tolerance."""


class NonPositiveScale(CamTrajError):
    """A multiplicative factor that must be positive was not."""


class EmptyDirectives(CamTrajError):
    """compose_motions received an empty directive list."""


class MotionOverflow(CamTrajError):
    """A composed camera center or principal point left the float64 range."""


# --- metrics ----------------------------------------------------------------

class LengthMismatch(CamTrajError):
    """Two trajectories being compared have different frame counts."""


class DegenerateBaseline(CamTrajError):
    """First-interval translation too small to define a rescale factor."""


# --- encoder ----------------------------------------------------------------

class ConfigError(CamTrajError):
    """An encoder configuration field is out of range or inconsistent."""


class IndivisibleDims(CamTrajError):
    """Spatial dims not divisible by the required downsampling factor."""


class ShapeMismatch(CamTrajError):
    """A tensor did not have the shape an operation requires."""


class NonFiniteInput(CamTrajError):
    """An input tensor held NaN or infinity, or values that overflow a computation."""


# --- tensor export ----------------------------------------------------------

class BadMagic(CamTrajError):
    """Stream is not a well-formed NPY v1.0 preamble."""


class UnsupportedDtype(CamTrajError):
    """NPY header declares a dtype other than little-endian float32."""


class UnsupportedOrder(CamTrajError):
    """NPY header declares Fortran order."""


class TruncatedPayload(CamTrajError):
    def __init__(self, expected: int, actual: int):
        super().__init__(f"payload truncated: expected {expected} bytes, got {actual}")
        self.expected = expected
        self.actual = actual

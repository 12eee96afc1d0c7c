"""Exception types shared across the package."""


class VaisflowError(Exception):
    """Base class for all package errors."""


class GridError(VaisflowError):
    """Field/spec mismatch, axis out of range, or invalid grid parameters."""


class PositivityLost(VaisflowError):
    """A Hermitian field that must be positive-definite is not.

    Carries the offending minimum eigenvalue and the grid index (a tuple,
    one entry per grid axis) where it was attained, when known.
    """

    def __init__(self, message, min_eigenvalue=None, location=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
        self.location = location


class NonPositiveDeterminant(VaisflowError):
    """log det requested for a matrix field with a non-positive determinant."""


class SingularMetric(VaisflowError):
    """Per-point matrix inversion failed; message names the grid location."""


class InexactClass(VaisflowError):
    """The target (1,1) form is not ddbar-exact on the periodic chart."""


class StepFloor(VaisflowError):
    """Adaptive time step fell below the hard floor while retrying."""


class NonFinitePotential(VaisflowError):
    """The flow's potential holds a NaN or an infinity."""


class IdentityViolation(VaisflowError):
    """A structural identity required of a chart construction failed."""


class NonPositiveScale(VaisflowError):
    """Homothety scale must be strictly positive."""


class DegenerateScale(VaisflowError):
    """Einstein constant on the boundary of the admissible range."""


class SnapshotError(VaisflowError):
    """Malformed snapshot file."""


class ConfigError(VaisflowError):
    """Invalid experiment configuration; message names the offending key."""

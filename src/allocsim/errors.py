"""Exception types shared across the package."""

__all__ = [
    "AllocSimError",
    "InvalidInstance",
    "EmptyDimension",
    "PreferenceOutOfRange",
    "NonpositiveReward",
    "NonpositiveMu",
    "ParseError",
    "RateFunctionError",
    "NegativeRate",
    "ZeroTotalRate",
    "DegenerateRow",
    "DimensionMismatch",
    "LengthMismatch",
    "NoPositiveRoot",
    "ZeroLowerSum",
    "DegenerateSegment",
    "NonConvergence",
    "BackendUnavailable",
]


class AllocSimError(Exception):
    """Base class for all package-specific errors."""


class InvalidInstance(AllocSimError, ValueError):
    """Problem instance failed validation.

    Carries the full list of violations; the concrete subclass raised is the
    first violation found.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations if violations is not None else [message]


class EmptyDimension(InvalidInstance):
    pass


class PreferenceOutOfRange(InvalidInstance):
    pass


class NonpositiveReward(InvalidInstance):
    pass


class NonpositiveMu(InvalidInstance):
    pass


class ParseError(AllocSimError, ValueError):
    """Config document is malformed; message names the offending key path."""


class RateFunctionError(AllocSimError, ValueError):
    """Piecewise rate function is ill-formed (coverage gap, bad kind/params)."""


class NegativeRate(RateFunctionError):
    """Grid scan found a negative rate value."""


class ZeroTotalRate(AllocSimError, ValueError):
    """Total arrival rate is zero where a positive rate is required."""


class DegenerateRow(AllocSimError, ValueError):
    """A preference row has max 0, so the softmax row is undefined."""


class DimensionMismatch(AllocSimError, ValueError):
    pass


class LengthMismatch(AllocSimError, ValueError):
    pass


class NoPositiveRoot(AllocSimError, ArithmeticError):
    """Threshold quadratic has no positive root (defensive; valid inputs always do)."""


class ZeroLowerSum(AllocSimError, ArithmeticError):
    """Sum of per-type rate minima is zero; probability band is undefined."""


class DegenerateSegment(AllocSimError, ValueError):
    """A segment would have zero grid length; the scan grid is too coarse."""


class NonConvergence(AllocSimError, ArithmeticError):
    """An iterative solve hit its iteration cap before reaching tolerance."""


class BackendUnavailable(AllocSimError, RuntimeError):
    """A known compute backend was requested but cannot run here (numba absent)."""

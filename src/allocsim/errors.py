"""Exception types shared across the package.

A class exists only where a caller tells it apart. The CLI maps
`NonConvergence` to exit 3 and every other `AllocSimError` to exit 2, the
code for input or an environment it refuses; any other exception is a
fault in the program and ends in a traceback. `InvalidInstance` is the
refusal of data that parsed but cannot be run, `ParseError` the refusal of
a config document, naming the key path, and `BackendUnavailable` the
refusal of a compute backend.
"""

__all__ = [
    "AllocSimError",
    "InvalidInstance",
    "ParseError",
    "NonConvergence",
    "BackendUnavailable",
]


class AllocSimError(Exception):
    """Base class for all package-specific errors."""


class InvalidInstance(AllocSimError, ValueError):
    """Input data failed validation: an instance, a rate function, arrival
    rates or a run's inputs. `violations` lists every violation found; the
    message is the first."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations if violations is not None else [message]


class ParseError(AllocSimError, ValueError):
    """Config document is malformed; message names the offending key path."""


class NonConvergence(AllocSimError, ArithmeticError):
    """An iterative solve hit its iteration cap before reaching tolerance."""


class BackendUnavailable(AllocSimError, RuntimeError):
    """A compute backend was requested that is unknown, or that cannot run
    here (numba absent)."""

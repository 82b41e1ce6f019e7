"""Exception types for the mathematically meaningful failure modes.

Malformed inputs raise plain ``ValueError`` (possibly via the subclasses
below that are really validation problems); subclasses of ``ToolkitError``
mark genuine computational failures and carry diagnostics as attributes.
The CLI maps the two families to different exit codes.
"""
from __future__ import annotations


class ToolkitError(Exception):
    """Base class for computational failures raised by this package."""


class GroupMismatch(ValueError):
    """Operands live over different group specifications."""


class GroupTooSmall(ValueError):
    """The group order is too small for the requested construction."""


class CoprimalityFailure(ToolkitError):
    """A Bezout identity could not be produced for the given pair.

    Raised when the inputs share a root (to within the separation guard) or
    when the associated linear system is numerically singular.
    """

    def __init__(self, message: str, *, separation: float | None = None,
                 condition: float | None = None, residual: float | None = None):
        super().__init__(message)
        self.separation = separation
        self.condition = condition
        self.residual = residual


class PerturbationExhausted(ToolkitError):
    """The randomized perturbation retry budget ran out.

    Signals a pathological input (or far too small a budget), not a failure
    of the underlying density statement.
    """

    def __init__(self, message: str, *, attempts: int, best_separation: float | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.best_separation = best_separation


class OracleFailure(ToolkitError):
    """A column-densifying oracle failed during a matrix lift."""

    def __init__(self, message: str, *, level: int):
        super().__init__(message)
        self.level = level


class UndersampledPath(ToolkitError):
    """A winding count cannot be trusted at the sample count: consecutive
    samples turn too fast (``max_jump``), or the loop could reach zero
    between samples (``bound``, the largest distance it may stray from a
    sample, is not below its smallest sample modulus)."""

    def __init__(self, message: str, *, max_jump: float | None = None,
                 bound: float | None = None):
        super().__init__(message)
        self.max_jump = max_jump
        self.bound = bound


class VanishingDeterminant(ToolkitError):
    """A determinant loop passes too close to zero to be winding material."""

    def __init__(self, message: str, *, min_modulus: float):
        super().__init__(message)
        self.min_modulus = min_modulus


class NonRealImage(ToolkitError):
    """A matrix expected to be real carries a significant imaginary part."""

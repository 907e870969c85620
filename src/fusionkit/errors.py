"""Exception types shared across the package."""
from __future__ import annotations


class FusionError(Exception):
    """Base class for all errors raised by fusionkit."""


class InvalidLabel(FusionError):
    """A label does not belong to the basis of the ring it was used with."""


class IncompleteTable(FusionError):
    """A table-backed ring was probed for a product it does not define."""


class RingMismatch(FusionError):
    """Two operands live over different rings."""


class InvalidParam(FusionError):
    """A parameter is outside its documented domain."""


class InvalidTable(FusionError):
    """A multiplication table fails structural or axiom validation.

    When axiom validation fails, the offending report is attached as
    ``.report`` so callers can render per-axiom diagnostics.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class EmptySet(FusionError):
    """A set argument that must be non-empty was empty."""


class ZeroFunction(FusionError):
    """A ratio was requested for the zero function."""


class NonSymmetricMeasure(FusionError):
    """An operation requiring a symmetric measure received a non-symmetric one."""


class MeasureMissingUnit(FusionError):
    """FC1 requires the unit label in the support of the measure."""


class NotSelfAdjoint(FusionError):
    """Spectral estimation is only offered for self-adjoint compressions."""


class NoConvergence(FusionError):
    """The Lanczos eigensolver did not certify its answer: the residual
    ||Mx - theta x|| of its Ritz pair is not below the tolerance, or ARPACK
    stopped without converging.

    Carries the best available data: ``estimate`` (top of spectrum),
    ``residual`` and ``iterations`` (matvecs).
    """

    def __init__(self, message, estimate, residual, iterations):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual
        self.iterations = iterations


class BudgetExceeded(FusionError):
    """A size budget (window cap, search budget) was exhausted.

    ``achieved_radius`` reports the last fully completed expansion radius;
    ``best`` optionally carries the best partial result seen so far.
    """

    def __init__(self, message, cap, achieved_radius=None, best=None):
        super().__init__(message)
        self.cap = cap
        self.achieved_radius = achieved_radius
        self.best = best

"""Exception types shared across the package, and the two checks every
numeric parameter goes through."""
from __future__ import annotations

import math
import numbers
import operator


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


def count(value, what: str, least: int, most: int | None = None) -> int:
    """``value`` as an int in least..most (no upper bound when ``most`` is
    None), else InvalidParam.  Any ``__index__`` type (numpy ints too)
    counts as an int; a bool does not."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidParam(f"{what} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < least or (most is not None and value > most):
        bounds = f">= {least}" if most is None else f"in {least}..{most}"
        raise InvalidParam(f"{what} must be {bounds}, got {value}")
    return value


def positive(value, what: str):
    """``value`` if it is a finite number > 0 (an ``__index__`` type as an
    int), else InvalidParam.

    A number is a rational (int but not bool, Fraction, numpy ints) or a
    float: the types ``Fraction`` reads exactly, so the Foelner checks can
    decide their inequalities in exact arithmetic.
    """
    if isinstance(value, bool) or not isinstance(value, (numbers.Rational, float)) \
            or not 0 < value < math.inf:
        raise InvalidParam(f"{what} must be a finite number > 0, got {value!r}")
    return operator.index(value) if hasattr(value, "__index__") else value


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
    ||Mx - theta x||, recomputed from the Ritz pair it stopped at, is not
    below the tolerance.  It stops when its residual estimate falls below
    half the tolerance, at an invariant subspace, or after 10 n matvecs
    on an n-label window.

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

    ``achieved_radius`` reports the last fully completed expansion radius.
    """

    def __init__(self, message, cap, achieved_radius=None):
        super().__init__(message)
        self.cap = cap
        self.achieved_radius = achieved_radius

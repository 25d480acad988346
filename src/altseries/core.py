"""Shared value types, error hierarchy, and the t <-> lambda change of variables.

Every evaluation route in this package returns an :class:`EvalOutcome` so that
callers can compare values *and* error estimates across methods uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DomainError",
    "RangeError",
    "WorkLimitError",
    "ToleranceSpec",
    "EvalOutcome",
    "METHOD_NAMES",
    "lambda_of_t",
    "t_of_lambda",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class RangeError(ValueError):
    """The requested point is valid but outside the reliable range of a method."""


class WorkLimitError(RuntimeError):
    """The work budget was exhausted before the tolerance was met.

    The partial result (if any) is attached as ``partial`` so diagnostics can
    still inspect it.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


METHOD_NAMES = ("series", "hankel", "fourier2d", "residue", "asymptotic")


@dataclass(frozen=True)
class ToleranceSpec:
    """Accuracy request: absolute and relative targets plus a work budget.

    At least one of ``abs_tol`` / ``rel_tol`` must be positive.  ``max_work``
    caps the number of elementary operations (terms, quadrature nodes) a
    routine may spend before raising :class:`WorkLimitError`.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_work: int = 10_000_000

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise DomainError("tolerances must be non-negative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise DomainError("at least one of abs_tol/rel_tol must be positive")
        if self.max_work <= 0:
            raise DomainError("max_work must be positive")

    def met_by(self, err: float, scale: float) -> bool:
        """True when an error estimate satisfies this spec at magnitude ``scale``."""
        return err <= self.abs_tol or err <= self.rel_tol * abs(scale)


@dataclass(frozen=True)
class EvalOutcome:
    """Value of one evaluation together with its accounting.

    ``error_estimate`` is an estimated *bound* on the absolute error, never
    negative.  ``work`` counts elementary operations actually spent.
    ``method`` names the route that produced the value.
    """

    value: complex | float
    error_estimate: float
    work: int
    method: str

    def __post_init__(self):
        if self.error_estimate < 0:
            raise DomainError("error_estimate must be non-negative")
        if self.method not in METHOD_NAMES:
            raise DomainError(f"unknown method name {self.method!r}")


def lambda_of_t(t: float) -> float:
    """Map t >= 0 to the oscillation parameter lambda = 2*sqrt(t)."""
    if t < 0 or math.isnan(t):
        raise DomainError(f"t must be >= 0, got {t}")
    return 2.0 * math.sqrt(t)


def t_of_lambda(lam: float) -> float:
    """Inverse map lambda >= 0 -> t = (lambda/2)^2."""
    if lam < 0 or math.isnan(lam):
        raise DomainError(f"lambda must be >= 0, got {lam}")
    half = 0.5 * lam
    return half * half

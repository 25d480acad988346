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
    "RESIDUE_MIN_LAMBDA",
    "LAMBDA_WALL",
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

# The route windows, kept here so that the harness can choose a route
# without importing it.  Below RESIDUE_MIN_LAMBDA the residue route's
# neglected-term bound, and the asymptotic route's error envelope, no
# longer cover the error; above LAMBDA_WALL the nested quadrature of the
# fourier2d route no longer resolves S*.
RESIDUE_MIN_LAMBDA = 8.0
LAMBDA_WALL = 12.0


@dataclass(frozen=True)
class ToleranceSpec:
    """Accuracy request: absolute and relative targets plus a work budget.

    Both tolerances must be non-negative numbers (not NaN), and at least one
    of them positive.  ``max_work``, positive and finite, caps the number of
    elementary operations (terms, quadrature nodes) an evaluation may spend.
    ``harness.evaluate`` is the one reader: it judges a route's outcome
    against all three fields once the route has returned, and refuses a
    miss with :class:`WorkLimitError`.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_work: int = 10_000_000

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not (self.abs_tol >= 0 and self.rel_tol >= 0):
            raise DomainError(
                "tolerances must be non-negative numbers, got "
                f"abs_tol = {self.abs_tol}, rel_tol = {self.rel_tol}")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise DomainError("at least one of abs_tol/rel_tol must be positive")
        if not 0 < self.max_work < math.inf:
            raise DomainError(
                f"max_work must be positive and finite, got {self.max_work}")

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

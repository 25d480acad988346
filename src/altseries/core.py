"""Shared value types, error hierarchy, route windows and the t <-> lambda map.

Every evaluation route in this package returns an :class:`EvalOutcome` so that
callers can compare values *and* error estimates across methods uniformly, and
refuses lambda outside its row of ``WINDOWS`` through ``check_window``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

__all__ = [
    "DomainError",
    "RangeError",
    "WorkLimitError",
    "ToleranceSpec",
    "EvalOutcome",
    "Window",
    "WINDOWS",
    "AUTO_SWITCH",
    "METHOD_NAMES",
    "check_window",
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


# The one table of route windows.  A row holds a route's closed lambda
# windows, all from lo: the route answers up to hi and refuses the rest
# (check_window), sweep_data tabulates it up to sweep_hi and cross_validate
# compares it up to compare_hi.  Below 8 the residue route's neglected-term
# bound, and the asymptotic route's error envelope, no longer cover the
# error; above 12 fourier2d's nested quadrature no longer resolves S*.
# Hankel's floor ~1.3e-15 crosses |S*| ~ e^(-1.2533 lambda) near lambda = 27:
# sweeps show its estimate swallow the value by 28, and past 24 it is too
# noisy to judge the others by.  Residue is compared up to 2.5e5, the edge
# of its audits, short of its saddle panel budget (WorkLimitError).
Window = namedtuple("Window", "lo hi sweep_hi compare_hi")
WINDOWS = {
    "series": Window(0.0, math.inf, math.inf, math.inf),
    "hankel": Window(0.0, math.inf, 28.0, 24.0),
    "fourier2d": Window(0.0, 12.0, 12.0, 12.0),
    "residue": Window(8.0, math.inf, math.inf, 2.5e5),
    "asymptotic": Window(8.0, math.inf, math.inf, math.inf),
}
# 'auto' runs hankel up to here and residue beyond, short of that crossing
AUTO_SWITCH = 25.0
METHOD_NAMES = tuple(WINDOWS)


def check_window(route: str, lam: float) -> None:
    """Refuse a lambda outside the route's window with RangeError; lambda
    <= 0 and NaN pass, for the route's own DomainError."""
    lo, hi = WINDOWS[route].lo, WINDOWS[route].hi
    if 0.0 < lam < lo:
        raise RangeError(f"lambda = {lam} is below the {route} route's "
                         f"window lambda >= {lo:g}")
    if lam > hi:
        raise RangeError(f"lambda = {lam} is above the {route} route's "
                         f"window lambda <= {hi:g}")


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

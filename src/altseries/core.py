"""Shared value types, error hierarchy, route windows and the t <-> lambda map.

Every evaluation route in this package returns an :class:`EvalOutcome` so that
callers can compare values *and* error estimates across methods uniformly, at
true size and at the figure's scale alike, and refuses lambda outside its row
of ``WINDOWS`` through ``check_window``.
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
    "SQRT_HALF_PI",
    "Window",
    "WINDOWS",
    "AUTO_SWITCH",
    "METHOD_NAMES",
    "check_window",
    "lambda_of_t",
    "t_of_lambda",
]


SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


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
# windows, all from lo: the route answers up to hi, where it stops
# answering, and check_window refuses the rest; sweep_data tabulates it up
# to sweep_hi and cross_validate compares it up to compare_hi.  Below 8 the
# residue and asymptotic routes' bounds no longer cover the error; above 12
# fourier2d no longer resolves S*.  Hankel's floor ~1.3e-15 crosses |S*|
# near lambda = 27, so it is swept to 28 and compared to 24.  The series
# stops where lambda^2/4 overflows, hankel and residue (at the edge of its
# audits) short of their panel budgets, 599 pi/8 = 235.22 and ~2.56e5.
Window = namedtuple("Window", "lo hi sweep_hi compare_hi")
_SERIES_HI = 2.681561585988519e154
WINDOWS = {
    "series": Window(0.0, _SERIES_HI, _SERIES_HI, _SERIES_HI),
    "hankel": Window(0.0, 235.0, 28.0, 24.0),
    "fourier2d": Window(0.0, 12.0, 12.0, 12.0),
    "residue": Window(8.0, 2.5e5, 2.5e5, 2.5e5),
    "asymptotic": Window(8.0, math.inf, math.inf, math.inf),
}
# 'auto' runs hankel up to here and residue beyond, short of that crossing
AUTO_SWITCH = 25.0
METHOD_NAMES = tuple(WINDOWS)


def check_window(route: str, lam: float) -> None:
    """The one gate for lambda: NaN, a negative lambda and +-inf raise
    DomainError, a lambda outside the route's row of WINDOWS RangeError."""
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"need finite lambda >= 0, got {lam}")
    lo, hi = WINDOWS[route].lo, WINDOWS[route].hi
    if lam < lo:
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


# sqrt(pi/2) as an unevaluated double-double sum hi + lo, for _decay.  The
# routes keep SQRT_HALF_PI, one ulp below hi, so their bits do not move.
_SQRT_HALF_PI_HI = 1.253314137315500343e+00
_SQRT_HALF_PI_LO = -9.164289990229583387e-17


def _veltkamp(a: float):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


# the halves of _SQRT_HALF_PI_HI for Dekker's two-product
_SQRT_HALF_PI_HH, _SQRT_HALF_PI_HL = _veltkamp(_SQRT_HALF_PI_HI)


def _decay(lam: float) -> float:
    """e^(-lambda sqrt(pi/2)), to a few ulp where it is normal.

    math.exp(-lam * SQRT_HALF_PI) takes an argument rounded twice, in the
    constant and in the product, so it is good only to about
    lambda sqrt(pi/2) eps relative (1e-14 at lambda = 100).  Here
    lam * hi = p + e exactly (Dekker's two-product), and the remainder
    r = e + lam * lo, below one ulp of p, enters to first order.
    """
    p = lam * _SQRT_HALF_PI_HI
    lh, ll = _veltkamp(lam)
    e = (((lh * _SQRT_HALF_PI_HH - p) + lh * _SQRT_HALF_PI_HL
          + ll * _SQRT_HALF_PI_HH) + ll * _SQRT_HALF_PI_HL)
    r = e + lam * _SQRT_HALF_PI_LO
    scale = math.exp(-p)
    return scale - scale * r


@dataclass(frozen=True)
class EvalOutcome:
    """Value of one evaluation together with its accounting.

    ``error_estimate`` is an estimated *bound* on the absolute error, never
    negative.  ``work`` counts elementary operations actually spent.
    ``method`` names the route that produced the value.  ``scaled_value``
    and ``scaled_error`` are the same pair at the figure's scale,
    -e^(lambda sqrt(pi/2)) * (value, error_estimate), which the routes
    fill through ``from_value`` or ``from_scaled``; given the true-size
    pair alone they default to NaN and an unbounded error.
    """

    value: complex | float
    error_estimate: float
    work: int
    method: str
    scaled_value: float = math.nan
    scaled_error: float = math.inf

    def __post_init__(self):
        # written so that NaN fails it
        if not (self.error_estimate >= 0 and self.scaled_error >= 0):
            raise DomainError("error estimates must be non-negative numbers")
        if self.method not in METHOD_NAMES:
            raise DomainError(f"unknown method name {self.method!r}")

    @classmethod
    def from_value(cls, lam: float, value, error_estimate: float, work: int,
                   method: str, **extra):
        """From the true-size pair at lambda; the scaled pair is inf once
        e^(lambda sqrt(pi/2)) overflows a double."""
        if lam * SQRT_HALF_PI < 709.0:
            grow = math.exp(lam * SQRT_HALF_PI)
            scaled, scaled_error = -grow * value, grow * error_estimate
        else:
            scaled = scaled_error = math.inf
        return cls(value, error_estimate, work, method, scaled, scaled_error,
                   **extra)

    @classmethod
    def from_scaled(cls, lam: float, scaled_value: float, scaled_error: float,
                    work: int, method: str):
        """From the scaled pair at lambda.  From lambda ~ 566 the true-size
        error underflows to 0.0 while the value is still a nonzero
        subnormal, so it is floored at the smallest one."""
        decay = _decay(lam)
        return cls(-scaled_value * decay,
                   max(scaled_error * decay, math.ulp(0.0)), work, method,
                   scaled_value, scaled_error)

    # read-only aliases of value and scaled_error, which perfbench/worker.py
    # reads; they go with its rewrite (ROADMAP item 1)
    unscaled_value = property(lambda self: self.value)
    neglected_bound = property(lambda self: self.scaled_error)


def lambda_of_t(t: float) -> float:
    """Map finite t >= 0 to the oscillation parameter lambda = 2*sqrt(t)."""
    if not 0.0 <= t < math.inf:
        raise DomainError(f"need finite t >= 0, got {t}")
    return 2.0 * math.sqrt(t)


def t_of_lambda(lam: float) -> float:
    """Inverse map lambda >= 0 -> t = (lambda/2)^2."""
    if lam < 0 or math.isnan(lam):
        raise DomainError(f"lambda must be >= 0, got {lam}")
    half = 0.5 * lam
    return half * half

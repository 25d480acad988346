"""Zero geometry of Q(z, y) = 1 + e^(z^2 + y^2) in the z upper half plane.

For each real y, the zeros nearest the real axis sit at z = +-x* + i u* with
x* u* = pi/2 and u*^2 = x*^2 + y^2, so u* is the positive root of the
quartic u^4 - y^2 u^2 - (pi/2)^2 = 0:

    u*(y) = sqrt( (y^2 + sqrt(y^4 + pi^2)) / 2 ).

Everything else in this module is bookkeeping around that root: the strip
heights a1 < a < a2 and half-width b used by the contour-shift argument.
The concrete lower bound |Q(x + iu, y)| >= alpha e^(x^2+y^2) on pole-free
regions that the argument also needs is sampled on a grid in the tests.
"""

from __future__ import annotations

import cmath
import math

from .core import SQRT_HALF_PI, DomainError, RangeError

__all__ = [
    "STRIP_A1",
    "STRIP_A",
    "STRIP_A2",
    "STRIP_B",
    "q_eval",
    "u_star",
    "x_star",
    "strip_width_b",
]

_SQRT_3HALF_PI = math.sqrt(3.0 * math.pi / 2.0)  # first k >= 1 intruder height


def q_eval(z: complex, y: float) -> complex:
    """Q(z, y) = 1 + exp(z^2 + y^2)."""
    w = complex(z) * complex(z) + y * y
    if w.real > 700.0:
        raise RangeError(f"exp overflow: Re(z^2+y^2) = {w.real:.1f} > 700")
    return 1.0 + cmath.exp(w)


def u_star(y: float) -> float:
    """Height of the k = 0 pole pair over ordinate y (>= sqrt(pi/2)).

    Refuses a non-finite y (DomainError) and |y| past ~9.5e153, where
    y^2 + sqrt(y^4 + pi^2) overflows (RangeError).
    """
    if not math.isfinite(y):
        raise DomainError(f"need finite y, got {y}")
    y2 = y * y
    twice = y2 + math.hypot(y2, math.pi)
    if twice == math.inf:
        raise RangeError(
            f"u*(y) overflows at |y| = {abs(y):g}, past ~9.5e153")
    return math.sqrt(0.5 * twice)


def x_star(y: float) -> float:
    """Half-gap of the pole pair: pi / (2 u*(y))."""
    return math.pi / (2.0 * u_star(y))


def strip_width_b(a: float) -> float:
    """Half-width b of the y-interval whose poles stay below height a.

    Solves u*(b) = a, i.e. b = sqrt(a^2 - (pi/(2a))^2).  Only heights
    strictly between the k = 0 minimum sqrt(pi/2) and the k = 1 onset
    sqrt(3 pi/2) are meaningful.
    """
    if not SQRT_HALF_PI < a < _SQRT_3HALF_PI:
        raise DomainError(
            f"a must lie in (sqrt(pi/2), sqrt(3pi/2)) ~ (1.2533, 2.1708), got {a}")
    half_gap = math.pi / (2.0 * a)
    return math.sqrt(a * a - half_gap * half_gap)


# The strip used throughout: sqrt(pi/2) < a1 < a < a2 < sqrt(3pi/2), pushed
# high in that interval so the suppression gap a1 - sqrt(pi/2) ~ 0.65 is as
# large as the k = 1 constraint allows.  Poles over |y| < b stay below a.
STRIP_A1 = 1.9
STRIP_A = 2.0
STRIP_A2 = 2.15
STRIP_B = strip_width_b(STRIP_A)

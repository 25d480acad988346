"""Zero geometry of Q(z, y) = 1 + e^(z^2 + y^2) in the z upper half plane.

For each real y, the zeros nearest the real axis sit at z = +-x* + i u* with
x* u* = pi/2 and u*^2 = x*^2 + y^2, so u* is the positive root of the
quartic u^4 - y^2 u^2 - (pi/2)^2 = 0:

    u*(y) = sqrt( (y^2 + sqrt(y^4 + pi^2)) / 2 ).

Everything else in this module is bookkeeping around that root: the strip
parameters (a1, a, a2, b) used by the contour-shift argument.  The concrete
lower bound |Q(x + iu, y)| >= alpha e^(x^2+y^2) on pole-free regions that
the argument also needs is sampled on a grid in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import DomainError, RangeError

__all__ = [
    "StripParams",
    "PoleLocation",
    "q_eval",
    "u_star",
    "x_star",
    "strip_width_b",
    "default_strip",
    "pole_location",
]

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)  # lowest pole height, y = 0
_SQRT_3HALF_PI = math.sqrt(3.0 * math.pi / 2.0)  # first k >= 1 intruder height


def q_eval(z: complex, y: float) -> complex:
    """Q(z, y) = 1 + exp(z^2 + y^2)."""
    w = complex(z) * complex(z) + y * y
    if w.real > 700.0:
        raise RangeError(f"exp overflow: Re(z^2+y^2) = {w.real:.1f} > 700")
    return 1.0 + cmath.exp(w)


def u_star(y: float) -> float:
    """Height of the k = 0 pole pair over ordinate y (>= sqrt(pi/2))."""
    y2 = y * y
    return math.sqrt(0.5 * (y2 + math.hypot(y2, math.pi)))


def x_star(y: float) -> float:
    """Half-gap of the pole pair: pi / (2 u*(y))."""
    return math.pi / (2.0 * u_star(y))


def strip_width_b(a: float) -> float:
    """Half-width b of the y-interval whose poles stay below height a.

    Solves u*(b) = a, i.e. b = sqrt(a^2 - (pi/(2a))^2).  Only heights
    strictly between the k = 0 minimum sqrt(pi/2) and the k = 1 onset
    sqrt(3 pi/2) are meaningful.
    """
    if not _SQRT_HALF_PI < a < _SQRT_3HALF_PI:
        raise DomainError(
            f"a must lie in (sqrt(pi/2), sqrt(3pi/2)) ~ (1.2533, 2.1708), got {a}")
    half_gap = math.pi / (2.0 * a)
    return math.sqrt(a * a - half_gap * half_gap)


@dataclass(frozen=True)
class StripParams:
    """Contour-strip parameters: heights a1 < a < a2 and half-width b."""

    a1: float
    a: float
    a2: float
    b: float

    def __post_init__(self):
        if not (_SQRT_HALF_PI < self.a1 < self.a < self.a2 < _SQRT_3HALF_PI):
            raise DomainError(
                "need sqrt(pi/2) < a1 < a < a2 < sqrt(3pi/2), got "
                f"({self.a1}, {self.a}, {self.a2})")
        if not self.b > 0:
            raise DomainError("b must be positive")
        if abs(self.b - strip_width_b(self.a)) > 1e-9:
            raise DomainError("b is inconsistent with a (b = sqrt(a^2 - (pi/2a)^2))")


def default_strip() -> StripParams:
    """The strip used throughout: a1=1.9, a=2.0, a2=2.15, b=b(2.0).

    Pushed high inside the admissible interval so the suppression gap
    a1 - sqrt(pi/2) ~ 0.65 is as large as the k = 1 constraint allows.
    """
    return StripParams(1.9, 2.0, 2.15, strip_width_b(2.0))


@dataclass(frozen=True)
class PoleLocation:
    """One pole z = branch * x_star + i u_star over ordinate y."""

    y: float
    x_star: float
    u_star: float
    branch: int

    def __post_init__(self):
        if not math.isfinite(self.y):
            raise DomainError(f"need finite y, got {self.y}")
        if self.branch not in (1, -1):
            raise DomainError("branch must be +1 or -1")

    @property
    def z(self) -> complex:
        return complex(self.branch * self.x_star, self.u_star)


def pole_location(y: float, branch: int = 1) -> PoleLocation:
    return PoleLocation(y=y, x_star=x_star(y), u_star=u_star(y), branch=branch)

"""Independent reference values for S*(lambda) and the correctness gate.

Nothing here imports altseries.  For lambda <= 25 (t <= 156.25) the
reference is the defining alternating series summed by mpmath's ``nsum`` at
40 digits, which reproduces the suite's 40-digit oracle there.  Beyond that
``nsum`` can return a wrong value without warning, so the gate becomes the
paper's law: |value - asym| <= error_estimate + 10 lambda^(-3/2)
e^(-lambda sqrt(pi/2)), with asym the leading oscillatory term.
"""

from __future__ import annotations

import math

import mpmath

NSUM_MAX_LAMBDA = 25.0
DIGITS = 40
_C = math.sqrt(math.pi / 2.0)


def amplitude(lam: float) -> float:
    """A(lambda) = 2^(3/2) pi^(1/4) e^(-lambda sqrt(pi/2)) / sqrt(lambda)."""
    return 2.0 ** 1.5 * math.pi ** 0.25 * math.exp(-lam * _C) / math.sqrt(lam)


class Reference:
    """Reference values by lambda, each computed once per process."""

    def __init__(self):
        self._nsum = {}

    @staticmethod
    def digits_certified(lam: float, error_estimate: float) -> float:
        """-log10(error_estimate / A(lambda)), lambda > 0."""
        return -math.log10(error_estimate / amplitude(lam))

    def series(self, lam: float):
        """S*(lambda) from the alternating series, at 40 digits."""
        if lam not in self._nsum:
            with mpmath.workdps(DIGITS):
                t = mpmath.mpf(lam) ** 2 / 4
                self._nsum[lam] = mpmath.nsum(
                    lambda n: (-1) ** int(n) * mpmath.exp(-t / n) / n,
                    [1, mpmath.inf])
        return self._nsum[lam]

    def ratio(self, lam: float, value: float, error_estimate: float) -> float:
        """|value - reference| over what the gate allows; > 1 fails."""
        if not (math.isfinite(value) and error_estimate >= 0.0
                and math.isfinite(error_estimate)):
            return math.inf
        with mpmath.workdps(DIGITS):
            if lam <= NSUM_MAX_LAMBDA:
                diff = abs(mpmath.mpf(value) - self.series(lam))
                allowed = mpmath.mpf(error_estimate)
            else:
                x = mpmath.mpf(lam)
                c = mpmath.sqrt(mpmath.pi / 2)
                asym = (2 ** mpmath.mpf(1.5) * mpmath.pi ** mpmath.mpf(0.25)
                        * mpmath.exp(-x * c) * mpmath.cos(x * c + mpmath.pi / 8)
                        / mpmath.sqrt(x))
                diff = abs(mpmath.mpf(value) - asym)
                allowed = (error_estimate
                           + 10 * x ** mpmath.mpf(-1.5) * mpmath.exp(-x * c))
            if allowed == 0:
                return 0.0 if diff == 0 else math.inf
            return float(diff / allowed)

"""Accelerated summation of S(t) = sum_n (-1)^n n^-1 exp(-t/n).

``sum_alternating_s`` applies the acceleration of Cohen, Rodriguez
Villegas & Zagier ("Convergence acceleration of alternating series",
Experimental Math. 9 (2000), Algorithm 1) with N = 22 terms, at every
t >= 0.  With a_m = e^(-t/m)/m,

    S(t) = -sum_(k>=0) (-1)^k a_(k+1) ~ -sum_(k<N) w_k a_(k+1),

where w_k = c_k/d, d = T_N(3) is a Chebyshev value and every c_k is an
integer with |c_k| <= d.  Both are formed exactly in Python integers at
import and each w_k is rounded once.

The truncation bound is proven.  The Laplace pair
integral_0^inf e^(-su) J0(2 sqrt(tu)) du = e^(-t/s)/s, with x = e^(-u),
gives a_(k+1) = integral_0^1 x^k J0(2 sqrt(t ln(1/x))) dx: the terms are
the moments of a signed measure whose density is bounded by |J0| <= 1.
For such a measure the paper's error is
(1/d) integral_0^1 T_N(1-2x)/(1+x) dmu(x), at most
ln 2 / T_N(3) = 1.99400067891228630e-17; ``_TRUNCATION`` is that
quotient rounded up to a double.

The roundoff floor.  With u = eps/2, each product w_k a_m (m = k + 1)
is formed with relative error at most (5 + t/m) u to first order: u for
rounding w_k, (t/m) u that rounding t/m carries through exp, 2u for
exp itself (one ulp), u for the division by m and u for the product.
math.fsum rounds the sum once, u |S| <= u sum|w_k a_m|.  Second-order
terms are below 1e-12 of these, as t/m u < 1e-13 wherever a_m does not
underflow, so the floor eps sum |w_k a_m| (3.5 + t/(2m)) covers them
with a spare u sum|w_k a_m|, which also covers the rounding of the floor.
The absolute slips of underflowed terms (at most N * 2^-1074) and of the
final addition fall inside the truncation bound's own slack:
integral_0^1 |T_22(1-2x)|/(1+x) dx = 0.441, against ln 2 = 0.693.

Everything runs in Python floats, so this route loads no numpy.  It takes
t alone: ``harness.evaluate`` judges its outcome against whatever
accuracy or work a caller asks for, as it does every other route's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import DomainError, EvalOutcome

__all__ = [
    "AlternatingOutcome",
    "sum_alternating_s",
]

_EPS = sys.float_info.epsilon
_N = 22


def _chebyshev_weights(n: int) -> tuple:
    """(d, weights): d = T_n(3) = ((3 + sqrt 8)^n + (3 - sqrt 8)^n)/2 by
    the binomial theorem, and each w_k = c_k/d of Algorithm 1, the c_k
    kept in exact integers and each quotient rounded once."""
    d = sum(math.comb(n, 2 * j) * 3 ** (n - 2 * j) * 8 ** j
            for j in range(n // 2 + 1))
    b, c, weights = -1, -d, []
    for k in range(n):
        c = b - c
        weights.append(c / d)
        # b (k+n)(k-n) / ((k+1/2)(k+1)); the quotient is an integer
        b = 2 * b * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return d, tuple(weights)


_D, _WEIGHTS = _chebyshev_weights(_N)
# ln 2 / T_22(3), rounded up to the next double
_TRUNCATION = 1.9940006789122866e-17


@dataclass(frozen=True)
class AlternatingOutcome(EvalOutcome):
    """EvalOutcome plus the cancellation diagnostic of the alternating sum.

    ``cancellation`` is (sum |w_k a_(k+1)| + ``_TRUNCATION``/eps) / |value|,
    inf where the value is 0; eps times this ratio is the relative accuracy
    floor that roundoff and the truncation bound leave, so it keeps growing
    once |S(t)| sinks below that bound.
    """

    cancellation: float = 0.0


def sum_alternating_s(t: float) -> AlternatingOutcome:
    """S(t) = sum (-1)^n n^-1 exp(-t/n) in _N accelerated terms, with a
    cancellation diagnostic.

    The error estimate is ``_TRUNCATION`` plus the roundoff floor
    eps sum |w_k a_m| (3.5 + t/(2m)), m = k + 1, both derived in the
    module docstring.  Work is _N at every t.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"need finite t >= 0, got {t}")
    terms = [w * (math.exp(-t / m) / m) for m, w in enumerate(_WEIGHTS, 1)]
    value = -math.fsum(terms)
    mass = math.fsum(map(abs, terms))
    floor = _EPS * math.fsum(abs(p) * (3.5 + 0.5 * t / m)
                             for m, p in enumerate(terms, 1))
    cancel = (mass + _TRUNCATION / _EPS) / abs(value) if value else math.inf
    return AlternatingOutcome(value=value, error_estimate=_TRUNCATION + floor,
                              work=_N, method="series", cancellation=cancel)

"""High-lambda evaluation of S*(lambda) by the residue split.

Shifting the x-contour past the first pole pair of 1/(1+e^(z^2+y^2)) turns
the 2D Fourier integral into a dominant pole-line term I2 plus corrections
of order e^(-lambda a1) (shifted contour) and e^(-lambda a2) (second pole
pair).  The I2 principal part reduces to a single y-integral of

    e^(i lambda z_+(y)) / (i z_+(y)),   z_+(y) = x*(y) + i u*(y),

whose modulus e^(-lambda u*(y)) would underflow long before lambda = 60 if
summed naively.  Everything here is therefore computed against the scale
e^(-lambda sqrt(pi/2)): the factored integrand e^(-lambda (u*(y)-sqrt(pi/2)))
stays inside [e^(-0.92 lambda), 1] on the strip and the true value
is reassembled (or reported scaled) at the very end.

The corrections are never computed, only bounded: a single constant kappa
is calibrated against the Hankel route in the overlap window lambda in
[10, 16] and reused for the e^(-lambda a1) + e^(-lambda a2) bound shape.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import (RESIDUE_MIN_LAMBDA, DomainError, EvalOutcome, RangeError,
                   ToleranceSpec, WorkLimitError)
from .poles import default_strip

__all__ = [
    "RESIDUE_MIN_LAMBDA",
    "ResidueResult",
    "saddle_lhs_numeric",
    "s_star_via_residue",
    "calibrated_kappa",
]

_EPS = float(np.finfo(float).eps)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
# sqrt(pi/2) as an unevaluated double-double sum hi + lo, for _decay.  The
# scaled integrand and kappa keep _SQRT_HALF_PI, one ulp below hi, so their
# bits do not move.
_SQRT_HALF_PI_HI = 1.253314137315500343e+00
_SQRT_HALF_PI_LO = -9.164289990229583387e-17

_STRIP = default_strip()
_KAPPA_CACHE: float | None = None
# one calibration, however many threads ask for it at once
_KAPPA_LOCK = threading.Lock()


@dataclass(frozen=True)
class ResidueResult(EvalOutcome):
    """Residue-route estimate of S*; ``scaled_value`` and ``neglected_bound``
    are ``value`` and ``error_estimate`` at the e^(lambda sqrt(pi/2)) scale,
    where they stay representable at any lambda."""

    method: str = "residue"
    scaled_value: float = math.nan
    neglected_bound: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not self.neglected_bound >= 0.0:
            raise DomainError("neglected_bound must be >= 0")

    @property
    def unscaled_value(self) -> float:
        """Alias of ``value``."""
        return self.value


def _veltkamp(a: float):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


# the halves of _SQRT_HALF_PI_HI for Dekker's two-product
_SQRT_HALF_PI_HH, _SQRT_HALF_PI_HL = _veltkamp(_SQRT_HALF_PI_HI)


def _decay(lam: float) -> float:
    """e^(-lambda sqrt(pi/2)), to a few ulp where it is normal.

    math.exp(-lam * _SQRT_HALF_PI) takes an argument rounded twice, in the
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


def _pole_line_arrays(y: np.ndarray):
    """u*(y), x*(y) and the stable offset u*(y) - sqrt(pi/2) for arrays."""
    y2 = y * y
    root = np.hypot(y2, math.pi)
    us = np.sqrt(0.5 * (y2 + root))
    xs = (0.5 * math.pi) / us
    # u*^2 - pi/2 = (y^2 + (root - pi))/2 with root - pi = y^4/(root + pi),
    # so the difference of nearly equal square roots never materializes.
    offset = (y2 + y2 * y2 / (root + math.pi)) / (2.0 * (us + _SQRT_HALF_PI))
    return us, xs, offset


def _saddle_edges(lam: float, b: float):
    """Panel edges on [-b, b], fine at the lambda^(-1/2)-wide central bump.

    Full-rule nodes come to 16 per panel, so the total is >= 8*16 = 128
    for small lambda and grows like 16 sqrt(lambda) once 2 sigma steps
    dominate, matching the intended node budget max(64, 16 sqrt(lambda)).
    A panel count past ``hankel.MAX_PANELS`` (600, near lambda = 2.5e5)
    is refused before any edge is placed; beyond lambda ~ 1e33 the steps
    would fall below half an ulp of b and never arrive.
    """
    from .hankel import MAX_PANELS

    sigma = (2.0 * math.pi) ** 0.25 / math.sqrt(lam)
    panels = 2.0 * (6.0 + 0.5 * b / sigma)
    if panels > MAX_PANELS:
        raise WorkLimitError(
            f"lambda = {lam:g} needs about {panels:.3g} saddle panels, "
            f"over the budget of {MAX_PANELS}")
    half = [0.0]
    yv = 0.0
    while yv < 6.0 * sigma and yv < b:
        yv = min(yv + sigma, b)
        half.append(yv)
    while yv < b:
        yv = min(yv + 2.0 * sigma, b)
        half.append(yv)
    if half[-1] != b:
        half.append(b)
    return [-e for e in reversed(half)] + half[1:]


def _scaled_saddle(lam: float, b: float = _STRIP.b, order: int = 16):
    """Both branch integrals of the scaled saddle integrand.

    Returns (a_plus, a_minus, refine, min_mag, work) where a_+- approximate
    integral of e^(lambda(sqrt(pi/2) - u*(y))) e^(+-i lambda x*(y))/(i z_+-)
    over [-b, b] and min_mag is the smallest exponential factor seen.
    """
    from .hankel import panel_quadrature

    edges = _saddle_edges(lam, b)
    min_box = [1.0]

    def make_integrand(branch):
        def g(y):
            us, xs, offset = _pole_line_arrays(y)
            damp = np.exp(-lam * offset)
            m = float(np.min(damp))
            if m < min_box[0]:
                min_box[0] = m
            z = branch * xs + 1j * us
            return damp * np.exp(1j * branch * lam * xs) / (1j * z)
        return g

    a_plus, r1, ai1, _, w1 = panel_quadrature(make_integrand(1), edges, order)
    a_minus, r2, ai2, _, w2 = panel_quadrature(make_integrand(-1), edges, order)
    refine = r1 + r2 + 4.0 * _EPS * (ai1 + ai2)
    return complex(a_plus), complex(a_minus), refine, min_box[0], w1 + w2


def saddle_lhs_numeric(lam: float,
                       tol: ToleranceSpec | None = None) -> complex:
    """integral_{-b}^{b} e^(i lambda z_+(y))/(i z_+(y)) dy, lambda > 0.

    The value returned is the true integral; only the final multiplication
    by e^(-lambda sqrt(pi/2)) can underflow (at lambda beyond ~560), every
    intermediate stays comfortably normal.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"need finite lambda > 0, got {lam}")
    tol = tol or ToleranceSpec()
    a_plus, _, refine, _, _ = _scaled_saddle(lam)
    scale = _decay(lam)
    if not tol.met_by(refine * scale, abs(a_plus) * scale):
        raise WorkLimitError(
            f"quadrature estimate {refine * scale:.3e} misses the tolerance")
    return a_plus * scale


def calibrated_kappa() -> float:
    """Constant kappa of the neglected-term model, fitted once per process.

    The shifted contour and second pole pair contribute O(e^(-lambda a1))
    and O(e^(-lambda a2)); the order is proven but the constant is not, so
    it is measured: kappa is the worst ratio of the observed scaled
    discrepancy |hankel - residue| to the model shape e^(-lambda(a1 -
    sqrt(pi/2))) over the overlap window lambda in {10, 12, 14, 16}.
    """
    global _KAPPA_CACHE
    from .hankel import hankel_s_star

    if _KAPPA_CACHE is not None:
        return _KAPPA_CACHE
    with _KAPPA_LOCK:
        if _KAPPA_CACHE is not None:  # filled while this thread waited
            return _KAPPA_CACHE
        worst = 0.0
        for lam in (10.0, 12.0, 14.0, 16.0):
            href = hankel_s_star(lam).value
            a_plus, a_minus, _, _, _ = _scaled_saddle(lam)
            scaled_res = -(a_plus + a_minus).real
            scaled_diff = abs(math.exp(lam * _SQRT_HALF_PI) * href
                              - scaled_res)
            shape = math.exp(-lam * (_STRIP.a1 - _SQRT_HALF_PI))
            worst = max(worst, scaled_diff / shape)
        _KAPPA_CACHE = worst
        return worst


def s_star_via_residue(lam: float,
                       tol: ToleranceSpec | None = None) -> ResidueResult:
    """S*(lambda) ~ -(1/pi) I2, with the neglected terms bounded not summed.

    Serves RESIDUE_MIN_LAMBDA = 8 <= lambda <= ~2.5e5.  Below 8 the
    neglected terms outgrow their fitted bound (at lambda = 0.5 the value
    is off by 1.3 against an estimate of 0.045), so RangeError refuses
    them; above ~2.5e5 the saddle panels exceed their budget
    (WorkLimitError).  A ``tol`` the error estimate misses raises
    WorkLimitError carrying the result as ``partial``.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"need finite lambda > 0, got {lam}")
    if lam < RESIDUE_MIN_LAMBDA:
        raise RangeError(
            f"lambda = {lam} is below the residue route's window "
            f"lambda >= {RESIDUE_MIN_LAMBDA:g}")
    a_plus, a_minus, refine, min_mag, work = _scaled_saddle(lam)
    if lam <= 60.0 and 0.0 < min_mag < 2.3e-308:
        raise WorkLimitError(
            f"subnormal intermediate {min_mag} at lambda = {lam}")
    scaled = -(a_plus + a_minus).real
    kappa = calibrated_kappa()
    shape = (math.exp(-lam * (_STRIP.a1 - _SQRT_HALF_PI))
             + math.exp(-lam * (_STRIP.a2 - _SQRT_HALF_PI)))
    bound = kappa * shape + refine
    scale = _decay(lam)
    # from lambda ~ 566 bound * scale underflows to 0.0 while the value is
    # still a nonzero subnormal: floor the estimate at the smallest one
    result = ResidueResult(scaled * scale, max(bound * scale, math.ulp(0.0)),
                           work, scaled_value=scaled, neglected_bound=bound)
    if tol is not None and not tol.met_by(result.error_estimate, result.value):
        raise WorkLimitError(
            f"error estimate {result.error_estimate:.3e} misses the requested "
            "tolerance", partial=result)
    return result

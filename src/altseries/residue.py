"""High-lambda evaluation of S*(lambda) by the residue split.

Shifting the x-contour past the first pole pair of 1/(1+e^(z^2+y^2)) turns
the 2D Fourier integral into a dominant pole-line term I2 plus corrections
of order e^(-lambda a1) (shifted contour) and e^(-lambda a2) (second pole
pair).  The I2 principal part reduces to a single y-integral of

    e^(i lambda z_+(y)) / (i z_+(y)),   z_+(y) = x*(y) + i u*(y),

whose modulus e^(-lambda u*(y)) would underflow long before lambda = 60 if
summed naively.  Everything here is therefore computed against the scale
e^(-lambda sqrt(pi/2)): the factored integrand e^(-lambda (u*(y)-sqrt(pi/2)))
stays inside [e^(-(a - sqrt(pi/2)) lambda), 1] = [e^(-0.747 lambda), 1] on
the strip |y| <= b, and the true value is reassembled (or reported scaled)
at the very end.

The corrections are never computed, only bounded: a single constant kappa,
fitted against the Hankel route in the overlap window lambda in [10, 16]
and checked in as ``KAPPA``, scales the e^(-lambda a1) + e^(-lambda a2)
bound shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotic import SQRT_HALF_PI
from .core import DomainError, EvalOutcome, WorkLimitError, check_window
from .poles import STRIP_A1, STRIP_A2, STRIP_B

__all__ = [
    "KAPPA",
    "ResidueResult",
    "s_star_via_residue",
    "calibrated_kappa",
]

_EPS = float(np.finfo(float).eps)
# sqrt(pi/2) as an unevaluated double-double sum hi + lo, for _decay.  The
# scaled integrand and the kappa fit keep SQRT_HALF_PI, one ulp below hi, so
# their bits do not move.
_SQRT_HALF_PI_HI = 1.253314137315500343e+00
_SQRT_HALF_PI_LO = -9.164289990229583387e-17

# The constant of the neglected-term model.  The shifted contour and second
# pole pair contribute O(e^(-lambda a1)) and O(e^(-lambda a2)); the order is
# proven but the constant is not, so it is measured: kappa is the worst
# scaled discrepancy |hankel - residue| / e^(-lambda(a1 - sqrt(pi/2))) over
# lambda in {10, 12, 14, 16}.  tests/test_residue.py re-runs that fit and
# requires this exact float, so a change that moves it re-derives it there.
KAPPA = 0.06126676755228544


@dataclass(frozen=True)
class ResidueResult(EvalOutcome):
    """Residue-route estimate of S*.  ``scaled_value`` is the figure's
    -e^(lambda sqrt(pi/2)) * ``value``, as in ``AsymptoticTerm``, and
    ``neglected_bound`` is ``error_estimate`` at the same scale; both stay
    representable at any lambda."""

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


def _pole_line_arrays(y: np.ndarray):
    """u*(y), x*(y) and the stable offset u*(y) - sqrt(pi/2) for arrays."""
    y2 = y * y
    root = np.hypot(y2, math.pi)
    us = np.sqrt(0.5 * (y2 + root))
    xs = (0.5 * math.pi) / us
    # u*^2 - pi/2 = (y^2 + (root - pi))/2 with root - pi = y^4/(root + pi),
    # so the difference of nearly equal square roots never materializes.
    offset = (y2 + y2 * y2 / (root + math.pi)) / (2.0 * (us + SQRT_HALF_PI))
    return us, xs, offset


def _saddle_edges(lam: float):
    """Panel edges on [-b, b], b = STRIP_B, fine at the lambda^(-1/2)-wide
    central bump.

    Full-rule nodes come to 16 per panel, so the total is >= 8*16 = 128
    for small lambda and grows like 16 sqrt(lambda) once 2 sigma steps
    dominate, matching the intended node budget max(64, 16 sqrt(lambda)).
    A panel count past ``hankel.MAX_PANELS`` (600, near lambda = 2.5e5)
    is refused before any edge is placed; beyond lambda ~ 1e33 the steps
    would fall below half an ulp of b and never arrive.
    """
    from .hankel import MAX_PANELS

    b = STRIP_B
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
    return [-e for e in reversed(half)] + half[1:]


def _scaled_saddle(lam: float):
    """Both branch integrals of the scaled saddle integrand.

    Returns (a_plus, a_minus, refine, work) where a_+- approximate
    integral of e^(lambda(sqrt(pi/2) - u*(y))) e^(+-i lambda x*(y))/(i z_+-)
    over [-b, b], b = STRIP_B.
    """
    from .hankel import panel_quadrature

    edges = _saddle_edges(lam)

    def make_integrand(branch):
        def g(y):
            us, xs, offset = _pole_line_arrays(y)
            damp = np.exp(-lam * offset)
            z = branch * xs + 1j * us
            return damp * np.exp(1j * branch * lam * xs) / (1j * z)
        return g

    a_plus, r1, ai1, _, w1 = panel_quadrature(make_integrand(1), edges, 16)
    a_minus, r2, ai2, _, w2 = panel_quadrature(make_integrand(-1), edges, 16)
    refine = r1 + r2 + 4.0 * _EPS * (ai1 + ai2)
    return complex(a_plus), complex(a_minus), refine, w1 + w2


def calibrated_kappa() -> float:
    """``KAPPA``.  Kept only because perfbench's tracer wraps this name;
    ``s_star_via_residue`` reads kappa through it for the same reason."""
    return KAPPA


def s_star_via_residue(lam: float) -> ResidueResult:
    """S*(lambda) ~ -(1/pi) I2, with the neglected terms bounded not summed.

    Serves its window in ``core.WINDOWS`` up to ~2.56e5.  Below it the
    neglected terms outgrow their fitted bound (at lambda = 0.5 the value
    is off by 1.3 against an estimate of 0.045), so RangeError refuses
    them; above ~2.56e5 the saddle panels exceed their budget
    (WorkLimitError).
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"need finite lambda > 0, got {lam}")
    check_window("residue", lam)
    a_plus, a_minus, refine, work = _scaled_saddle(lam)
    scaled = (a_plus + a_minus).real
    kappa = calibrated_kappa()
    shape = (math.exp(-lam * (STRIP_A1 - SQRT_HALF_PI))
             + math.exp(-lam * (STRIP_A2 - SQRT_HALF_PI)))
    bound = kappa * shape + refine
    scale = _decay(lam)
    # from lambda ~ 566 bound * scale underflows to 0.0 while the value is
    # still a nonzero subnormal: floor the estimate at the smallest one
    return ResidueResult(-scaled * scale, max(bound * scale, math.ulp(0.0)),
                         work, scaled_value=scaled, neglected_bound=bound)

"""Closed-form asymptotics of S*(lambda) and the error-envelope model.

The leading term is

    S*(lambda) ~ 2^(3/2) pi^(1/4) lambda^(-1/2) e^(-lambda sqrt(pi/2))
                 * cos(lambda sqrt(pi/2) + pi/8),

exposed as an :class:`AsymptoticTerm` so callers can reason about the
non-oscillating amplitude separately from the cosine.  All comparisons
against numerics are made relative to the amplitude, never pointwise at
cosine zeros, and scaled-by-e^(+lambda sqrt(pi/2)) outputs are first-class
because that is the quantity worth plotting.

``saddle_rhs_closed`` carries an extra lambda^(-1/2) relative to the leading
constant: the stationary-phase width of the saddle contributes
sqrt(2 pi / (lambda * second-derivative)) ~ lambda^(-1/2), and the numerical
check in the tests (agreement with the true contour integral to ~0.2% at
lambda = 30) pins the factor down unambiguously.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import DomainError, RangeError

__all__ = [
    "AsymptoticTerm",
    "SQRT_HALF_PI",
    "FRONT_CONSTANT",
    "asym_s_star",
    "asym_s_t",
    "saddle_rhs_closed",
    "error_envelope",
    "rough_bound_trace",
]

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
# 2^(3/2) * pi^(1/4), correctly rounded.
FRONT_CONSTANT = 3.7655850551068593


@dataclass(frozen=True)
class AsymptoticTerm:
    """amplitude * cos(phase), with the pieces kept apart.

    ``value`` is stored as literally amplitude*cos(phase) so downstream
    consumers can rely on the identity bit-for-bit.
    """

    lam: float
    amplitude: float
    phase: float
    value: float

    @property
    def scaled_amplitude(self) -> float:
        """Amplitude with the e^(-lambda sqrt(pi/2)) decay divided out."""
        return FRONT_CONSTANT / math.sqrt(self.lam)

    @property
    def scaled_value(self) -> float:
        """-e^(+lambda sqrt(pi/2)) * value, computed without overflow."""
        return -self.scaled_amplitude * math.cos(self.phase)


def asym_s_star(lam: float) -> AsymptoticTerm:
    """Leading asymptotic term of S*(lambda), lambda > 0."""
    if not 0.0 < lam < math.inf:
        raise DomainError(f"need finite lambda > 0, got {lam}")
    decay = lam * SQRT_HALF_PI
    amplitude = FRONT_CONSTANT * math.exp(-decay) / math.sqrt(lam)
    phase = decay + math.pi / 8.0
    return AsymptoticTerm(lam=lam, amplitude=amplitude, phase=phase,
                          value=amplitude * math.cos(phase))


def asym_s_t(t: float) -> AsymptoticTerm:
    """Leading asymptotic term of S(t), t > 0.

    Algebraically identical to asym_s_star at lambda = 2 sqrt(t)
    (2 pi^(1/4) / t^(1/4) = 2^(3/2) pi^(1/4) / sqrt(lambda) and
    sqrt(2 pi t) = lambda sqrt(pi/2)), and deliberately evaluated through
    the same code path so the two parameterizations agree to the last bit.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"need finite t > 0, got {t}")
    return asym_s_star(2.0 * math.sqrt(t))


def saddle_rhs_closed(lam: float) -> complex:
    """Closed form of the saddle-point integral over the pole line.

    Returns -sqrt(2) pi^(1/4) lambda^(-1/2) e^(-lambda sqrt(pi/2))
    * e^(i (lambda sqrt(pi/2) + pi/8)).
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"need finite lambda > 0, got {lam}")
    theta = lam * SQRT_HALF_PI + math.pi / 8.0
    mag = (math.sqrt(2.0) * math.pi ** 0.25 / math.sqrt(lam)
           * math.exp(-lam * SQRT_HALF_PI))
    return -mag * cmath.exp(1j * theta)


def error_envelope(lam: float) -> float:
    """Shape e^(-lambda sqrt(pi/2)) lambda^(-3/2) of the asymptotic error.

    Unit constant by convention; callers multiply by the empirically
    calibrated prefactor recorded in verification reports.  Below
    lambda ~ 1e-206 the shape overflows a double and is refused.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"need finite lambda > 0, got {lam}")
    try:
        shape = lam ** -1.5
    except OverflowError:
        raise RangeError(
            f"the asymptotic error envelope overflows at lambda = {lam:g}"
        ) from None
    return math.exp(-lam * SQRT_HALF_PI) * shape


def rough_bound_trace(a: float, lambda_grid) -> list[float]:
    """e^(a lambda) |S*(lambda)| along a grid, for 0 <= a < sqrt(pi/2).

    Since |S*| decays like e^(-lambda sqrt(pi/2)) (times algebraic factors),
    any a below sqrt(pi/2) must send the trace to zero; tests assert the
    downward trend.  a = 0 degenerates to |S*| itself.  The numeric value
    comes from ``evaluate('auto')``: the Hankel route up to its switch and
    the residue route beyond, read at the scale where plain doubles would
    otherwise underflow.
    """
    if not 0.0 <= a < SQRT_HALF_PI:
        raise DomainError(f"need 0 <= a < sqrt(pi/2) ~ 1.2533, got {a}")
    from .harness import evaluate

    out = []
    for lam in lambda_grid:
        if not lam > 0:
            raise DomainError("lambda grid entries must be positive")
        res = evaluate("auto", lam)
        if res.method == "residue":
            val = abs(res.scaled_value) * math.exp((a - SQRT_HALF_PI) * lam)
        else:
            val = abs(res.value) * math.exp(a * lam)
        out.append(float(val))
    return out

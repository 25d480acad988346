"""Closed-form asymptotics of S*(lambda) and the error-envelope model.

The leading term is

    S*(lambda) ~ 2^(3/2) pi^(1/4) lambda^(-1/2) e^(-lambda sqrt(pi/2))
                 * cos(lambda sqrt(pi/2) + pi/8),

exposed as an :class:`AsymptoticTerm` so callers can reason about the
non-oscillating amplitude separately from the cosine.  All comparisons
against numerics are made relative to the amplitude, never pointwise at
cosine zeros, and scaled-by-e^(+lambda sqrt(pi/2)) outputs are first-class
because that is the quantity worth plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SQRT_HALF_PI, DomainError, RangeError

__all__ = [
    "AsymptoticTerm",
    "SQRT_HALF_PI",
    "FRONT_CONSTANT",
    "asym_s_star",
    "asym_s_t",
    "error_envelope",
]

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


def error_envelope(lam: float) -> float:
    """Shape e^(-lambda sqrt(pi/2)) lambda^(-3/2) of the asymptotic error.

    Unit constant by convention, and no caller scales it:
    ``harness._asymptotic`` reports this shape itself as the asymptotic
    route's error estimate.  The oracle audit in
    tests/test_oracle_audit.py finds |error| / estimate at most 0.26 over
    lambda in [8, 40].  Below lambda ~ 1e-206 the shape overflows a double
    and is refused.
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

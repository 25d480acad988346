"""Direct evaluation of S(t) = sum_n (-1)^n n^-1 exp(-t/n).

Two summation regimes are used:

* ``sum_alternating_s``: a direct bulk up to N0 > t, past which the terms
  b_n = n^-1 exp(-t/n) decrease monotonically, followed by the Euler
  transform of the alternating tail,
  sum_m (-1)^m b_m = (-1)^(N0+1)/2 * sum_k (-1/2)^k Delta^k b_(N0+1),
  whose terms decay geometrically once the forward differences of the
  smooth tail die off;
* ``_sum_interior``: ascending chunked summation of the general series
  S(z, nu, t) = sum z^n n^(-nu) exp(-t/n) at |z| < 1 with an explicit
  geometric tail majorant.  It serves only ``derivative_residuals``, the
  structural-identity check.

All accumulation uses math.fsum (exact compensated addition), and every
result carries an error estimate that includes the roundoff floor
eps * sum|terms| -- in the heavily cancelling large-t regime that floor, not
truncation, is the honest accuracy limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, EvalOutcome, ToleranceSpec, WorkLimitError

__all__ = [
    "SeriesParams",
    "AlternatingOutcome",
    "sum_alternating_s",
    "derivative_residuals",
]

_EPS = float(np.finfo(float).eps)
_CHUNK = 8192
_EULER_COLUMNS = 48


@dataclass(frozen=True)
class SeriesParams:
    """Parameters (z, nu, t) of the general series, with 0 < |z| < 1."""

    z: complex
    nu: float
    t: float

    def __post_init__(self):
        az = abs(self.z)
        if not 0.0 < az < 1.0:
            raise DomainError(f"need 0 < |z| < 1, got |z| = {az}")
        if not self.nu > 0:
            raise DomainError(f"need nu > 0, got {self.nu}")
        if not self.t >= 0:
            raise DomainError(f"need t >= 0, got {self.t}")


@dataclass(frozen=True)
class AlternatingOutcome(EvalOutcome):
    """EvalOutcome plus the cancellation diagnostic of the alternating sum.

    ``cancellation`` is the ratio of the accumulated |term| mass (the largest
    partial sum of the absolute series) to |result|; eps times this ratio is
    the relative accuracy floor reachable in doubles.
    """

    cancellation: float = 0.0


def _term_block(z: complex, nu: float, t: float, n: np.ndarray, weight):
    """Terms z^n n^(-nu) exp(-t/n) [* weight(n)] for an integer block n."""
    base = np.exp(-t / n) * n ** (-nu)
    if weight is not None:
        base = base * weight(n)
    if z.imag == 0.0:
        x = z.real
        pw = np.abs(x) ** n
        if x < 0.0:
            pw = np.where(n % 2 == 0, pw, -pw)
        return pw * base
    return np.power(z, n.astype(complex)) * base


def _sum_interior(z: complex, nu: float, t: float, tol: ToleranceSpec,
                  weight=None):
    """S(z, nu, t) [with weight(n) on each term] at |z| < 1.

    Returns (value, error_estimate, work).  The error estimate is the
    geometric majorant |z|^N / (1 - |z|) * (largest remaining term factor)
    of the unsummed tail plus the roundoff floor 4 eps sum|terms|.
    """
    z_abs = abs(z)
    re_parts, im_parts, abs_parts = [], [], []
    n_done = 0
    while True:
        n = np.arange(n_done + 1, n_done + _CHUNK + 1, dtype=float)
        terms = _term_block(z, nu, t, n, weight).astype(complex)
        re_parts.append(math.fsum(terms.real))
        im_parts.append(math.fsum(terms.imag))
        abs_parts.append(float(np.sum(np.abs(terms))))
        n_done += _CHUNK
        value = complex(math.fsum(re_parts), math.fsum(im_parts))
        n_next = n_done + 1
        factor = float(n_next) ** (-nu)
        if n_next * nu > t:
            factor *= math.exp(-t / n_next)
        if weight is not None:
            factor *= abs(float(weight(np.array([float(n_next)]))[0]))
        bound = z_abs ** n_next / (1.0 - z_abs) * factor
        floor = 4.0 * _EPS * math.fsum(abs_parts)
        if tol.met_by(bound + floor, abs(value)):
            return value, bound + floor, n_done
        if n_done >= tol.max_work:
            pval = value.real if z.imag == 0.0 else value
            raise WorkLimitError(
                f"geometric tail still {bound:.3e} after {n_done} terms",
                partial=EvalOutcome(pval, bound + floor, n_done, "series"))


def _abs_terms(t: float, n: np.ndarray) -> np.ndarray:
    """Term magnitudes b_n = n^-1 exp(-t/n).

    Multiplying by the rounded reciprocal, not dividing by n, is the
    rounding that the frozen outcomes in the tests were summed with.
    """
    return np.exp(-t / n) * (1.0 / n)


def sum_alternating_s(t: float, tol: ToleranceSpec | None = None
                      ) -> AlternatingOutcome:
    """S(t) = sum (-1)^n n^-1 exp(-t/n), with a cancellation diagnostic.

    The bulk n <= N0 is summed directly and the tail by the Euler transform;
    N0 doubles until the transform converges, with four tries at most.
    The error estimate adds the truncation of the transform, the roundoff
    of its k-fold difference table and the floor
    4 eps sum|bulk terms| + eps (sum|tail terms| + |bulk|).
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"need finite t >= 0, got {t}")
    tol = tol or ToleranceSpec()
    n0 = int(max(64, math.ceil(t) + 32))

    for _ in range(4):
        if n0 > tol.max_work:
            raise WorkLimitError(
                f"bulk stage of {n0} terms exceeds max_work {tol.max_work}")
        n = np.arange(1, n0 + 1, dtype=float)
        b = _abs_terms(t, n)
        bulk = math.fsum(np.where(n % 2 == 0, b, -b))
        absum_bulk = float(np.sum(b))

        m = np.arange(n0 + 1, n0 + _EULER_COLUMNS + 1, dtype=float)
        b = _abs_terms(t, m)
        # Euler weight of column k: (-1)^(n0+1)/2 * (-1/2)^k
        wk = 0.5 if n0 % 2 else -0.5

        tail = 0.0
        abs_tail = 0.0
        diffs = b
        t_prev = math.inf
        target = 1e-3 * max(tol.abs_tol, _EPS * absum_bulk)
        for k in range(_EULER_COLUMNS):
            term = wk * float(diffs[0])
            tail += term
            abs_tail += abs(term)
            small_enough = abs(term) <= target and abs(term) <= t_prev
            plateaued = k >= 8 and abs(term) >= t_prev
            if small_enough or plateaued:
                break
            t_prev = abs(term)
            wk *= -0.5
            diffs = np.diff(diffs)
        else:
            n0 *= 2
            continue

        trunc = 2.0 * max(abs(term), min(t_prev, abs(term) * 4.0))
        # Roundoff amplification of the k-fold difference table: with
        # Euler ratio 1/2 each of the k + 1 columns adds eps * b_0 / 2.
        table_noise = _EPS * 0.5 * float(b[0]) * (k + 1.0)
        floor = 4.0 * _EPS * absum_bulk + _EPS * (abs_tail + abs(bulk))
        err = trunc + table_noise + floor
        value = bulk + tail
        work = n0 + k + 1
        if work > tol.max_work:
            raise WorkLimitError(
                f"work {work} exceeds max_work {tol.max_work}",
                partial=EvalOutcome(value, err, work, "series"))
        absum = absum_bulk + abs_tail
        cancel = absum / abs(value) if value != 0 else math.inf
        return AlternatingOutcome(value=value, error_estimate=err, work=work,
                                  method="series", cancellation=cancel)

    raise WorkLimitError("Euler tail failed to converge", partial=None)


def derivative_residuals(p: SeriesParams, h: float) -> tuple[float, float, float]:
    """Residuals of the three derivative identities, by central differences.

    Checks (with D the step-h central difference):
      r1 = |D_t S(z,nu,t) + S(z,nu+1,t)|
      r2 = |D_z S(z,nu+1,t) - S(z,nu,t)/z|
      r3 = |D2_tz S(z,nu,t) + S(z,nu,t)/z|
    Each is O(h^2).  The t-differences are evaluated term-wise through the
    exact factorization exp(-(t+-h)/n) = exp(-t/n) exp(-+h/n), i.e. with the
    weight -sinh(h/n)/h; that is the same central-difference operator but
    free of subtractive cancellation, so the h^2 order survives small h.
    """
    if not h > 0:
        raise DomainError("need h > 0")
    if p.t - h < 0:
        raise DomainError("t - h leaves the domain; reduce h")
    for dz in (p.z + h, p.z - h):
        if not abs(dz) < 1.0:
            raise DomainError("z +- h leaves the open unit disk; reduce h")
    tol = ToleranceSpec(abs_tol=1e-15, rel_tol=1e-15)
    z, nu, t = complex(p.z), p.nu, p.t

    def sval(zz, nn, weight=None):
        return _sum_interior(zz, nn, t, tol, weight)[0]

    sinh_w = lambda n: -np.sinh(h / n) / h

    s_nu = sval(z, nu)
    s_nu1 = sval(z, nu + 1.0)
    dt = sval(z, nu, sinh_w)
    r1 = abs(dt + s_nu1)

    dzv = (sval(z + h, nu + 1.0) - sval(z - h, nu + 1.0)) / (2.0 * h)
    r2 = abs(dzv - s_nu / z)

    dtz = (sval(z + h, nu, sinh_w) - sval(z - h, nu, sinh_w)) / (2.0 * h)
    r3 = abs(dtz + s_nu / z)
    return float(r1), float(r2), float(r3)

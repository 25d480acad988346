"""Direct evaluation of S(z, nu, t) = sum_n z^n n^(-nu) exp(-t/n).

The series converges absolutely for |z| < 1 and conditionally on the boundary
(z != 1).  Three summation regimes are used:

* interior |z| < 1: ascending chunked summation with an explicit geometric
  tail majorant |z|^(N+1) / (1 - |z|) * (largest remaining term factor);
* boundary |z| = 1 with z/(1-z) inside the unit disk comfortably (this
  includes z = -1, where z/(1-z) = -1/2): a direct bulk up to
  N0 > t/nu followed by a generalized Euler transform of the tail,
  sum_m z^m b_m = sum_k (z/(1-z))^k z Delta^k b_0 / (1-z), whose terms decay
  geometrically once the forward differences of the smooth tail die off;
* anything else (boundary points too close to z = 1 for the transform):
  best-effort direct summation until the work budget runs out, reported as a
  work-limit error carrying the partial value.

All accumulation uses math.fsum (exact compensated addition), and every
result carries an error estimate that includes the roundoff floor
eps * sum|terms| -- in the heavily cancelling large-t regime that floor, not
truncation, is the honest accuracy limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _dd
from .core import DomainError, EvalOutcome, ToleranceSpec, WorkLimitError

__all__ = [
    "SeriesParams",
    "AlternatingOutcome",
    "sum_series",
    "sum_alternating_s",
    "derivative_residuals",
]

_EPS = float(np.finfo(float).eps)
_CHUNK = 8192
_EULER_COLUMNS = 48


@dataclass(frozen=True)
class SeriesParams:
    """Parameters (z, nu, t) of the general series.

    z may sit on the unit circle except within 1e-9 of z = 1, where the
    series diverges for nu <= 1 and the boundary behaviour is not our
    business anyway.
    """

    z: complex
    nu: float
    t: float

    def __post_init__(self):
        az = abs(self.z)
        if not az <= 1.0 + 4.0 * _EPS:
            raise DomainError(f"need |z| <= 1, got |z| = {az}")
        if abs(az - 1.0) <= 4.0 * _EPS and abs(self.z - 1.0) <= 1e-9:
            raise DomainError("z = 1 on the boundary is excluded")
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


def _tail_majorant(z_abs: float, nu: float, t: float, n_next: int, weight) -> float:
    """Geometric majorant of the remaining sum from term n_next on, |z| < 1."""
    if z_abs >= 1.0:
        return math.inf
    factor = float(n_next) ** (-nu)
    if n_next * nu > t:
        factor *= math.exp(-t / n_next)
    if weight is not None:
        factor *= abs(float(weight(np.array([float(n_next)]))[0]))
    return z_abs ** n_next / (1.0 - z_abs) * factor


def _fsum_complex(chunks_re, chunks_im) -> complex:
    return complex(math.fsum(chunks_re), math.fsum(chunks_im))


def _sum_interior(z: complex, nu: float, t: float, tol: ToleranceSpec, weight):
    """Ascending direct summation for |z| < 1 with geometric tail control."""
    re_parts, im_parts, abs_parts = [], [], []
    n_done = 0
    value = 0.0 + 0.0j
    while True:
        n = np.arange(n_done + 1, n_done + _CHUNK + 1, dtype=float)
        terms = _term_block(z, nu, t, n, weight)
        terms = np.atleast_1d(terms).astype(complex)
        re_parts.append(math.fsum(terms.real))
        im_parts.append(math.fsum(terms.imag))
        abs_parts.append(float(np.sum(np.abs(terms))))
        n_done += _CHUNK
        value = _fsum_complex(re_parts, im_parts)
        bound = _tail_majorant(abs(z), nu, t, n_done + 1, weight)
        absum = math.fsum(abs_parts)
        floor = 4.0 * _EPS * absum
        if tol.met_by(bound + floor, abs(value)):
            return value, bound + floor, n_done, absum
        if n_done >= tol.max_work:
            pval = value.real if z.imag == 0.0 else value
            raise WorkLimitError(
                f"geometric tail still {bound:.3e} after {n_done} terms",
                partial=EvalOutcome(pval, bound + floor, n_done, "series"))


def _sum_boundary_euler(z: complex, nu: float, t: float, tol: ToleranceSpec,
                        weight, dd_terms: bool):
    """Bulk + Euler-transformed tail for boundary z with |z/(1-z)| < 0.8."""
    w = z / (1.0 - z)
    n0 = int(max(64, math.ceil(t / nu) + 32))

    for _ in range(4):
        if n0 > tol.max_work:
            raise WorkLimitError(
                f"bulk stage of {n0} terms exceeds max_work {tol.max_work}")
        n = np.arange(1, n0 + 1, dtype=float)
        if dd_terms and z.imag == 0.0 and z.real == -1.0 and weight is None:
            bulk, absum_bulk = _bulk_dd_alternating(nu, t, n)
        else:
            terms = np.atleast_1d(_term_block(z, nu, t, n, weight)).astype(complex)
            bulk = complex(math.fsum(terms.real), math.fsum(terms.imag))
            absum_bulk = float(np.sum(np.abs(terms)))

        m = np.arange(n0 + 1, n0 + _EULER_COLUMNS + 1, dtype=float)
        b = np.exp(-t / m) * m ** (-nu)
        if weight is not None:
            b = b * weight(m)
        pref = z ** (n0 + 1) / (1.0 - z)

        tail = 0.0 + 0.0j
        abs_tail = 0.0
        wk = 1.0 + 0.0j
        diffs = b.astype(float)
        converged = False
        t_prev = math.inf
        target = 1e-3 * max(tol.abs_tol, _EPS * absum_bulk)
        for k in range(_EULER_COLUMNS):
            term = pref * wk * diffs[0]
            tail += term
            abs_tail += abs(term)
            small_enough = abs(term) <= target and abs(term) <= t_prev
            plateaued = k >= 8 and abs(term) >= t_prev
            if small_enough or plateaued:
                converged = True
                break
            t_prev = abs(term)
            wk *= w
            diffs = np.diff(diffs)

        if converged:
            trunc = 2.0 * max(abs(term), min(t_prev, abs(term) * 4.0))
            # Roundoff amplification of the k-fold difference table.
            table_noise = _EPS * abs(pref) * float(b[0])
            g = 2.0 * abs(w)
            table_noise *= (g ** (k + 1) - 1.0) / (g - 1.0) if g != 1.0 else k + 1.0
            absum = absum_bulk + abs_tail
            per_term = 1e-30 if (dd_terms and z == -1.0 + 0.0j and weight is None) \
                else 4.0 * _EPS
            floor = per_term * absum_bulk + _EPS * (abs_tail + abs(bulk))
            err = trunc + table_noise + floor
            value = bulk + tail
            work = n0 + k + 1
            if work > tol.max_work:
                pval = value.real if z.imag == 0.0 else value
                raise WorkLimitError(
                    f"work {work} exceeds max_work {tol.max_work}",
                    partial=EvalOutcome(pval, err, work, "series"))
            return value, err, work, absum
        n0 *= 2

    raise WorkLimitError("Euler tail failed to converge", partial=None)


def _bulk_dd_alternating(nu: float, t: float, n: np.ndarray):
    """Bulk terms of sum (-1)^n n^-1 exp(-t/n) in double-double precision."""
    if nu != 1.0:
        raise DomainError("dd_terms mode is only wired for nu = 1")
    zeros = np.zeros_like(n)
    th, tl = _dd.dd_div(np.full_like(n, -t), zeros, n, zeros)
    eh, el = _dd.dd_exp(th, tl)
    vh, vl = _dd.dd_div(eh, el, n, zeros)
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    hi = math.fsum(sign * vh)
    lo = math.fsum(sign * vl)
    absum = math.fsum(np.abs(vh))
    return complex(hi + lo, 0.0), absum


def _sum_general(z: complex, nu: float, t: float, tol: ToleranceSpec,
                 weight=None, dd_terms: bool = False):
    """Dispatch to the right summation regime; returns (value, err, work, absum)."""
    if z == 0:
        return 0.0 + 0.0j, 0.0, 0, 0.0
    az = abs(z)
    on_boundary = abs(az - 1.0) <= 4.0 * _EPS
    if on_boundary and abs(z / (1.0 - z)) < 0.8:
        return _sum_boundary_euler(z, nu, t, tol, weight, dd_terms)
    # Interior, or a boundary point too close to z = 1 for the transform:
    # there, best effort until the budget runs out.
    return _sum_interior(z, nu, t, tol, weight)


def _as_outcome(p: SeriesParams, raw, cls=EvalOutcome, **extra) -> EvalOutcome:
    value, err, work, absum = raw
    if p.z.imag == 0.0:
        value = value.real
    return cls(value=value, error_estimate=err, work=work, method="series",
               **extra)


def sum_series(p: SeriesParams, tol: ToleranceSpec | None = None) -> EvalOutcome:
    """Evaluate S(z, nu, t) by direct summation with certified tail control."""
    if not isinstance(p, SeriesParams):
        p = SeriesParams(*p)
    tol = tol or ToleranceSpec()
    z = complex(p.z)
    raw = _sum_general(z, p.nu, p.t, tol, None)
    return _as_outcome(p, raw)


def sum_alternating_s(t: float, tol: ToleranceSpec | None = None,
                      dd_terms: bool = False) -> AlternatingOutcome:
    """S(t) = sum (-1)^n n^-1 exp(-t/n), with a cancellation diagnostic.

    ``dd_terms=True`` computes each bulk term in double-double precision,
    lowering the roundoff floor from eps * sum|terms| to roughly
    eps * (tail mass); useful for t > 100 where the default floor dominates.
    The reported cancellation ratio is unchanged by the flag: it describes
    the conditioning of the sum, not of one particular summation scheme.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"need finite t >= 0, got {t}")
    tol = tol or ToleranceSpec()
    value, err, work, absum = _sum_general(-1.0 + 0.0j, 1.0, t, tol,
                                           dd_terms=dd_terms)
    value = value.real
    cancel = absum / abs(value) if value != 0 else math.inf
    return AlternatingOutcome(value=value, error_estimate=err, work=work,
                              method="series", cancellation=cancel)


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
        if abs(dz) > 1.0 + 4.0 * _EPS:
            raise DomainError("z +- h leaves the closed unit disk; reduce h")
    tol = ToleranceSpec(abs_tol=1e-15, rel_tol=1e-15)
    z, nu, t = complex(p.z), p.nu, p.t

    def sval(zz, nn, weight=None):
        v, _, _, _ = _sum_general(zz, nn, t, tol, weight)
        return v

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

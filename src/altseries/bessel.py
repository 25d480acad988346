"""Bessel J0 evaluation and J0 zeros, self-contained and accuracy-audited.

The Hankel-quadrature route integrates J0 against a smooth weight over many
oscillations, so J0 must be trustworthy to ~1e-12 absolute over a wide range;
``bessel_j0`` is held to 3e-16 against 40-digit mpmath on [0, 200].  Both of
its regimes run in plain doubles with a fixed amount of work per point, so
J0(u) depends on u alone: a point gives the same bits whatever else is in
the call.

* up to the cutoff |u| = 30, a piecewise Chebyshev expansion on the unit
  intervals [k, k+1] of [0, 31], summed by Clenshaw's recurrence.  The
  coefficients in ``_j0_table`` are generated offline from mpmath at 40
  digits by ``tools/gen_j0_table.py``;
* above it, the large-argument Hankel expansion (DLMF 10.17.3) as two
  polynomials P and Q in 1/u^2 with 20 terms between them, summed in one
  stacked Horner pass.
"""

from __future__ import annotations

import math
import threading
from types import SimpleNamespace

import numpy as np

from ._j0_table import J0_CHEB
from .core import DomainError, RangeError

__all__ = [
    "bessel_j0",
    "j0_zeros",
]


# The |u| at which ``bessel_j0`` switches from the Chebyshev table to the
# Hankel expansion.  The expansion's error at its smallest term shrinks like
# e^(-2u) and reaches the rounding level near 16, but there it needs 33
# terms; from 30 on, 20 terms reach 1e-18, and one count serves every u.
SERIES_CUTOFF = 30.0

# kept only for perfbench/tracer.py, which counts the points at or below
# the cutoff
_DEFAULT_CFG = SimpleNamespace(series_cutoff=SERIES_CUTOFF)

# pi/4 as an unevaluated double-double sum hi + lo.
_PI4_HI = 7.853981633974482790e-01
_PI4_LO = 3.061616997868382943e-17

# Column j holds c_j of every unit interval [k, k+1], so one gather per call
# lines up the coefficients of all points for Clenshaw.
_CHEB = np.array(J0_CHEB).T.copy()
_CHEB_LAST = _CHEB.shape[1] - 1


def _j0_chebyshev(u):
    """J0 at 0 <= u <= 31 from the piecewise Chebyshev table, in doubles
    (``bessel_j0`` reads it up to ``SERIES_CUTOFF``, which is in row 30)."""
    k = np.minimum(u.astype(np.intp), _CHEB_LAST)
    # t = 2 (u - k) - 1 on [-1, 1]; 2u - (2k + 1) is exact for k >= 1
    # (Sterbenz) and off by at most half an ulp of 1/2 on [0, 1/4].
    t = 2.0 * u - (2 * k + 1)
    c = _CHEB[:, k]
    t2 = 2.0 * t
    b1 = c[-1]
    b2 = 0.0
    for cj in c[-2:0:-1]:
        b1, b2 = t2 * b1 - b2 + cj, b1
    return t * b1 - b2 + c[0]


# Hankel expansion (DLMF 10.17.3 at nu = 0) with A_k = ((2k-1)!!)^2/(k! 8^k):
# J0(u) ~ sqrt(2/(pi u)) (P cos w + Q sin w / u), w = u - pi/4, where
# P = sum_m (-1)^m A_2m v^m and Q = sum_m (-1)^m A_(2m+1) v^m in v = 1/u^2.
# Two spare coefficients hold the first omitted terms of P and Q.
_MAX_ASYM_TERMS = 40
_HANKEL_A = [1.0]
for _k in range(1, _MAX_ASYM_TERMS + 2):
    _HANKEL_A.append(_HANKEL_A[-1] * (2 * _k - 1) ** 2 / (8.0 * _k))
_P_COEF = [(-1) ** m * a for m, a in enumerate(_HANKEL_A[0::2])]
_Q_COEF = [(-1) ** m * a for m, a in enumerate(_HANKEL_A[1::2])]


def _hankel_term_count(umin: float) -> int:
    """Terms A_0..A_(n-1) to sum for every u >= umin.

    Stops after the first term below 1e-18, or before the first term that
    no longer shrinks (the expansion diverges past its smallest term).
    Each term A_k / u^k only shrinks as u grows, so the count chosen at
    umin is good for every larger u.  It is taken once, at import, at
    umin = ``SERIES_CUTOFF``, where it is 20.
    """
    mag = 1.0
    for n in range(1, _MAX_ASYM_TERMS):
        nxt = _HANKEL_A[n] / umin ** n
        if nxt >= mag:
            return n
        mag = nxt
        if mag <= 1e-18:
            return n + 1
    return _MAX_ASYM_TERMS


def _pq_rows(n: int):
    """Horner coefficients of P and Q for n terms, highest degree first,
    each a (2, 1) column [P; Q].

    P takes (n+1)//2 terms and Q n//2, each followed by half its first
    omitted term: the terms alternate in sign and barely change in size
    near the smallest one, where the remainder is about half the first
    omitted term.  With 20 terms past u = 30 that half is below 1.1e-19,
    so it moves a value by one rounding at most.  The shorter row (odd n)
    is padded with leading zeros, and 0 * v + c is exactly c, so each row
    rounds as its own Horner pass would.
    """
    p = _P_COEF[:(n + 1) // 2] + [0.5 * _P_COEF[(n + 1) // 2]]
    q = _Q_COEF[:n // 2] + [0.5 * _Q_COEF[n // 2]]
    q += [0.0] * (len(p) - len(q))
    return [np.array([[cp], [cq]]) for cp, cq in zip(p[::-1], q[::-1])]


# every |u| > SERIES_CUTOFF is summed with this many terms
_HANKEL_TERMS = _hankel_term_count(SERIES_CUTOFF)
_PQ_ROWS = _pq_rows(_HANKEL_TERMS)


def _pq_horner(v):
    """P and Q at v = 1/u^2, in one Horner pass over [P; Q]."""
    acc = _PQ_ROWS[0]
    for coef in _PQ_ROWS[1:]:
        acc = acc * v + coef
    return acc[0], acc[1]


def _j0_hankel(u):
    """J0 at 1-D u > ``SERIES_CUTOFF`` from the Hankel expansion in 1/u^2,
    with the term count fixed for the cutoff: the same sum at every u."""
    # omega = u - pi/4 carried as a double-double so the phase stays exact:
    # Knuth's two-sum gives wh + we == u - _PI4_HI exactly.
    wh = u - _PI4_HI
    bb = wh - u
    we = (u - (wh - bb)) + (-_PI4_HI - bb)
    wl = we - _PI4_LO
    c = np.cos(wh)
    s = np.sin(wh)
    cosw = c - wl * s
    sinw = s + wl * c

    inv = 1.0 / u
    v = inv * inv
    p, q = _pq_horner(v)
    return np.sqrt(2.0 / (np.pi * u)) * (p * cosw + q * inv * sinw)


def bessel_j0(u):
    """J0(u) for finite real u (vectorized), absolute error <= 3e-16 on [0, 200].

    Even symmetry is applied first.  |u| <= ``SERIES_CUTOFF`` is summed
    from the Chebyshev table, larger |u| from the Hankel expansion; each
    point's value depends on that point alone.  Array input keeps its
    shape; scalar or 0-d input returns a float.
    """
    x = np.asarray(u, dtype=float)
    au = np.abs(x.ravel())
    if not au.size:
        return au.reshape(x.shape)
    hi = float(au.max())  # NaN propagates, so this is the finiteness check
    if not hi < math.inf:
        raise DomainError("bessel_j0 requires finite real u")
    if hi <= SERIES_CUTOFF:
        out = _j0_chebyshev(au)
    else:
        low = au <= SERIES_CUTOFF
        if not low.any():  # most quadrature panels lie past the cutoff
            out = _j0_hankel(au)
        else:
            out = np.empty_like(au)
            out[low] = _j0_chebyshev(au[low])
            out[~low] = _j0_hankel(au[~low])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)



# McMahon's expansion for the k-th positive zero of J0 (A&S 9.5.12).
def _mcmahon_j0_zero(k: np.ndarray) -> np.ndarray:
    beta = (k - 0.25) * np.pi
    m = 8.0 * beta
    return beta + 1.0 / m - 124.0 / (3.0 * m ** 3) + 120928.0 / (15.0 * m ** 5)


# the most zeros j0_zeros serves
MAX_ZEROS = 10_000
_zero_cache: list[float] = []
# serializes fills, so two threads cannot both append the same zeros
_zero_lock = threading.Lock()


def j0_zeros(k_max: int) -> list[float]:
    """First ``k_max`` positive zeros of J0, each to ~1e-12 absolute.

    McMahon seeds bracket each zero (they are good to ~1e-3 already and the
    zeros are ~pi apart), then a vectorized bisection on :func:`bessel_j0`
    tightens every bracket to ~1e-15 relative.  Results are cached; a fill
    runs under a lock, a call the cache already covers takes none.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise DomainError("k_max must be a positive integer")
    if k_max > MAX_ZEROS:
        raise DomainError(f"k_max capped at {MAX_ZEROS}")
    if len(_zero_cache) < k_max:
        with _zero_lock:
            if len(_zero_cache) < k_max:  # not filled while this thread waited
                _fill_zeros(k_max)
    return _zero_cache[:k_max]


def _fill_zeros(k_max: int) -> None:
    """Extend ``_zero_cache`` to the first ``k_max`` zeros.

    The caller holds ``_zero_lock``.
    """
    ks = np.arange(len(_zero_cache) + 1, k_max + 1, dtype=float)
    guess = _mcmahon_j0_zero(ks)
    lo = guess - 0.6
    hi = guess + 0.6
    flo = bessel_j0(lo)
    if np.any(flo * bessel_j0(hi) >= 0):
        raise RangeError("failed to bracket a J0 zero from the McMahon seed")

    for _ in range(52):
        mid = 0.5 * (lo + hi)
        fmid = bessel_j0(mid)
        left = flo * fmid <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fmid)

    roots = 0.5 * (lo + hi)
    # one list.extend call, so a reader never sees half of a fill
    _zero_cache.extend(roots.tolist())

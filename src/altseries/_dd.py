"""Double-double ("dd") arithmetic on numpy arrays.

A dd number is an unevaluated pair (hi, lo) with |lo| <= ulp(hi)/2, giving
roughly 32 significant decimal digits.  Only the handful of operations needed
elsewhere in this package are provided; everything is vectorized so whole
quadrature panels can be processed at once.

Algorithms follow Dekker (1971) and the QD library of Hida, Li and Bailey
(LBNL-46996): two_sum / two_prod error-free transformations, renormalization
via quick_two_sum, and exp by argument reduction with a dd-accurate ln 2.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant for binary64

# ln 2 to double-double precision.
_LN2_HI = 6.931471805599452862e-01
_LN2_LO = 2.319046813846299558e-17
# pi/4 to double-double precision.
PI4_HI = 7.853981633974482790e-01
PI4_LO = 3.061616997868382943e-17


def two_sum(a, b):
    """Error-free sum: returns (s, e) with s + e == a + b exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    """Error-free sum assuming |a| >= |b|."""
    s = a + b
    e = b - (s - a)
    return s, e


def two_prod(a, b):
    """Error-free product: returns (p, e) with p + e == a * b exactly."""
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def dd_add(xh, xl, yh, yl):
    s1, s2 = two_sum(xh, yh)
    t1, t2 = two_sum(xl, yl)
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def dd_add_d(xh, xl, d):
    s1, s2 = two_sum(xh, d)
    s2 = s2 + xl
    return quick_two_sum(s1, s2)


def dd_mul(xh, xl, yh, yl):
    p1, p2 = two_prod(xh, yh)
    p2 = p2 + xh * yl + xl * yh
    return quick_two_sum(p1, p2)


def dd_mul_d(xh, xl, d):
    p1, p2 = two_prod(xh, d)
    p2 = p2 + xl * d
    return quick_two_sum(p1, p2)


def dd_div_d(xh, xl, d):
    q1 = xh / d
    p1, p2 = two_prod(q1, d)
    s, e = two_sum(xh, -p1)
    e = e + xl - p2
    q2 = (s + e) / d
    return quick_two_sum(q1, q2)


def dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    th, tl = dd_mul_d(yh, yl, q1)
    rh, rl = dd_add(xh, xl, -th, -tl)
    q2 = rh / yh
    th, tl = dd_mul_d(yh, yl, q2)
    rh, rl = dd_add(rh, rl, -th, -tl)
    q3 = rh / yh
    s, e = quick_two_sum(q1, q2)
    return dd_add_d(s, e, q3)


def dd_exp(xh, xl):
    """exp of a dd argument, vectorized.  Accurate to ~1 ulp of the dd result.

    Reduction: x = k*ln2 + r with |r| <= ln2/2, then exp(r) via a Taylor
    series at r/8 followed by three squarings, and a final 2**k scaling.
    """
    xh = np.asarray(xh, dtype=float)
    xl = np.asarray(xl, dtype=float)
    k = np.rint(xh / _LN2_HI)
    th, tl = two_prod(k, _LN2_HI)
    tl = tl + k * _LN2_LO
    rh, rl = dd_add(xh, xl, -th, -tl)
    rh, rl = dd_mul_d(rh, rl, 0.125)

    # Taylor sum of exp(r/8); |r/8| <= ln2/16 so 18 terms reach ~1e-35.
    sh = np.ones_like(rh)
    sl = np.zeros_like(rh)
    termh = np.copy(rh)
    terml = np.copy(rl)
    sh, sl = dd_add(sh, sl, termh, terml)
    for j in range(2, 19):
        termh, terml = dd_mul(termh, terml, rh, rl)
        termh, terml = dd_div_d(termh, terml, float(j))
        sh, sl = dd_add(sh, sl, termh, terml)

    for _ in range(3):
        sh, sl = dd_mul(sh, sl, sh, sl)

    ki = k.astype(np.int64)
    return np.ldexp(sh, ki), np.ldexp(sl, ki)


def dd_log_d(x):
    """log of a positive double, returned as dd.  One Newton step on dd_exp.

    With y0 = log(x) accurate to ~1 ulp, the correction r = x*exp(-y0) - 1
    recovers the residual, and y0 + r - r^2/2 is accurate to dd roundoff.
    """
    x = np.asarray(x, dtype=float)
    y0 = np.log(x)
    eh, el = dd_exp(-y0, np.zeros_like(y0))
    rh, rl = dd_add_d(*dd_mul(eh, el, x, np.zeros_like(x)), -1.0)
    ch, cl = dd_add(rh, rl, -0.5 * rh * rh, np.zeros_like(rh))
    return dd_add_d(ch, cl, y0)

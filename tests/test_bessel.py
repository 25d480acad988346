"""Bessel J0 building blocks.

scipy.special is used as a second, fully independent reference next to the
frozen mpmath constants; J0 is also audited point by point against mpmath
at 40 digits, and its Chebyshev table against the double-double series and
the generator that wrote it.
"""

import importlib.util
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sps

from altseries import _j0_table, bessel
from altseries.bessel import bessel_j0, j0_zeros
from altseries.core import DomainError

import oracle_values as ov


# Double-double ("dd") arithmetic on numpy arrays, for the reference J0
# series: a dd number is an unevaluated pair (hi, lo) with |lo| <= ulp(hi)/2,
# about 32 significant digits.  Dekker (1971) and the QD library of Hida, Li
# and Bailey (LBNL-46996): error-free two_sum / two_prod, renormalised by
# quick_two_sum.

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant for binary64


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


def _j0_series_dd(u):
    """Power series for J0 at |u| <= 31, double-double throughout."""
    u = np.asarray(u, dtype=float)
    qh, ql = two_prod(u, u)
    qh, ql = dd_mul_d(qh, ql, 0.25)  # u^2/4
    sh = np.ones_like(u)
    sl = np.zeros_like(u)
    th = np.ones_like(u)
    tl = np.zeros_like(u)
    for k in range(1, 81):
        th, tl = dd_mul(th, tl, qh, ql)
        th, tl = dd_div_d(th, tl, float(k * k))
        if k % 2:
            sh, sl = dd_add(sh, sl, -th, -tl)
        else:
            sh, sl = dd_add(sh, sl, th, tl)
        if np.all(np.abs(th) <= 1e-30 * np.maximum(np.abs(sh), 1e-3)):
            break
    return sh + sl


@pytest.mark.parametrize("u,expected", sorted(ov.J0.items()))
def test_j0_frozen_values(u, expected):
    assert abs(bessel_j0(u) - expected) <= 1e-12


def test_j0_against_scipy_dense():
    u = np.linspace(0.0, 200.0, 4001)
    mine = bessel_j0(u)
    ref = sps.j0(u)
    assert np.max(np.abs(mine - ref)) <= 1e-12


J0_AUDIT_BOUND = 3e-16


@pytest.mark.parametrize("side", ["table", "hankel"])
def test_j0_against_mpmath_dense(side):
    """Absolute error against 40-digit mpmath, below and above the cutoff.

    Each grid is evaluated in one call and again in 24-point chunks, the
    size of one quadrature panel; the two must agree bit for bit, since a
    point's value may not depend on the other points in its call.
    """
    mp = pytest.importorskip("mpmath")
    cut = bessel.SERIES_CUTOFF
    if side == "table":
        u = np.linspace(0.0, cut, 1601)
    else:
        u = np.linspace(np.nextafter(cut, np.inf), 200.0, 4601)
    whole = bessel_j0(u)
    chunked = np.concatenate([bessel_j0(u[i:i + 24])
                              for i in range(0, len(u), 24)])
    assert np.array_equal(whole, chunked), side
    with mp.workdps(40):
        ref = [mp.besselj(0, mp.mpf(x)) for x in u]
        for vals in (whole, chunked):
            err = max(abs(mp.mpf(v) - r) for v, r in zip(vals, ref))
            assert err <= J0_AUDIT_BOUND, (side, float(err))


def test_j0_table_against_dd_series():
    """The whole table, [0, 31], against the double-double power series."""
    u = np.linspace(0.0, 31.0, 3101)
    mine = bessel._j0_chebyshev(u)
    assert np.max(np.abs(mine - _j0_series_dd(u))) <= J0_AUDIT_BOUND


def test_j0_table_covers_the_cutoff():
    """One unit interval per integer up to the cutoff, the cutoff's own
    included: u = 30 reads row 30 at t = -1."""
    assert len(_j0_table.J0_CHEB) == int(bessel.SERIES_CUTOFF) + 1 == 31


def test_j0_table_regenerates_bit_for_bit():
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parent.parent / "tools" / "gen_j0_table.py"
    spec = importlib.util.spec_from_file_location("gen_j0_table", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    table = gen.chebyshev_table()
    assert table == _j0_table.J0_CHEB
    assert gen.render(table) == Path(_j0_table.__file__).read_text()


def test_j0_bounded_by_one():
    u = np.linspace(0.0, 300.0, 6001)
    assert np.all(np.abs(bessel_j0(u)) <= 1.0 + 1e-15)


def test_j0_even_and_vectorized():
    u = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    vals = bessel_j0(u)
    assert vals.shape == u.shape
    assert vals[0] == vals[4] and vals[1] == vals[3]
    assert isinstance(bessel_j0(2.0), float)


def test_j0_series_asymptotic_overlap():
    """The Hankel expansion agrees with the series on a band around the
    switch point, below it too."""
    cut = bessel.SERIES_CUTOFF
    for u in np.linspace(cut - 2.0, cut + 2.0, 81):
        s = float(_j0_series_dd(u))
        a = float(bessel._j0_hankel(np.array([u]))[0])
        assert abs(s - a) <= 1e-12, u


def test_j0_switch_point_continuity():
    cut = bessel.SERIES_CUTOFF
    below = bessel_j0(cut * (1.0 - 2e-16))
    above = bessel_j0(cut * (1.0 + 2e-16))
    assert abs(below - above) <= 1e-13


def test_j0_rejects_nan():
    with pytest.raises(DomainError):
        bessel_j0(math.nan)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, np.array([1.0, math.inf]),
                                 np.array([1.0, -math.inf, 50.0]),
                                 np.array([1.0, math.inf, 2.0])])
def test_j0_rejects_infinite(bad):
    with pytest.raises(DomainError):
        bessel_j0(bad)


@pytest.mark.parametrize("bad", [
    np.array([1.0, math.nan, 50.0]),    # between a table and a Hankel point
    np.array([50.0, math.nan, 1.0]),
    np.array([40.0, math.nan, 50.0]),   # among Hankel points only
])
def test_j0_rejects_nan_inside_an_array(bad):
    with pytest.raises(DomainError):
        bessel_j0(bad)


def test_j0_empty_input_gives_empty_array():
    for empty in ([], np.array([]), np.empty((0, 3))):
        out = bessel_j0(empty)
        assert isinstance(out, np.ndarray)
        assert out.shape == np.shape(empty) and out.dtype == float


_GRID = np.linspace(-1.0, 1.0, 12).reshape(3, 4)


@pytest.mark.parametrize("u", [3.0 * _GRID,                         # table
                               np.sign(_GRID) * (np.abs(_GRID) + 31.0),  # Hankel
                               200.0 * _GRID],                      # both
                         ids=["table", "hankel", "mixed"])
def test_j0_2d_input_keeps_shape(u):
    out = bessel_j0(u)
    assert out.shape == (3, 4)
    assert np.array_equal(out, bessel_j0(u.ravel()).reshape(3, 4))


@pytest.mark.parametrize("u", [2.0, 20.0, 3, np.float64(2.5),
                               np.array(2.5), np.array(-40.0)])
def test_j0_scalar_and_0d_input_give_float(u):
    out = bessel_j0(u)
    assert type(out) is float
    assert out == float(bessel_j0(np.array([float(u)]))[0])


def _horner(coefs, v):
    """sum_j coefs[j] v^j by its own Horner pass: the reference the stacked
    P/Q pass in ``bessel`` is held to."""
    acc = coefs[-1]
    for c in reversed(coefs[:-1]):
        acc = acc * v + c
    return acc


def test_stacked_pq_horner_matches_separate_passes_bit_for_bit():
    """The one pass every |u| > SERIES_CUTOFF takes: 10 terms of P and 10
    of Q in 10 plain Horner rows.  Twenty terms suffice: at the cutoff the
    terms A_k / u^k shrink through k = 20, and the first omitted one,
    A_20 / 30^20 (1.05e-19), is below 1e-18."""
    a = bessel._HANKEL_A
    assert len(a) == 20
    a_20 = a[-1] * 39 ** 2 / (8.0 * 20)
    cut = bessel.SERIES_CUTOFF
    terms = [x / cut ** k for k, x in enumerate([*a, a_20])]
    assert all(x > y for x, y in zip(terms, terms[1:]))
    assert terms[20] < 1e-18
    assert len(bessel._PQ_ROWS) == 10
    p_coef = [(-1) ** m * x for m, x in enumerate(a[0::2])]
    q_coef = [(-1) ** m * x for m, x in enumerate(a[1::2])]
    u = np.concatenate([np.linspace(cut, 40.0, 2001),
                        np.geomspace(40.0, 1e4, 2001)])
    inv = 1.0 / u
    v = inv * inv
    p, q = bessel._pq_horner(v)
    assert np.array_equal(p, _horner(p_coef, v))
    assert np.array_equal(q, _horner(q_coef, v))


def test_j0_depends_on_u_alone():
    """Above the cutoff too, one call and one call per point give the same
    bits: no term count or other choice depends on the rest of the call."""
    u = np.random.default_rng(20261019).uniform(16.01, 40.0, 20_000)
    whole = bessel_j0(u)
    one_by_one = np.array([bessel_j0(x) for x in u.tolist()])
    assert np.array_equal(whole, one_by_one)


def test_j0_zeros_frozen():
    zs = j0_zeros(7)
    np.testing.assert_allclose(zs, ov.J0_ZEROS, rtol=0, atol=1e-12)


def test_j0_zeros_increasing_and_small_residual():
    zs = j0_zeros(200)
    assert all(b > a for a, b in zip(zs, zs[1:]))
    resid = np.abs(bessel_j0(np.array(zs)))
    assert np.max(resid) <= 1e-10


def test_j0_zeros_against_scipy():
    zs = np.array(j0_zeros(50))
    np.testing.assert_allclose(zs, sps.jn_zeros(0, 50), rtol=0, atol=5e-12)


def test_j0_zeros_concurrent_fill(monkeypatch):
    # four threads fill a cleared cache at once; each must get the
    # single-threaded list, and the cache must hold no zero twice
    k_max = 3000
    reference = j0_zeros(k_max)
    monkeypatch.setattr(bessel, "_zero_cache", [])
    gate = threading.Barrier(4)
    got = []

    def fill():
        gate.wait(timeout=10)
        got.append(j0_zeros(k_max))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(th.is_alive() for th in threads)
    assert len(got) == 4
    assert all(zs == reference for zs in got)
    assert bessel._zero_cache == reference
    assert j0_zeros(k_max + 5)[:k_max] == reference


@pytest.mark.parametrize("bad", [0, -1, 2.5, 10_001])
def test_j0_zeros_rejects_bad_count(bad):
    with pytest.raises(DomainError):
        j0_zeros(bad)

"""Bessel-transform quadrature route for S*(lambda)."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altseries import bessel, hankel
from altseries.bessel import bessel_j0, j0_zeros
from altseries.core import (WINDOWS, DomainError, RangeError, ToleranceSpec,
                            WorkLimitError)
from altseries.fourier2d import _x_table
from altseries.hankel import (
    MAX_PANELS,
    TRUNCATION_X,
    hankel_s_star,
    oscillatory_edges,
    panel_quadrature,
)
from altseries.hankel import _s_star_panels, _s_star_weight
from altseries.harness import evaluate

import oracle_values as ov

LN2 = math.log(2.0)


def _leggauss_pair(order):
    """(nodes, ws, wh) of ``hankel._GL_PAIRS`` built from numpy's rules."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    xh, wh = np.polynomial.legendre.leggauss(order // 2 + 1)
    return np.concatenate([xs, xh]), ws, wh


class _AnyOrderPairs(dict):
    def __missing__(self, order):
        return _leggauss_pair(order)


@pytest.fixture
def any_order(monkeypatch):
    """panel_quadrature tabulates only orders 24 and 16; tests of its
    arithmetic at other orders run on numpy's rules for those."""
    monkeypatch.setattr(hankel, "_GL_PAIRS", _AnyOrderPairs(hankel._GL_PAIRS))


@pytest.mark.parametrize("order", [9, 13, 16, 24])
def test_tabulated_rules_are_numpys_bit_for_bit(order):
    for got, ref in zip(hankel._GL_RULES[order],
                        np.polynomial.legendre.leggauss(order)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("order", [16, 24])
def test_tabulated_pairs_are_numpys_bit_for_bit(order):
    for got, ref in zip(hankel._GL_PAIRS[order], _leggauss_pair(order)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.usefixtures("any_order")
class TestPanelQuadrature:
    def test_polynomial_exact(self):
        value, refine, absint, sums, work = panel_quadrature(
            lambda x: x * x, [0.0, 0.5, 1.0], order=8)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert absint == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert len(sums) == 2 and work > 0

    def test_sine_with_estimate(self):
        value, refine, absint, _, _ = panel_quadrature(
            np.sin, [0.0, 1.0, 2.0, math.pi], order=16)
        assert abs(value - 2.0) <= refine + 1e-14
        assert isinstance(value, float)

    def test_complex_integrand(self):
        value, refine, absint, _, _ = panel_quadrature(
            lambda x: np.exp(1j * x), [0.0, 0.5, 1.0], order=12)
        expected = complex(math.sin(1.0), 1.0 - math.cos(1.0))
        assert abs(value - expected) <= 1e-14
        assert isinstance(value, complex)
        # |e^(ix)| = 1, so the absolute integral is the length
        assert absint == pytest.approx(1.0, rel=1e-13)


def _two_call_reference(f, edges, order):
    """Composite Gauss-Legendre with ``f`` called twice per panel, once per
    rule: the loop the single-call ``panel_quadrature`` is held to."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    xh, wh = np.polynomial.legendre.leggauss(order // 2 + 1)
    sums, halves, abs_parts = [], [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        hw = 0.5 * (b - a)
        fx = np.asarray(f(mid + hw * xs))
        fxh = np.asarray(f(mid + hw * xh))
        sums.append(hw * np.sum(ws * fx, axis=-1))
        halves.append(hw * np.sum(wh * fxh, axis=-1))
        abs_parts.append(hw * np.sum(ws * np.abs(fx), axis=-1))
    sums = np.ascontiguousarray(np.array(sums).T)
    halves = np.ascontiguousarray(np.array(halves).T)
    refine = np.sum(np.abs(sums - halves), axis=-1)
    rows = np.atleast_2d(sums)
    value = [math.fsum(r) for r in rows.real.tolist()]
    if np.iscomplexobj(sums):
        value = [complex(re, math.fsum(im))
                 for re, im in zip(value, rows.imag.tolist())]
    # the |f| mass is one pairwise sum per row along the panel axis
    abs_int = np.sum(np.ascontiguousarray(np.array(abs_parts).T), axis=-1)
    work = (len(xs) + len(xh)) * sums.size
    if sums.ndim == 1:
        return value[0], float(refine), float(abs_int), sums, work
    return np.array(value), refine, abs_int, sums, work


def _assert_same_quadrature(got, ref):
    value, refine, abs_int, sums, work = got
    r_value, r_refine, r_abs_int, r_sums, r_work = ref
    assert type(value) is type(r_value)
    assert type(refine) is type(r_refine)
    assert type(abs_int) is type(r_abs_int)
    assert np.array_equal(value, r_value)
    assert np.array_equal(refine, r_refine)
    assert np.array_equal(abs_int, r_abs_int)
    assert sums.dtype == r_sums.dtype and sums.shape == r_sums.shape
    assert np.array_equal(sums, r_sums)
    assert type(work) is type(r_work) and work == r_work


def _s_star_integrand(lam):
    return lambda x: -bessel_j0(lam * x) * np.exp(-x * x)


_FUSED_CASES = {
    # J0 straddles its regime switch inside panels, so the call's term
    # count comes from both rules' nodes
    "real_j0": (_s_star_integrand(7.3), [0.0, 0.3, 1.1, 2.0, 2.2, 3.5, 8.0]),
    "real_j0_hankel": (_s_star_integrand(41.0),
                       list(np.linspace(0.4, 6.0, 23))),
    "complex": (lambda x: np.exp(3j * x) / (1.0 + x * x),
                [-2.0, -0.5, 0.0, 1.0, 4.0]),
    "stacked": (lambda x: np.cos(2.5 * x)
                * np.exp(-(x * x + np.array([[0.0], [0.7], [3.1]]))),
                [0.0, 0.6, 1.3, 2.1, 6.0]),
    "stacked_complex": (lambda x: np.exp(1j * np.array([[1.0], [5.0]]) * x)
                        * bessel_j0(9.0 * x), [0.0, 1.0, 1.7, 3.0]),
}


@pytest.mark.usefixtures("any_order")
@pytest.mark.parametrize("order", [8, 12, 16, 24])
@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
def test_single_call_matches_two_call_reference_bit_for_bit(case, order):
    f, edges = _FUSED_CASES[case]
    _assert_same_quadrature(panel_quadrature(f, edges, order),
                            _two_call_reference(f, edges, order))


# Integrands that are pointwise in x, so the reference's split calls see
# exactly the values of the single call; ``k`` scales their oscillation.
_PROPERTY_INTEGRANDS = {
    "real": lambda k: lambda x: np.cos(k * x) * np.exp(-0.25 * x * x),
    "complex": lambda k: lambda x: np.exp(1j * k * x) / (1.0 + x * x),
    "stacked_real": lambda k: lambda x: (
        np.sin(k * x + np.array([[0.0], [0.4], [2.9]]))
        * np.exp(-np.array([[0.0], [0.5], [1.0]]) * x * x)),
    "stacked_complex": lambda k: lambda x: (
        np.exp(1j * np.array([[1.0], [-k], [k + 2.0]]) * x)
        / (2.0 + np.cos(x))),
}


@pytest.mark.usefixtures("any_order")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(start=st.floats(-6.0, 6.0),
       widths=st.lists(st.floats(1e-3, 3.0), max_size=12),
       order=st.sampled_from([8, 9, 16, 24, 31]),
       kind=st.sampled_from(sorted(_PROPERTY_INTEGRANDS)),
       k=st.floats(0.0, 40.0))
def test_matches_two_call_reference_on_random_edges(start, widths, order,
                                                     kind, k):
    edges = [start]
    for w in widths:
        edges.append(edges[-1] + w)
    f = _PROPERTY_INTEGRANDS[kind](k)
    _assert_same_quadrature(panel_quadrature(f, edges, order),
                            _two_call_reference(f, edges, order))


@pytest.mark.parametrize("kind", sorted(_PROPERTY_INTEGRANDS))
def test_zero_panels_return_zeros_without_calling_f(kind):
    calls = []

    def f(x):
        calls.append(x)
        return _PROPERTY_INTEGRANDS[kind](3.0)(x)

    for edges in ([2.5], np.array([2.5])):
        got = panel_quadrature(f, edges, 24)
        _assert_same_quadrature(got, (0.0, 0.0, 0.0, np.array([]), 0))
        _assert_same_quadrature(got, _two_call_reference(f, edges, 24))
    assert calls == []


@pytest.mark.usefixtures("any_order")
@pytest.mark.parametrize("order", [8, 9, 16, 24, 31])
@pytest.mark.parametrize("kind", sorted(_PROPERTY_INTEGRANDS))
def test_one_panel_matches_two_call_reference(kind, order):
    f = _PROPERTY_INTEGRANDS[kind](3.0)
    edges = [-0.75, 1.25]
    _assert_same_quadrature(panel_quadrature(f, edges, order),
                            _two_call_reference(f, edges, order))


@pytest.mark.usefixtures("any_order")
@pytest.mark.parametrize("order", [8, 13, 16, 24])
def test_one_integrand_call_per_panel(order):
    seen = []

    def f(x):
        seen.append(len(x))
        return np.cos(x)

    edges = [0.0, 0.5, 1.5, 2.0, 3.25]
    *_, work = panel_quadrature(f, edges, order)
    assert seen == [order + order // 2 + 1] * (len(edges) - 1)
    assert work == sum(seen)


class TestOscillatoryEdges:
    def test_contains_zeros_and_bounds(self):
        edges = oscillatory_edges(j0_zeros, 2.0, 4.0)
        assert edges[0] == 0.0 and edges[-1] == 4.0
        below = [z / 2.0 for z in j0_zeros(3) if z / 2.0 < 4.0]
        assert len(below) == 2
        for z in below:
            assert z in edges
        assert all(b > a for a, b in zip(edges, edges[1:]))

    def test_gap_subdivision(self):
        # scale 0: no zeros are asked for, only the base grid is laid
        edges = oscillatory_edges(None, 0.0, 5.0, base_step=0.9)
        gaps = np.diff(edges)
        assert np.max(gaps) <= 0.9 + 1e-12

    def test_zeros_beyond_upper_ignored(self):
        edges = oscillatory_edges(lambda n: [0.5 + 5.5 * k for k in range(n)],
                                  1.0, 1.0)
        assert edges[-1] == 1.0
        assert 0.5 in edges
        assert all(e <= 1.0 for e in edges)

    @pytest.mark.parametrize("scale", [-1.0, -math.inf, math.nan])
    def test_rejects_negative_or_nan_scale(self, scale):
        with pytest.raises(DomainError):
            oscillatory_edges(j0_zeros, scale, 1.0)


def _largest_accepted(layout, lo, hi):
    """The largest double in [lo, hi) whose ``layout`` is accepted, by
    bisection over the doubles, given that lo is accepted and hi refused."""
    while math.nextafter(lo, hi) < hi:
        mid = max(0.5 * (lo + hi), math.nextafter(lo, hi))
        try:
            layout(mid)
        except WorkLimitError:
            hi = mid
        else:
            lo = mid
    return lo


@pytest.mark.parametrize("kernel", ["j0", "cos"])
def test_largest_accepted_scale_spends_max_panels_exactly(kernel):
    # the J0 layout of the hankel route and the cosine layout of fourier2d's
    # x table: the last accepted scale uses the whole budget, and the next
    # double up is refused
    if kernel == "j0":
        def layout(lam):
            return len(_s_star_panels(lam)[0]) - 1
    else:
        def layout(lam):
            return _x_table(lam)[2].size
    lam = _largest_accepted(layout, 200.0, 400.0)
    assert layout(lam) == MAX_PANELS
    with pytest.raises(WorkLimitError):
        layout(math.nextafter(lam, math.inf))


def test_refusal_forms_no_bessel_zero(monkeypatch):
    # lambda = 3000 would need about 7,640 zeros: refused by the route's
    # window and, called directly, by the layout, before one is filled
    monkeypatch.setattr(bessel, "_zero_cache", [])
    with pytest.raises(RangeError):
        hankel_s_star(3000.0)
    with pytest.raises(WorkLimitError):
        oscillatory_edges(bessel.j0_zeros, 3000.0, TRUNCATION_X)
    assert bessel._zero_cache == []


def test_window_stops_short_of_the_panel_budget():
    # the largest scale the layout admits puts MAX_PANELS - 1 zeros below
    # TRUNCATION_X; the route's edge answers within it
    hi = WINDOWS["hankel"].hi
    assert hi <= (MAX_PANELS - 1) * math.pi / TRUNCATION_X
    assert len(_s_star_panels(hi)[0]) - 1 <= MAX_PANELS


def test_route_looks_j0_zeros_up_in_bessel(monkeypatch):
    # a tracer wraps bessel.j0_zeros; the route must call that binding
    calls = []
    original = bessel.j0_zeros

    def spy(k_max):
        calls.append(k_max)
        return original(k_max)

    monkeypatch.setattr(bessel, "j0_zeros", spy)
    hankel_s_star(10.0)
    assert len(calls) == 1


def test_s_star_at_zero_is_minus_ln2():
    out = hankel_s_star(0.0)
    assert abs(out.value + LN2) <= 1e-14
    assert out.method == "hankel"


@pytest.mark.parametrize("lam,expected", sorted(ov.S_STAR.items()))
def test_s_star_frozen_values(lam, expected):
    out = hankel_s_star(lam)
    assert abs(out.value - expected) <= 2e-15
    assert abs(out.value - expected) <= out.error_estimate


def test_error_floor_never_below_j0_model():
    # integral of the positive weight is ln 2 exactly, and each J0 call
    # carries the model error, so the estimate can never drop below that
    for lam in (0.0, 5.0, 20.0, 26.0):
        out = hankel_s_star(lam)
        assert out.error_estimate >= 1e-15 * LN2


def test_precision_wall_is_reported_honestly():
    # true magnitude at lambda = 40 is ~1e-22, far below the floor
    out = hankel_s_star(40.0)
    assert out.error_estimate >= abs(out.value)


def test_relative_tolerance_unreachable_past_wall():
    # the route takes no tolerance; evaluate judges its result
    with pytest.raises(WorkLimitError) as exc:
        evaluate("hankel", 40.0, ToleranceSpec(abs_tol=0.0, rel_tol=1e-3))
    partial = exc.value.partial
    assert partial == hankel_s_star(40.0)
    assert partial.error_estimate >= abs(partial.value)


def test_panel_sums_alternate_in_sign():
    """Between consecutive scaled Bessel zeros the integrand keeps one sign
    and flips at each zero."""
    edges, (value, _, _, sums, _) = _s_star_panels(10.0)
    sums = np.real(sums)
    live = sums[np.abs(sums) > 1e-20]
    signs = np.sign(live)
    assert np.all(signs[1:] * signs[:-1] == -1.0)


@pytest.mark.usefixtures("any_order")
@pytest.mark.parametrize("lam", [1.0, 5.0, 10.0, 20.0])
def test_order_doubling_within_estimate(lam):
    base = hankel_s_star(lam)
    edges, _ = _s_star_panels(lam)
    fine, *_ = panel_quadrature(
        lambda x: -bessel_j0(lam * x) * _s_star_weight(x), edges, 48)
    assert abs(base.value - fine) <= base.error_estimate


def test_truncation_extension_within_estimate():
    """The integral past TRUNCATION_X, out to 10, stays inside the
    truncation term e^(-TRUNCATION_X^2) that the estimate carries."""
    lam = 3.0
    tail, *_ = panel_quadrature(
        lambda x: -bessel_j0(lam * x) * _s_star_weight(x),
        np.linspace(TRUNCATION_X, 10.0, 9), 24)
    assert 0.0 < abs(tail) <= math.exp(-TRUNCATION_X ** 2)


@pytest.mark.parametrize("lam", [math.inf, -math.inf])
def test_s_star_rejects_infinite_lambda(lam):
    with pytest.raises(DomainError):
        hankel_s_star(lam)


def test_s_star_domain_and_budget():
    for lam in (-1.0, math.nan):
        with pytest.raises(DomainError,
                           match=f"need finite lambda >= 0, got {lam}"):
            hankel_s_star(lam)
    # past the window the route refuses; the layout keeps its own budget
    with pytest.raises(RangeError, match="above the hankel route's window"):
        hankel_s_star(300.0)
    with pytest.raises(WorkLimitError, match="lambda = 300 puts about "
                       "764 kernel zeros below 8; max_panels = 600"):
        oscillatory_edges(j0_zeros, 300.0, TRUNCATION_X)
    with pytest.raises(WorkLimitError, match="1.27e\\+04 kernel zeros"):
        oscillatory_edges(j0_zeros, 5000.0, TRUNCATION_X)


@pytest.mark.parametrize("lam", [1e300, 1e308, sys.float_info.max])
def test_s_star_refuses_huge_lambda(lam):
    # the route refuses by its window; the layout, called directly, sees
    # lambda * TRUNCATION_X / pi = 2.5e300 or inf: refused before
    # math.ceil, and written in three digits
    with pytest.raises(RangeError):
        hankel_s_star(lam)
    with pytest.raises(WorkLimitError) as info:
        oscillatory_edges(j0_zeros, lam, TRUNCATION_X)
    assert "kernel zeros below 8; max_panels = 600" in str(info.value)
    assert str(info.value).startswith("lambda = ")
    assert len(str(info.value)) < 100


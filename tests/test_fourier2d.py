"""Two-dimensional Fourier route and its radially symmetric helpers."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altseries.core import DomainError, RangeError, ToleranceSpec, WorkLimitError
from altseries.fourier2d import (
    fourier2d_s_star,
    gaussian_term_identity,
    radial_transform,
)
from altseries.fourier2d import (_EPS, _cos_edges, _fermi, _inner_t_impl,
                                 _x_table)
from altseries import fourier2d
from altseries.harness import cross_validate, evaluate
from altseries.hankel import (MAX_PANELS, _gl_rule, hankel_s_star,
                              panel_quadrature)

import oracle_values as ov


# the accuracy one inner transform is held to
_INNER_TOL = 1e-11


def inner_t(y: float, lam: float, tol: ToleranceSpec | None = None) -> float:
    """T(y, lambda): the x-integral of e^(i lam x)/(1+e^(x^2+y^2)).

    Real by symmetry, computed as twice the half-line cosine transform.
    """
    tol = tol or ToleranceSpec(abs_tol=_INNER_TOL, rel_tol=0.0)
    y, lam = float(y), float(lam)
    values, errs, _ = _inner_t_impl(np.array([y * y]), _x_table(lam))
    value, err = float(values[0]), float(errs[0])
    if not tol.met_by(err, abs(value)):
        raise WorkLimitError(
            f"inner transform error {err:.3e} misses the tolerance")
    return value


def _set_truncations(monkeypatch, cfg):
    """Apply a test case's overrides of fourier2d's box half-widths."""
    for name, value in (cfg or {}).items():
        monkeypatch.setattr(fourier2d, name, value)


def _inner_t_unreduced(y: float, lam: float) -> complex:
    """T(y, lambda) over the full line without the cosine reduction.

    Exists so the imaginary-part-vanishing property can be tested against
    an implementation that had a chance to get it wrong.
    """
    upper = fourier2d._X_TRUNCATION
    y2 = y * y
    pos = _cos_edges(abs(lam), upper)
    edges = [-e for e in reversed(pos)] + pos[1:]

    def f(x):
        return np.exp(1j * lam * x) * _fermi(x * x + y2)

    value, _, _, _, _ = panel_quadrature(f, edges, 24)
    return complex(value)


def _fourier2d_per_y(lam: float, half_line: bool = False):
    """(value, error_estimate, work) of S*(lambda) with one 1-D inner
    transform per y node: the outer rule over the full line -Y <= y <= Y,
    or, with ``half_line``, twice the rule over 0 <= y <= Y as the route
    forms it.

    Exists so the route can be held to the full-line loop, and its stacked
    inner quadrature to the half-line loop bit for bit.
    """
    upper = fourier2d._X_TRUNCATION
    x_edges = _cos_edges(abs(lam), upper)
    work = 0
    inner_err = 0.0

    def inner(y):
        y2 = y * y

        def f(x):
            return np.cos(lam * x) * _fermi(x * x + y2)

        half, refine, abs_int, _, w = panel_quadrature(f, x_edges, 24)
        trunc = math.sqrt(math.pi) * math.exp(-upper * upper - y2)
        err = 2.0 * (refine + 4.0 * _EPS * abs_int) + trunc
        return 2.0 * float(half), err, w

    def t_profile(ys):
        nonlocal work, inner_err
        out = np.empty_like(ys)
        for i, y in enumerate(ys):
            out[i], e, w = inner(float(y))
            work += w
            inner_err = max(inner_err, e)
        return out

    y_up = fourier2d._Y_TRUNCATION
    first = 0 if half_line else -12
    edges = [y_up * (k / 12.0) for k in range(first, 13)]
    value, refine, abs_int, _, _ = panel_quadrature(t_profile, edges, 16)
    if half_line:
        value, refine, abs_int = 2.0 * value, 2.0 * refine, 2.0 * abs_int
    err = (refine + inner_err * 2.0 * y_up + 4.0 * _EPS * abs_int
           + math.exp(-y_up * y_up)) / math.pi
    return -float(value) / math.pi, err, work


def _assert_matches_per_y_loops(out, lam):
    """The route against both loops: bit for bit against the half-line
    loop, and against the full-line loop in value and in work, which that
    loop spends twice.  Its error estimate differs from the full line's
    only in rounding: the half-order sums of mirrored panels add the same
    terms in another order, and their differences from the full-order sums
    are rounding noise."""
    assert (out.value, out.error_estimate, out.work) == _fourier2d_per_y(
        lam, half_line=True)
    ref_value, ref_err, ref_work = _fourier2d_per_y(lam)
    assert out.value == ref_value
    assert 2 * out.work == ref_work
    assert out.error_estimate == pytest.approx(ref_err, rel=0.01)


@pytest.mark.parametrize("key,expected", sorted(ov.T_INNER.items()))
def test_inner_transform_frozen(key, expected):
    y, lam = key
    assert abs(inner_t(y, lam) - expected) <= 1e-13


def test_inner_transform_decays_in_y():
    # the e^(-y^2) factor dominates once y clears the truncation scale
    assert abs(inner_t(5.0, 1.0)) <= 1e-10
    assert abs(inner_t(2.0, 1.0)) < abs(inner_t(1.0, 1.0))


def test_inner_transform_even_in_lambda():
    assert inner_t(0.5, 3.0) == pytest.approx(inner_t(0.5, -3.0), abs=1e-14)


def test_inner_transform_unreachable_tolerance():
    with pytest.raises(WorkLimitError):
        inner_t(0.0, 1.0, tol=ToleranceSpec(abs_tol=1e-17, rel_tol=0.0))


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 3.0, 4.0, 8.0, 10.0, 12.0])
def test_stacked_inner_quadrature_matches_per_y_loop(lam):
    out = fourier2d_s_star(lam)
    _assert_matches_per_y_loops(out, lam)
    # built-in types, so outcomes and the reports built on them serialize
    assert type(out.value) is float
    assert type(out.error_estimate) is float
    assert type(out.work) is int


@pytest.mark.parametrize("lam", [0.0, 3.0, 10.0])
def test_mirrored_reuse_matches_per_y_loop_off_default_config(monkeypatch,
                                                            lam):
    # other box half-widths give other edges; the half line must still
    # mirror the full line
    _set_truncations(monkeypatch,
                     {"_Y_TRUNCATION": 7.0, "_X_TRUNCATION": 6.5})
    _assert_matches_per_y_loops(fourier2d_s_star(lam), lam)


def _nesting_spy(monkeypatch):
    """Wrap fourier2d.panel_quadrature; returns the list of (depth, ys) of
    every call, ys being the nodes the integrand saw at depth 0."""
    calls = []
    depth = 0

    def spy(f, edges, order):
        nonlocal depth
        seen = []

        def recording(x):
            seen.append(np.array(x))
            return f(x)

        calls.append((depth, seen))
        depth += 1
        try:
            return panel_quadrature(recording, edges, order)
        finally:
            depth -= 1

    monkeypatch.setattr(fourier2d, "panel_quadrature", spy)
    return calls


def _inner_spy(monkeypatch):
    """Wrap fourier2d._inner_t_impl; returns the list of the y^2 rows of
    every call."""
    calls = []
    original = fourier2d._inner_t_impl

    def spy(y2, table):
        calls.append(y2.tolist())
        return original(y2, table)

    monkeypatch.setattr(fourier2d, "_inner_t_impl", spy)
    return calls


@pytest.mark.parametrize("lam", [0.0, 8.0, 12.0])
@pytest.mark.parametrize("cfg", [None, {"_Y_TRUNCATION": 7.0}])
def test_one_evaluation_runs_each_inner_transform_once(monkeypatch, lam, cfg):
    _set_truncations(monkeypatch, cfg)
    outer = _nesting_spy(monkeypatch)
    calls = _inner_spy(monkeypatch)
    fourier2d_s_star(lam)
    # the outer rule is the only panel_quadrature; it asks for 25 y rows
    # (16 full-order + 9 half-order nodes) in each of its 12 panels on
    # 0 <= y <= Y, one inner call per panel
    assert [d for d, _ in outer] == [0]
    assert len(calls) == 12
    assert calls == [(ys * ys).tolist() for ys in outer[0][1]]
    assert [len(rows) for rows in calls] == [25] * 12
    nodes = np.concatenate(outer[0][1])
    assert 0.0 < nodes.min() and nodes.max() < fourier2d._Y_TRUNCATION
    # every distinct transform runs once
    outer_y2 = {v for ys in outer[0][1] for v in (ys * ys).tolist()}
    assert sum(len(rows) for rows in calls) == len(outer_y2)
    # nothing carries over: the next call runs every transform again
    fourier2d_s_star(lam)
    assert len(calls) == 24
    assert calls[12:] == calls[:12]


def test_inner_block_peak_memory_stays_near_one_buffer():
    # one 25-row block at lambda = 12, the widest the route runs: built
    # in place, its peak stays near one (rows, panels, 37) buffer plus the
    # reduction's temporaries, so glibc does not trim and refault the heap
    # on every block
    table = _x_table(12.0)
    y2 = np.linspace(0.0, fourier2d._Y_TRUNCATION, 25) ** 2
    block = y2.size * table[0].size * table[0].itemsize
    _inner_t_impl(y2, table)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _inner_t_impl(y2, table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * block


@pytest.mark.parametrize("lam", [0.0, 3.0, 12.0])
@pytest.mark.parametrize("cfg", [None, {"_Y_TRUNCATION": 7.0,
                                        "_X_TRUNCATION": 6.5}])
def test_no_integrand_array_is_wider_than_one_outer_panel(monkeypatch, lam,
                                                          cfg):
    _set_truncations(monkeypatch, cfg)
    x_panels = len(_cos_edges(lam, fourier2d._X_TRUNCATION)) - 1
    shapes = []
    original = fourier2d._reduce_panels

    def spy(fx, hw, order):
        shapes.append(fx.shape)
        return original(fx, hw, order)

    monkeypatch.setattr(fourier2d, "_reduce_panels", spy)
    fourier2d_s_star(lam)
    # one (rows, x panels, 24 + 13 nodes) block per inner call, never more
    # rows than the 25 y nodes of one outer panel
    assert len(shapes) == 12
    for rows, panels, nodes in shapes:
        assert 1 <= rows <= 25
        assert (panels, nodes) == (x_panels, 37)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(lam=st.floats(0.0, 12.0))
@pytest.mark.parametrize("cfg", [None, {"_Y_TRUNCATION": 7.0,
                                        "_X_TRUNCATION": 6.5}])
def test_tabulated_route_matches_per_y_loop_property(cfg, lam):
    with pytest.MonkeyPatch.context() as mp:
        _set_truncations(mp, cfg)
        _assert_matches_per_y_loops(fourier2d_s_star(lam), lam)


@pytest.mark.parametrize("order", [9, 13, 16, 24])
def test_gauss_legendre_nodes_exactly_antisymmetric(order):
    # with the symmetric weights, this makes each full-order panel sum of
    # the half line the bits of its mirror panel, so twice the half line
    # is the full line's value exactly
    xs, ws = _gl_rule(order)
    assert np.array_equal(xs, -xs[::-1])
    assert np.array_equal(ws, ws[::-1])


def test_cross_validate_report_is_plain_python():
    report = cross_validate([1.0])
    assert any("fourier2d" in c.name for c in report.checks)
    for c in report.checks:
        assert type(c.passed) is bool
        assert type(c.measured) is float and type(c.threshold) is float


@pytest.mark.parametrize("complex_rows", [False, True])
def test_stacked_panel_quadrature_rows_match_1d_calls(complex_rows):
    shifts = np.array([0.0, 0.3, 1.7, 2.2, 5.0])
    lam = 3.0
    edges = _cos_edges(lam, 6.0)

    def row(s):
        if complex_rows:
            return lambda x: np.exp(1j * lam * x) * _fermi(x * x + s)
        return lambda x: np.cos(lam * x) * _fermi(x * x + s)

    stacked = panel_quadrature(
        lambda x: np.stack([row(s)(x) for s in shifts]), edges, 24)
    value, refine, abs_int, sums, work = stacked
    assert value.shape == refine.shape == abs_int.shape == shifts.shape
    assert sums.shape == (len(shifts), len(edges) - 1)
    one_work = None
    for i, s in enumerate(shifts):
        v1, r1, a1, sums1, one_work = panel_quadrature(row(s), edges, 24)
        assert value[i] == v1 and refine[i] == r1 and abs_int[i] == a1
        assert np.array_equal(sums[i], sums1)
    assert work == len(shifts) * one_work


@pytest.mark.parametrize("y", [0.0, 0.7, 1.5])
@pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
def test_unreduced_imaginary_part_vanishes(y, lam):
    """Full-line evaluation, no symmetry shortcut: Im must vanish."""
    val = _inner_t_unreduced(y, lam)
    assert abs(val.imag) <= 10.0 * _INNER_TOL
    assert val.real == pytest.approx(inner_t(y, lam), abs=1e-10)


def test_s_star_at_zero():
    out = fourier2d_s_star(0.0)
    assert abs(out.value + math.log(2.0)) <= out.error_estimate
    assert out.method == "fourier2d"


@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0, 8.0])
def test_s_star_frozen_values(lam):
    out = fourier2d_s_star(lam)
    assert abs(out.value - ov.S_STAR[lam]) <= 1e-10
    assert abs(out.value - ov.S_STAR[lam]) <= out.error_estimate


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0, 4.0, 8.0])
def test_representation_equivalence_with_hankel(lam):
    a = fourier2d_s_star(lam)
    b = hankel_s_star(lam)
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_s_star_range_wall():
    # the oscillatory 2D integral turns impractical past lambda ~ 12;
    # the route refuses rather than degrade
    with pytest.raises(RangeError):
        fourier2d_s_star(12.5)
    with pytest.raises(DomainError):
        fourier2d_s_star(-0.5)


def test_s_star_unreachable_tolerance_keeps_partial():
    # the route takes no tolerance; evaluate judges its result
    with pytest.raises(WorkLimitError) as exc:
        evaluate("fourier2d", 2.0, ToleranceSpec(abs_tol=1e-16, rel_tol=0.0))
    partial = exc.value.partial
    assert partial == fourier2d_s_star(2.0)
    assert abs(partial.value - ov.S_STAR[2.0]) <= partial.error_estimate


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("lam", [0.0, 1.0, 3.0])
def test_gaussian_term_identity(m, lam):
    numeric, closed = gaussian_term_identity(m, lam)
    assert closed == pytest.approx(ov.gaussian_closed(m, lam), rel=1e-15)
    assert abs(numeric - closed) <= 1e-9


def test_gaussian_term_rejects_bad_args():
    with pytest.raises(DomainError):
        gaussian_term_identity(0, 1.0)
    with pytest.raises(DomainError):
        gaussian_term_identity(1, -1.0)
    # int(m) raised OverflowError and ValueError for these
    for m in (math.inf, math.nan):
        with pytest.raises(DomainError):
            gaussian_term_identity(m, 1.0)


@pytest.mark.parametrize("lam,error", [(math.inf, DomainError),
                                       (math.nan, DomainError),
                                       (1e12, WorkLimitError)])
def test_gaussian_term_refuses_unbounded_work_quickly(lam, error):
    # lambda = inf would ask for cosine zeros forever, and 1e12 for ~1e12
    start = time.perf_counter()
    with pytest.raises(error):
        gaussian_term_identity(1, lam)
    assert time.perf_counter() - start < 1.0


def test_cos_edges_refuses_more_zeros_than_max_panels():
    # (k + 1/2) pi / lam < 6 holds for k < 6 lam / pi - 1/2
    edges = _cos_edges(MAX_PANELS * math.pi / 6.0, 6.0)
    assert len(edges) - 1 >= MAX_PANELS
    with pytest.raises(WorkLimitError):
        _cos_edges((MAX_PANELS + 2) * math.pi / 6.0, 6.0)


def test_gaussian_terms_rebuild_the_series():
    # summing the closed forms with alternating signs recovers the
    # defining series at t = lam^2/4, up to the alternating tail bound
    lam = 2.0
    t = lam * lam / 4.0
    m_cut = 2000
    total = sum((-1.0) ** (m + 1) / math.pi * ov.gaussian_closed(m, lam)
                for m in range(1, m_cut + 1))
    recon = -total
    bound = math.exp(-t / (m_cut + 1)) / (m_cut + 1)
    assert abs(recon - ov.S_T[t]) <= bound + 1e-12


class TestRadialTransform:
    def test_gaussian_pairs(self):
        for rho in (0.0, 2.0):
            got = radial_transform(lambda r: np.exp(-r * r), rho)
            assert abs(got - math.pi * math.exp(-rho * rho / 4.0)) <= 1e-10

    def test_fermi_weight_matches_s_star(self):
        # the 2D transform of 1/(1+e^(r^2)) evaluated on the axis is
        # -pi S*(lambda), tying the radial helper to the other routes
        fermi = lambda r: 1.0 / (1.0 + np.exp(r * r))
        for lam in (2.0, 8.0):
            got = radial_transform(fermi, lam)
            assert abs(got + math.pi * ov.S_STAR[lam]) <= 1e-9

    def test_fermi_at_zero_gives_pi_ln2(self):
        fermi = lambda r: 1.0 / (1.0 + np.exp(r * r))
        got = radial_transform(fermi, 0.0)
        assert got == pytest.approx(math.pi * math.log(2.0), abs=1e-11)

    def test_rejects_negative_rho(self):
        with pytest.raises(DomainError):
            radial_transform(lambda r: np.exp(-r * r), -1.0)

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(DomainError):
            radial_transform(lambda r: np.exp(-r * r), rho)

    @pytest.mark.parametrize("rho", [1e300, 1e308])
    def test_refuses_rho_past_the_zero_table(self, rho):
        # rho = 1e308 overflowed the zero count; 1e300 answered from the
        # first 10,000 zeros alone
        with pytest.raises(WorkLimitError):
            radial_transform(lambda r: np.exp(-r * r), rho)

    def test_slow_decay_cannot_meet_tolerance(self):
        # |f| r is integrable here but the probed tail never gets small,
        # so the honest estimate stays above any sane tolerance
        with pytest.raises(WorkLimitError):
            radial_transform(lambda r: 1.0 / (1.0 + r) ** 3, 1.0)

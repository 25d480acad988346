"""Direct-summation route: values, tail bounds, diagnostics, budgets."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altseries.core import (DomainError, ToleranceSpec, WorkLimitError,
                            lambda_of_t)
from altseries import acceptance, series
from altseries.harness import evaluate
from altseries.acceptance import (SeriesParams, _sum_interior,
                                  derivative_residuals)
from altseries.series import AlternatingOutcome, sum_alternating_s

import oracle_values as ov


def radial_limit_probe(z: complex, nu: float, t: float, rho_list):
    """S(z rho, nu, t) along the ray rho in [0, 1) toward boundary z."""
    if abs(z) != 1.0:
        raise DomainError("radial_limit_probe requires |z| = 1")
    out = []
    for rho in rho_list:
        if not 0.0 <= rho < 1.0:
            raise DomainError(f"rho must lie in [0, 1), got {rho}")
        out.append(_sum_interior(z * rho, nu, t)[0])
    return out


@pytest.mark.parametrize("t,expected", sorted(ov.S_T.items()))
def test_alternating_s_frozen_values(t, expected):
    out = sum_alternating_s(t)
    assert abs(out.value - expected) <= 2e-16
    # the reported estimate must cover the actual error
    assert abs(out.value - expected) <= out.error_estimate


# (value, error_estimate, work, cancellation), frozen from the 22-term
# Chebyshev acceleration; each value is within 2e-16 of the 40-digit
# oracle where ``oracle_values.S_T`` holds t
S_T_OUTCOMES = {
    0.0: (-0.6931471805599453, 2.6200604623196523e-15, 22,
          4.956361434539192),
    36.0: (-3.0588432660900685e-07, 5.985727416712166e-17, 22,
           411651.43352070707),
    150.0: (3.3438283104079866e-14, 1.9965756319850833e-17, 22,
            2686023082431.28),
    2500.0: (4.835332696801898e-55, 1.9940006789122866e-17, 22,
             1.8572001716583857e+53),
}


@pytest.mark.parametrize("t", sorted(S_T_OUTCOMES))
def test_alternating_s_frozen_outcomes(t):
    out = sum_alternating_s(t)
    got = (out.value, out.error_estimate, out.work, out.cancellation)
    assert got == S_T_OUTCOMES[t]
    assert [type(g) for g in got] == [float, float, int, float]


def test_cancellation_diagnostic_grows():
    # (sum|w_k a_(k+1)| + truncation/eps) / |S(t)| grows as S(t) decays,
    # also once the terms themselves underflow, until S(t) does
    small = sum_alternating_s(1.0).cancellation
    large = sum_alternating_s(150.0).cancellation
    assert small < 1e3
    assert large > 1e8
    assert sum_alternating_s(1e8).cancellation == math.inf
    assert isinstance(sum_alternating_s(0.0), AlternatingOutcome)


@pytest.mark.parametrize("t", [0.0, 5e-324, 1.0, 144.0, 1e4, 1e8, 1e300,
                               sys.float_info.max])
def test_every_t_takes_the_same_terms(t):
    out = sum_alternating_s(t)
    assert out.work == series._N == 22
    assert out.error_estimate >= series._TRUNCATION


@pytest.mark.parametrize("t", [1e8, 1e300])
def test_huge_t_answers_at_the_truncation_bound(t):
    # every term underflows: S(t) is 0 to within ln 2 / T_22(3)
    out = sum_alternating_s(t)
    assert out.value == 0.0
    assert out.error_estimate == series._TRUNCATION
    assert 1.99e-17 < out.error_estimate < 2.0e-17


def test_a_tight_tolerance_is_met():
    # at t = 25 the estimate is 1.2e-16: a tolerance of 1e-15 is met,
    # not refused with WorkLimitError
    out = evaluate("series", 10.0, ToleranceSpec(1e-15, 0.0))
    assert out.error_estimate <= 1e-15
    assert abs(out.value - ov.S_T[25.0]) <= out.error_estimate


def _oracle_s(t: float, mpmath):
    """S(t) at 40 digits: the terms n <= t + 1 summed directly, the
    monotone alternating tail past them by mpmath.nsum."""
    t = mpmath.mpf(t)
    head = int(t) + 1
    return (mpmath.fsum((-1) ** n * mpmath.exp(-t / n) / n
                        for n in range(1, head + 1))
            + mpmath.nsum(lambda n: (-1) ** n * mpmath.exp(-t / n) / n,
                          [head + 1, mpmath.inf]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(min_value=math.log(1e-8), max_value=math.log(2000.0))
       .map(math.exp))
@example(0.0)
@example(1e-300)
@example(5e-324)
def test_estimate_bounds_the_error_against_mpmath(t):
    mpmath = pytest.importorskip("mpmath")
    out = sum_alternating_s(t)
    with mpmath.workdps(40):
        error = abs(mpmath.mpf(out.value) - _oracle_s(t, mpmath))
        assert error <= out.error_estimate


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_alternating_s_rejects_infinite_t(t):
    with pytest.raises(DomainError):
        sum_alternating_s(t)


def test_alternating_s_rejects_negative_t():
    with pytest.raises(DomainError):
        sum_alternating_s(-0.5)
    with pytest.raises(DomainError):
        sum_alternating_s(math.nan)


INTERIOR_PINS = sorted(
    ((k, v) for k, v in ov.S_GENERAL.items() if abs(k[0]) < 1),
    key=lambda kv: repr(kv[0]))


@pytest.mark.parametrize("key,expected", INTERIOR_PINS)
def test_general_sum_frozen_values(key, expected):
    value, err, _ = _sum_interior(*key)
    assert abs(value - expected) <= 1e-15
    assert abs(value - expected) <= err + 1e-16


def test_general_real_z_returns_real_value():
    value, _, _ = _sum_interior(0.5, 2.0, 0.5)
    assert value.imag == 0.0


@pytest.mark.parametrize("z", [1e-10, 1e-3])
def test_general_sum_keeps_full_relative_accuracy_at_small_z(z):
    # the stop is relative to |z|: a target of eps/8 absolute summed one
    # term at z = 1e-10 and left a relative error of 8e-11
    mpmath = pytest.importorskip("mpmath")
    value, err, _ = _sum_interior(z, 1.0, 1.0)
    with mpmath.workdps(40):
        exact = mpmath.nsum(
            lambda n: mpmath.mpf(z) ** n / n * mpmath.exp(-1 / n),
            [1, mpmath.inf])
        error = abs(mpmath.mpf(value.real) - exact)
        assert value.imag == 0.0
        assert error <= 1e-15 * abs(exact)
        assert err >= error


def test_lambda_identity_with_s_star_table():
    # S*(lam) is the same series at t = lam^2/4
    for lam, expected in sorted(ov.S_STAR.items()):
        out = sum_alternating_s(lam * lam / 4.0)
        assert abs(out.value - expected) <= 4e-16, lam


class TestParamsValidation:
    def test_rejects_z_outside_disk(self):
        with pytest.raises(DomainError):
            SeriesParams(1.0 + 1e-6, 1.0, 0.0)

    def test_rejects_z_equal_one(self):
        with pytest.raises(DomainError):
            SeriesParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            SeriesParams(1.0 + 1e-12j, 1.0, 0.0)

    def test_rejects_bad_nu_t(self):
        with pytest.raises(DomainError):
            SeriesParams(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            SeriesParams(0.5, 1.0, -1.0)

    def test_rejects_boundary_and_zero(self):
        for z in (-1.0, 1j, cmath.exp(0.3j), 0.0):
            with pytest.raises(DomainError):
                SeriesParams(z, 1.0, 2.0)


def test_monotone_tail_threshold():
    """Terms n^-nu e^(-t/n) decrease once n > t/nu, not necessarily before."""
    for nu, t in [(1.0, 9.0), (2.0, 30.0), (0.5, 12.0)]:
        n0 = int(math.ceil(t / nu))
        n = np.arange(max(n0 - 3, 1), n0 + 50, dtype=float)
        terms = n ** -nu * np.exp(-t / n)
        after = terms[n > t / nu]
        assert np.all(np.diff(after) < 0), (nu, t)


@pytest.mark.parametrize("t,n_cut", [(3.0, 8), (9.0, 16), (0.0, 5), (25.0, 40)])
def test_alternating_remainder_bounded_by_next_term(t, n_cut):
    n = np.arange(1, n_cut + 1, dtype=float)
    partial = float(np.sum((-1.0) ** n / n * np.exp(-t / n)))
    s = sum_alternating_s(t).value
    next_term = math.exp(-t / (n_cut + 1)) / (n_cut + 1)
    assert abs(s - partial) <= next_term * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(min_value=0.05, max_value=0.9),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    nu=st.floats(min_value=0.3, max_value=3.0),
    t=st.floats(min_value=0.0, max_value=20.0),
)
def test_interior_sum_dominated_by_geometric_bound(r, theta, nu, t):
    z = r * cmath.exp(1j * theta)
    value, _, _ = _sum_interior(z, nu, t)
    assert abs(value) <= r / (1.0 - r) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=30.0),
    extra=st.integers(min_value=1, max_value=300),
)
def test_alternating_tail_property(t, extra):
    n_cut = int(t) + extra
    n = np.arange(1, n_cut + 1, dtype=float)
    partial = float(np.sum((-1.0) ** n / n * np.exp(-t / n)))
    s = sum_alternating_s(t).value
    bound = math.exp(-t / (n_cut + 1)) / (n_cut + 1)
    assert abs(s - partial) <= bound + 1e-14


def test_radial_limit_probe_converges_to_boundary():
    ref = ov.S_GENERAL[(1j, 1.5, 2.0)]
    outs = radial_limit_probe(1j, 1.5, 2.0, [0.9, 0.99, 0.999, 0.9999])
    dists = [abs(v - ref) for v in outs]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 2e-5
    # frozen value at rho = 0.999 pins the middle of the trend
    assert abs(outs[2] - ov.S_GENERAL[(0.999j, 1.5, 2.0)]) <= 1e-15


def test_radial_limit_probe_validation():
    with pytest.raises(DomainError):
        radial_limit_probe(0.5, 1.0, 1.0, [0.9])
    with pytest.raises(DomainError):
        radial_limit_probe(1j, 1.0, 1.0, [1.0])


def test_derivative_residuals_small_and_second_order():
    p = SeriesParams(0.5, 1.0, 1.0)
    r_coarse = derivative_residuals(p, 1e-3)
    r_fine = derivative_residuals(p, 1e-4)
    assert max(r_fine) <= 1e-6
    # central differences, so residuals shrink roughly like h^2 until
    # they hit the summation noise floor
    for rc, rf in zip(r_coarse, r_fine):
        if rc > 1e-12:
            assert rf <= rc * 0.05


def test_derivative_residuals_validation():
    p = SeriesParams(0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        derivative_residuals(p, 0.0)
    with pytest.raises(DomainError):
        derivative_residuals(p, 2.0)  # t - h < 0
    with pytest.raises(DomainError):
        derivative_residuals(SeriesParams(0.0, 1.0, 1.0), 1e-4)  # s/z at z = 0
    # z +- h on the unit circle: z - h = -1, then z + h = 1
    for z, h in [(-0.75, 0.25), (0.75, 0.25), (0.5, 0.5), (0.9, 0.1)]:
        with pytest.raises(DomainError):
            derivative_residuals(SeriesParams(z, 1.0, 1.0), h)


def test_interior_budget_exhaustion(monkeypatch):
    # |z| = 1 - 1e-9 needs about 5.7e10 terms: refused before any is formed
    formed = []
    monkeypatch.setattr(acceptance, "_term_block",
                        lambda *a: formed.append(a))
    with pytest.raises(WorkLimitError, match="over the cap"):
        _sum_interior(1.0 - 1e-9, 1.0, 1.0)
    assert formed == []


def test_boundary_budget_exhaustion():
    # the series route sums whatever the budget; evaluate refuses the work
    # spent, with the whole outcome as partial
    tol = ToleranceSpec(max_work=21)
    with pytest.raises(WorkLimitError, match="exceeds max_work 21") as exc:
        evaluate("series", lambda_of_t(50.0), tol, t=50.0)
    assert exc.value.partial == sum_alternating_s(50.0)


def test_boundary_budget_counts_the_terms_spent():
    out = sum_alternating_s(25.0)
    loose = dict(abs_tol=1e-6, rel_tol=0.0)
    at_limit = evaluate("series", 10.0, ToleranceSpec(**loose,
                                                      max_work=out.work))
    assert at_limit == out
    # one term short, evaluate refuses with the whole outcome,
    # cancellation included
    tight = ToleranceSpec(**loose, max_work=out.work - 1)
    with pytest.raises(WorkLimitError,
                       match=f"work {out.work} exceeds max_work") as exc:
        evaluate("series", 10.0, tight)
    assert exc.value.partial == out


def test_work_is_reported():
    out = sum_alternating_s(5.0)
    assert out.work > 0
    assert out.method == "series"

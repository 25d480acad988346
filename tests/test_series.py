"""Direct-summation route: values, tail bounds, diagnostics, budgets."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altseries.core import DomainError, ToleranceSpec, WorkLimitError
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
        out.append(_sum_interior(z * rho, nu, t, ToleranceSpec())[0])
    return out


@pytest.mark.parametrize("t,expected", sorted(ov.S_T.items()))
def test_alternating_s_frozen_values(t, expected):
    out = sum_alternating_s(t)
    assert abs(out.value - expected) <= 2e-16
    # the reported estimate must cover the actual error
    assert abs(out.value - expected) <= out.error_estimate


# (value, error_estimate, work, cancellation), frozen from the summation
# code as it stood when it still handled general z on the closed disk; the
# entries at t = 150 and 2500 re-frozen when the terms moved from numpy's
# exp to math.exp, each within the old entry's error_estimate of its value
S_T_OUTCOMES = {
    0.0: (-0.6931471805599453, 5.472896243237346e-15, 74,
          6.855170891927952),
    36.0: (-3.058843266404848e-07, 3.767373656268445e-15, 77,
           1746563.5523953168),
    150.0: (3.343484343554248e-14, 1.4722853717206983e-15, 189,
            8966329050229.436),
    2500.0: (4.2012834183813297e-19, 2.1264451624409874e-16, 2537,
             5.337411967835388e+17),
}


@pytest.mark.parametrize("t", sorted(S_T_OUTCOMES))
def test_alternating_s_frozen_outcomes(t):
    out = sum_alternating_s(t)
    got = (out.value, out.error_estimate, out.work, out.cancellation)
    assert got == S_T_OUTCOMES[t]
    assert [type(g) for g in got] == [float, float, int, float]


def test_cancellation_diagnostic_grows():
    small = sum_alternating_s(1.0).cancellation
    large = sum_alternating_s(150.0).cancellation
    assert small < 1e3
    assert large > 1e12
    assert isinstance(sum_alternating_s(0.0), AlternatingOutcome)


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
    value, err, _ = _sum_interior(*key, ToleranceSpec())
    assert abs(value - expected) <= 1e-15
    assert abs(value - expected) <= err + 1e-16


def test_general_real_z_returns_real_value():
    value, _, _ = _sum_interior(0.5, 2.0, 0.5, ToleranceSpec())
    assert value.imag == 0.0


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
    value, _, _ = _sum_interior(z, nu, t, ToleranceSpec())
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


def test_interior_budget_exhaustion():
    tol = ToleranceSpec(abs_tol=1e-300, rel_tol=1e-300, max_work=3)
    with pytest.raises(WorkLimitError) as exc:
        _sum_interior(0.5, 1.0, 1.0, tol)
    partial = exc.value.partial
    assert partial is not None
    assert abs(partial.value - ov.S_GENERAL[(0.5, 1.0, 1.0)]) <= 1e-12


def test_boundary_budget_exhaustion():
    with pytest.raises(WorkLimitError):
        sum_alternating_s(50.0, tol=ToleranceSpec(max_work=64))


def test_boundary_budget_counts_the_terms_spent():
    out = sum_alternating_s(25.0, ToleranceSpec(1e-6, 0.0))
    at_limit = sum_alternating_s(25.0, ToleranceSpec(1e-6, 0.0,
                                                     max_work=out.work))
    assert (at_limit.value, at_limit.work) == (out.value, out.work)
    # past the bulk, max_work steers nothing here: evaluate alone refuses
    # the work spent, with the whole outcome, cancellation included
    tight = ToleranceSpec(1e-6, 0.0, max_work=out.work - 1)
    assert sum_alternating_s(25.0, tight) == out
    with pytest.raises(WorkLimitError,
                       match=f"work {out.work} exceeds max_work") as exc:
        evaluate("series", 10.0, tight)
    assert exc.value.partial == out


def test_bulk_holds_one_block_of_terms_at_a_time():
    # 100,032 bulk terms: a list or array of all of them takes 0.8 MB of
    # pointers or doubles alone (numpy's temporaries peaked at 3.3 MB)
    tracemalloc.start()
    try:
        out = sum_alternating_s(1e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.work > 100_000
    assert peak < 500_000


def test_work_is_reported():
    out = sum_alternating_s(5.0)
    assert out.work > 0
    assert out.method == "series"

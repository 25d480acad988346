"""Closed-form asymptotics and the exponent bookkeeping around them."""

import math
import random

import pytest

from altseries.acceptance import _rough_bound_trace, _saddle_rhs_closed
from altseries.asymptotic import (
    FRONT_CONSTANT,
    SQRT_HALF_PI,
    asym_s_star,
    asym_s_t,
    error_envelope,
)
from altseries.core import DomainError, RangeError
from altseries.harness import evaluate

import oracle_values as ov


@pytest.mark.parametrize("lam,pair", sorted(ov.ASYM.items()))
def test_frozen_values(lam, pair):
    expected_value, expected_scaled = pair
    term = asym_s_star(lam)
    assert term.value == pytest.approx(expected_value, rel=4e-15)
    assert term.scaled_value == pytest.approx(expected_scaled, rel=4e-15)


def test_front_constant_correctly_rounded():
    exact = 2.0 ** 1.5 * math.pi ** 0.25
    assert abs(FRONT_CONSTANT - exact) <= 2.0 ** -52 * 4.0
    assert FRONT_CONSTANT == pytest.approx(ov.FRONT_CONSTANT, rel=1e-15)


def test_term_pieces_are_consistent():
    term = asym_s_star(17.0)
    assert term.value == term.amplitude * math.cos(term.phase)
    assert term.phase == pytest.approx(17.0 * SQRT_HALF_PI + math.pi / 8.0, rel=1e-15)
    assert term.lam == pytest.approx(17.0, rel=1e-14)
    assert term.scaled_amplitude == pytest.approx(FRONT_CONSTANT / math.sqrt(17.0),
                                                  rel=1e-15)


def test_t_parameterization_matches_lambda_one():
    """Identical values through both parameterizations, 100 random t."""
    rng = random.Random(17)
    worst = 0.0
    for _ in range(100):
        t = math.exp(rng.uniform(math.log(0.1), math.log(400.0)))
        a = asym_s_t(t)
        b = asym_s_star(2.0 * math.sqrt(t))
        scale = max(abs(a.value), 5e-324)
        worst = max(worst, abs(a.value - b.value) / (2.0 ** -52 * scale))
    assert worst <= 4.0


def test_scaled_value_survives_underflow():
    # at lambda = 900 the true value underflows but the scaled form cannot
    term = asym_s_star(900.0)
    assert term.amplitude == 0.0
    assert term.scaled_value != 0.0
    assert abs(term.scaled_value) <= FRONT_CONSTANT / math.sqrt(900.0)


@pytest.mark.parametrize("lam", [1e-10, 1e-20])
def test_scaled_value_exact_at_tiny_lambda(lam):
    # lambda is stored, not recovered from the phase, so nothing cancels;
    # the reference keeps the phase's lambda sqrt(pi/2), which moves the
    # cosine by 5e-11 relative at lambda = 1e-10 and not at all at 1e-20
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        exact = (mp.mpf(FRONT_CONSTANT) / mp.sqrt(lam)
                 * mp.cos(lam * mp.sqrt(mp.pi / 2) + mp.pi / 8))
    term = asym_s_star(lam)
    assert term.lam == lam
    assert abs(-term.scaled_value - exact) <= 1e-15 * exact
    if lam == 1e-20:
        closed = FRONT_CONSTANT / math.sqrt(lam) * math.cos(math.pi / 8.0)
        assert abs(-term.scaled_value - closed) <= 1e-15 * closed


@pytest.mark.parametrize("lam", [8.0, 1e5, 1e8, 1e10, 1e12, 1e15])
def test_route_scaled_error_covers_the_phase_rounding(lam):
    # the route's scaled value against the law at 60 digits: the phase
    # lambda sqrt(pi/2) + pi/8, formed in doubles, is off by ~eps phase
    # rad, which passes the envelope lambda^(-3/2) near lambda = 2e7
    mp = pytest.importorskip("mpmath")
    out = evaluate("asym", lam)
    with mp.workdps(60):
        law = -(mp.mpf(FRONT_CONSTANT) / mp.sqrt(lam)
                * mp.cos(lam * mp.sqrt(mp.pi / 2) + mp.pi / 8))
        assert abs(out.scaled_value - law) <= out.scaled_error
    # the true-size estimate is the envelope alone
    assert out.error_estimate == max(error_envelope(lam), math.ulp(0.0))


@pytest.mark.parametrize("lam", [1e16, 1e200])
def test_route_scaled_error_stops_at_the_cosine_range(lam):
    # once eps phase passes 1 the phase is unknown, and no two values of
    # A cos differ by more than 2 A
    out = evaluate("asym", lam)
    assert out.scaled_error == (lam ** -1.5
                                + 2.0 * asym_s_star(lam).scaled_amplitude)


@pytest.mark.parametrize("lam", [1e-300, 5e-324])
def test_scaled_value_finite_at_smallest_lambda(lam):
    term = asym_s_star(lam)
    assert term.lam == lam
    assert math.isfinite(term.scaled_value) and term.scaled_value < 0.0


@pytest.mark.parametrize("lam", [1e-207, 1e-300, 5e-324])
def test_error_envelope_refuses_overflow(lam):
    with pytest.raises(RangeError):
        error_envelope(lam)


def test_error_envelope_finite_down_to_its_edge():
    assert math.isfinite(error_envelope(1e-205))


def test_saddle_closed_form_magnitude_and_phase():
    lam = 9.0
    r = _saddle_rhs_closed(lam)
    mag = math.sqrt(2.0) * math.pi ** 0.25 / math.sqrt(lam)
    assert abs(r) == pytest.approx(mag * math.exp(-lam * SQRT_HALF_PI), rel=1e-14)
    # the closed form carries exactly the leading term: value = -2 Re
    assert asym_s_star(lam).value == pytest.approx(-2.0 * r.real, rel=1e-14)


def test_error_envelope_shape():
    for lam in (8.0, 15.0, 40.0):
        expected = math.exp(-lam * SQRT_HALF_PI) * lam ** -1.5
        assert error_envelope(lam) == pytest.approx(expected, rel=1e-15)
    assert error_envelope(10.0) > error_envelope(11.0)


@pytest.mark.parametrize("func", [asym_s_star, error_envelope])
def test_lambda_domain_guards(func):
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            func(bad)


@pytest.mark.parametrize("func", [asym_s_star, asym_s_t, error_envelope])
def test_infinite_argument_refused(func):
    with pytest.raises(DomainError):
        func(math.inf)


def test_t_domain_guard():
    with pytest.raises(DomainError):
        asym_s_t(0.0)
    with pytest.raises(DomainError):
        asym_s_t(-2.0)


class TestRoughBoundTrace:
    def test_frozen_values(self):
        grid = sorted(ov.ROUGH_BOUND_12)
        vals = _rough_bound_trace(1.2, grid)
        for got, lam in zip(vals, grid):
            assert got == pytest.approx(ov.ROUGH_BOUND_12[lam], rel=2e-3), lam

    def test_decreasing_toward_zero(self):
        vals = _rough_bound_trace(1.2, [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0])
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_a_zero_degenerates_to_magnitude(self):
        vals = _rough_bound_trace(0.0, [10.0])
        assert vals[0] == pytest.approx(abs(ov.S_STAR[10.0]), rel=1e-9)

    def test_crosses_the_double_precision_wall(self):
        # beyond lambda ~ 27 the plain value underflows the quadrature
        # floor; the trace must keep decreasing anyway
        vals = _rough_bound_trace(1.2, [24.0, 28.0, 40.0, 60.0])
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

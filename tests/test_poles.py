"""Pole geometry of 1 + e^(z^2 + y^2) in the upper half plane."""

import cmath
import math
import sys

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from altseries.asymptotic import SQRT_HALF_PI
from altseries.core import DomainError, RangeError
from altseries.poles import (
    STRIP_A,
    STRIP_A1,
    STRIP_A2,
    STRIP_B,
    q_eval,
    strip_width_b,
    u_star,
    x_star,
)

import oracle_values as ov


def _pole_ordinate(u: float) -> float | None:
    """|y| at which the pole pair sits exactly at height u, if any."""
    if u < SQRT_HALF_PI:
        return None
    half_gap = math.pi / (2.0 * u)
    return math.sqrt(max(u * u - half_gap * half_gap, 0.0))


def q_lower_bound_alpha(u: float, y_region, grid_step: float = 0.01) -> float:
    """Concrete alpha with |Q(x + iu, y)| >= alpha e^(x^2+y^2) for y in region.

    Outside the compact set x^2 + y^2 <= u^2 + ln 2 the exponential alone
    forces |Q| >= e^(x^2+y^2-u^2)/2, so alpha = min(e^(-u^2)/2, 1/C) with C
    the grid maximum of e^(x^2+y^2)/|Q| over the compact part.  The grid
    value of 1/C gets a 10% haircut to cover sampling slack.

    ``y_region`` is an iterable of (lo, hi) intervals; infinite endpoints are
    fine since the compact constraint caps |y|.
    """
    if not u > 0:
        raise DomainError("u must be positive")
    if not 0 < grid_step <= 0.1:
        raise DomainError("grid_step must lie in (0, 0.1]")

    intervals = [(float(lo), float(hi)) for lo, hi in y_region]
    if not intervals or any(lo >= hi for lo, hi in intervals):
        raise DomainError("y_region must be nonempty intervals (lo < hi)")

    yp = _pole_ordinate(u)
    if yp is not None:
        for lo, hi in intervals:
            for cand in (yp, -yp):
                if lo - grid_step <= cand <= hi + grid_step:
                    raise DomainError(
                        f"pole at |y| = {yp:.6f}, height u = {u}, lies inside "
                        "the requested region (precondition violated)")

    r2 = u * u + math.log(2.0)
    y_cap = math.sqrt(r2)
    big_c = 0.0
    for lo, hi in intervals:
        lo = max(lo, -y_cap)
        hi = min(hi, y_cap)
        if lo >= hi:
            continue
        ys = np.arange(lo, hi + grid_step, grid_step)
        xmax = math.sqrt(r2)
        xs = np.arange(-xmax, xmax + grid_step, grid_step)
        xg, yg = np.meshgrid(xs, ys)
        s2 = xg * xg + yg * yg
        mask = s2 <= r2
        if not np.any(mask):
            continue
        w = (xg + 1j * u) ** 2 + yg * yg
        q = np.abs(1.0 + np.exp(w))
        ratio = np.exp(s2) / q
        big_c = max(big_c, float(np.max(ratio[mask])))

    alpha_exp = 0.5 * math.exp(-u * u)
    if big_c == 0.0:
        return alpha_exp
    return min(alpha_exp, 0.9 / big_c)


@pytest.mark.parametrize("y", [0.0, 1.0, 2.0, 3.0])
def test_pole_coordinates_frozen(y):
    assert abs(u_star(y) - ov.U_STAR[y]) <= 1e-14
    assert abs(x_star(y) - ov.X_STAR[y]) <= 1e-14


def test_lowest_pole_is_symmetric_point():
    # at y = 0 the pole sits on the diagonal: x* = u* = sqrt(pi/2)
    assert u_star(0.0) == pytest.approx(math.sqrt(math.pi / 2.0), abs=0)
    assert x_star(0.0) == pytest.approx(u_star(0.0), abs=1e-15)


def test_hyperbola_identity():
    for y in np.linspace(-3.0, 3.0, 61):
        assert abs(x_star(y) * u_star(y) - math.pi / 2.0) <= 1e-15


def test_root_residual_across_strip():
    """|Q(z_+(y), y)| stays below 1e-12 for 50 equispaced y in (-b, b)."""
    ys = [float(y) for y in np.linspace(-STRIP_B, STRIP_B, 52)[1:-1]]
    worst = max(abs(q_eval(complex(x_star(y), u_star(y)), y)) for y in ys)
    assert worst <= 1e-12


def test_u_star_floor_and_monotonicity():
    assert u_star(0.0) == pytest.approx(ov.SQRT_HALF_PI, abs=1e-15)
    ys = np.linspace(0.0, 4.0, 81)
    us = np.array([u_star(float(y)) for y in ys])
    assert np.all(us >= ov.SQRT_HALF_PI - 1e-15)
    assert np.all(np.diff(us) > 0)
    # even in y
    assert u_star(-2.5) == u_star(2.5)


def test_no_higher_branch_intrudes():
    # all strip poles stay below a2, which itself is below sqrt(3 pi/2),
    # so the k >= 1 family never enters the contour box
    for y in np.linspace(-STRIP_B, STRIP_B, 41):
        assert u_star(float(y)) <= STRIP_A2 + 1e-12
    assert STRIP_A2 < ov.SQRT_3HALF_PI


@pytest.mark.parametrize("y", [0.0, 1.0, 2.0, 3.0])
def test_quartic_residual(y):
    u = u_star(y)
    resid = abs(u ** 4 - y * y * u * u - math.pi ** 2 / 4.0)
    assert resid <= 1e-10


def test_strip_width_frozen_values():
    assert abs(strip_width_b(2.0) - ov.STRIP_B_2) <= 1e-14
    assert abs(strip_width_b(1.9) - ov.STRIP_B_19) <= 1e-14


def test_strip_width_roundtrip():
    for a in (1.5, 1.9, 2.0, 2.1):
        assert u_star(strip_width_b(a)) == pytest.approx(a, abs=1e-13)


@pytest.mark.parametrize(
    "a",
    [1.0, math.sqrt(math.pi / 2.0), math.sqrt(3.0 * math.pi / 2.0), 2.2, 5.0],
)
def test_strip_width_domain(a):
    # the band endpoints themselves are excluded (strict inequalities)
    with pytest.raises(DomainError):
        strip_width_b(a)


class TestStripParams:
    def test_default(self):
        assert (STRIP_A1, STRIP_A, STRIP_A2) == (1.9, 2.0, 2.15)
        assert SQRT_HALF_PI < STRIP_A1 < STRIP_A < STRIP_A2 < ov.SQRT_3HALF_PI
        assert STRIP_B == pytest.approx(ov.STRIP_B_2, abs=1e-14)
        # the poles over the ends of (-b, b) sit at height a
        assert u_star(STRIP_B) == pytest.approx(STRIP_A, abs=1e-12)


class TestPoleLocation:
    """The pole pair z = +-x*(y) + i u*(y) over ordinate y."""

    def test_z_property(self):
        z = complex(x_star(1.0), u_star(1.0))
        assert z == complex(ov.X_STAR[1.0], ov.U_STAR[1.0])

    def test_negative_branch(self):
        # Q(-conj(z), y) = conj(Q(z, y)): the mirror point is a zero too
        xs, us = x_star(1.0), u_star(1.0)
        assert abs(q_eval(complex(-xs, us), 1.0)) == abs(
            q_eval(complex(xs, us), 1.0))
        assert abs(q_eval(complex(-xs, us), 1.0)) <= 1e-13

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_ordinate(self, y):
        for fn in (u_star, x_star):
            with pytest.raises(DomainError, match="need finite y"):
                fn(y)

    @pytest.mark.parametrize("y", [9.5e153, -1e154, 1e200,
                                   sys.float_info.max])
    def test_rejects_overflowing_ordinate(self, y):
        # y^2 + sqrt(y^4 + pi^2) overflows past |y| ~ 9.48e153
        for fn in (u_star, x_star):
            with pytest.raises(RangeError, match=r"u\*\(y\) overflows"):
                fn(y)

    def test_largest_ordinates_answered(self):
        # just below the overflow u* is |y| to the last bits
        for y in (9.4e153, 1e150):
            assert u_star(y) == pytest.approx(y, rel=1e-15)
            assert u_star(-y) == u_star(y)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(y=st.floats(-200.0, 200.0),
           branch=st.sampled_from([1, -1]))
    def test_identities_hold_relative_to_height(self, y, branch):
        # rounding in u*^2 grows with y^2, so every identity is held to a
        # few ulps of u*^2 rather than to an absolute bound
        xs, us = x_star(y), u_star(y)
        scale = 8.0 * np.finfo(float).eps * us ** 2
        assert abs(xs * us - math.pi / 2.0) <= scale
        assert abs(xs ** 2 + y * y - us ** 2) <= scale
        assert abs(q_eval(complex(branch * xs, us), y)) <= scale


def test_q_eval_at_simple_points():
    assert q_eval(0.0, 0.0) == pytest.approx(2.0, abs=0)
    assert abs(q_eval(complex(x_star(0.5), u_star(0.5)), 0.5)) <= 1e-13
    # purely imaginary z keeps the exponent real, so no root on the axis
    expected = 1.0 + math.exp(-math.pi)
    assert abs(q_eval(1j * math.sqrt(math.pi), 0.0) - expected) <= 1e-15


def test_q_eval_overflow_guard():
    with pytest.raises(RangeError):
        q_eval(30.0, 0.0)


class TestQLowerBound:
    def test_positive_and_verified_on_grid(self):
        # at height a1 the poles sit at |y| = b(a1) < b, so ordinates beyond
        # b are safely outside the requested region
        alpha = q_lower_bound_alpha(STRIP_A1,
                                    [(STRIP_B, 4.0), (-4.0, -STRIP_B)])
        assert alpha > 0
        rng = np.random.default_rng(7)
        for _ in range(300):
            y = rng.uniform(STRIP_B, 4.0) * rng.choice([-1.0, 1.0])
            x = rng.uniform(-3.0, 3.0)
            q = abs(q_eval(complex(x, STRIP_A1), float(y)))
            assert q >= alpha * math.exp(x * x + y * y) * (1.0 - 1e-12)

    def test_clean_line_below_poles(self):
        # u below sqrt(pi/2): no poles anywhere, whole line allowed
        alpha = q_lower_bound_alpha(1.0, [(-math.inf, math.inf)])
        assert alpha > 0

    def test_pole_inside_region_rejected(self):
        with pytest.raises(DomainError):
            q_lower_bound_alpha(STRIP_A, [(-4.0, 4.0)])

    def test_bad_region_rejected(self):
        with pytest.raises(DomainError):
            q_lower_bound_alpha(1.0, [])
        with pytest.raises(DomainError):
            q_lower_bound_alpha(1.0, [(2.0, 1.0)])
        with pytest.raises(DomainError):
            q_lower_bound_alpha(-1.0, [(2.0, 3.0)])

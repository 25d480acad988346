"""Residue route: pole residues, the saddle integral, scaled evaluation."""

import cmath
import dataclasses
import math

import pytest

from altseries.asymptotic import FRONT_CONSTANT, SQRT_HALF_PI, saddle_rhs_closed
from altseries.core import DomainError, EvalOutcome, ToleranceSpec, WorkLimitError
from altseries.hankel import hankel_s_star
from altseries.poles import StripParams, default_strip, strip_width_b, u_star, x_star, z_plus
from altseries.residue import (
    ResidueResult,
    calibrated_kappa,
    residue_at_pole,
    residue_integral_i2,
    s_star_via_residue,
    saddle_lhs_numeric,
)
from altseries.residue import _scaled_saddle

import oracle_values as ov


def _i2_imag_defect(lam: float, strip: StripParams | None = None) -> float:
    """|Im| left in the +- branch sum, relative to its real part."""
    strip = strip or default_strip()
    a_plus, a_minus, _, _, _ = _scaled_saddle(lam, strip)
    both = a_plus + a_minus
    return abs(both.imag) / abs(both.real)


class TestResidueAtPole:
    def test_magnitude_formula(self):
        y, lam = 0.5, 3.0
        res = residue_at_pole(y, lam)
        expected = math.exp(-lam * u_star(y)) / (2.0 * math.hypot(x_star(y), u_star(y)))
        assert abs(res) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("y,lam", [(0.0, 10.0), (0.8, 3.0), (1.5, 7.0)])
    def test_conjugate_pairing(self, y, lam):
        rp = residue_at_pole(y, lam, branch=1)
        rm = residue_at_pole(y, lam, branch=-1)
        assert rm == pytest.approx(-rp.conjugate(), abs=1e-300)

    def test_matches_local_limit(self):
        """(z - z0) f(z) -> residue as z -> z0, sampled on a small circle."""
        y, lam = 0.5, 3.0
        z0 = z_plus(y)
        res = residue_at_pole(y, lam)
        eps = 1e-6
        samples = []
        for ang in (0.3, 1.1, 2.3, 4.0):
            z = z0 + eps * cmath.exp(1j * ang)
            samples.append((z - z0) * cmath.exp(1j * lam * z)
                           / (1.0 + cmath.exp(z * z + y * y)))
        approx = sum(samples) / len(samples)
        assert abs(approx - res) / abs(res) <= 1e-4

    def test_rejects_y_outside_strip(self):
        b = default_strip().b
        with pytest.raises(DomainError):
            residue_at_pole(b, 1.0)
        with pytest.raises(DomainError):
            residue_at_pole(-b - 0.1, 1.0)

    def test_rejects_bad_branch(self):
        with pytest.raises(DomainError):
            residue_at_pole(0.0, 1.0, branch=2)


class TestSaddleIntegral:
    @pytest.mark.parametrize("lam,expected", sorted(ov.SADDLE_RELDEV.items()))
    def test_relative_deviation_frozen(self, lam, expected):
        lhs = saddle_lhs_numeric(lam)
        rhs = saddle_rhs_closed(lam)
        reldev = abs(lhs - rhs) / abs(rhs)
        assert reldev == pytest.approx(expected, rel=1e-5)

    def test_deviation_scales_like_one_over_lambda(self):
        d30 = ov.SADDLE_RELDEV[30.0]
        d60 = ov.SADDLE_RELDEV[60.0]
        assert 0.45 <= d60 / d30 <= 0.55

    def test_i2_is_real_up_to_roundoff(self):
        # the two branch integrals are conjugates, computed separately;
        # the named bound is 1e-10 relative, roundoff sits far below it
        for lam in (10.0, 20.0, 40.0):
            assert _i2_imag_defect(lam) <= 1e-10

    def test_i2_reconstructs_s_star(self):
        lam = 10.0
        i2 = residue_integral_i2(lam)
        diff = abs(-i2 / math.pi - ov.S_STAR[lam])
        # the neglected remainder is ~1e-4 at the scaled level
        assert diff <= 1.1e-4 * math.exp(-lam * SQRT_HALF_PI)

    def test_lambda_domain(self):
        with pytest.raises(DomainError):
            saddle_lhs_numeric(0.0)
        with pytest.raises(DomainError):
            residue_integral_i2(-3.0)


class TestScaledEvaluation:
    @pytest.mark.parametrize("lam", [10.0, 12.0, 14.0, 16.0])
    def test_neglected_bound_covers_true_defect(self, lam):
        r = s_star_via_residue(lam)
        defect = math.exp(lam * SQRT_HALF_PI) * abs(r.unscaled_value - ov.S_STAR[lam])
        assert defect <= r.neglected_bound
        assert defect == pytest.approx(ov.RESIDUE_SCALED_DEFECT[lam], rel=2e-2)

    def test_defect_decreases_with_lambda(self):
        vals = [ov.RESIDUE_SCALED_DEFECT[l] for l in (10.0, 12.0, 14.0, 16.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_scaled_unscaled_consistency(self):
        r = s_star_via_residue(12.0)
        assert r.unscaled_value == pytest.approx(
            r.scaled_value * math.exp(-12.0 * SQRT_HALF_PI), rel=1e-14)

    def test_far_beyond_the_double_wall(self):
        # lambda = 50: |S*| ~ 3e-28 is unreachable by direct quadrature,
        # the scaled route stays comfortably in range
        r = s_star_via_residue(50.0)
        assert 0.0 < abs(r.scaled_value) <= FRONT_CONSTANT / math.sqrt(50.0)
        assert 0.0 < abs(r.unscaled_value) < 1e-25
        assert r.work > 0

    def test_no_subnormals_through_sixty(self):
        r = s_star_via_residue(60.0)
        assert math.isfinite(r.scaled_value) and r.scaled_value != 0.0

    @pytest.mark.parametrize("fn", [saddle_lhs_numeric, residue_integral_i2,
                                    s_star_via_residue])
    def test_infinite_lambda_refused(self, fn):
        # sigma = 0 at lambda = inf would stall the saddle panel edges
        with pytest.raises(DomainError):
            fn(math.inf)

    def test_extreme_lambda_keeps_scaled_form(self):
        r = s_star_via_residue(400.0)
        assert math.isfinite(r.scaled_value)
        assert abs(r.scaled_value) <= FRONT_CONSTANT / math.sqrt(400.0) * 1.5

    def test_result_validation(self):
        with pytest.raises(DomainError):
            ResidueResult(1.0, 1.0, 1, neglected_bound=-1e-3)
        with pytest.raises(DomainError):
            s_star_via_residue(0.0)

    def test_alternate_strip_agrees(self):
        base = s_star_via_residue(14.0)
        other_strip = StripParams(1.92, 1.97, 2.05, strip_width_b(1.97))
        other = s_star_via_residue(14.0, strip=other_strip)
        tol = base.neglected_bound + other.neglected_bound
        assert abs(base.scaled_value - other.scaled_value) <= tol


class TestResidueResult:
    def test_is_an_eval_outcome_at_true_size(self):
        lam = 30.0
        r = s_star_via_residue(lam)
        scale = math.exp(-lam * SQRT_HALF_PI)
        assert isinstance(r, EvalOutcome)
        assert r.method == "residue"
        assert r.value == r.scaled_value * scale
        assert r.error_estimate == r.neglected_bound * scale
        assert r.unscaled_value == r.value

    def test_rebuilt_like_any_outcome(self):
        r = s_star_via_residue(12.0)
        again = type(r)(r.value, r.error_estimate, r.work, r.method)
        assert (again.value, again.method) == (r.value, "residue")
        moved = dataclasses.replace(r, value=2.0 * r.value)
        assert moved.value == 2.0 * r.value
        assert moved.scaled_value == r.scaled_value

    @pytest.mark.parametrize("fn", [saddle_lhs_numeric, residue_integral_i2,
                                    s_star_via_residue])
    @pytest.mark.parametrize("lam", [3e5, 1e40, 2e154])
    def test_huge_lambda_refused_before_placing_panels(self, fn, lam):
        # the saddle panels narrow like lambda^(-1/2); past the panel
        # budget the route refuses instead of stepping for ever
        with pytest.raises(WorkLimitError):
            fn(lam)

    def test_largest_admitted_lambda(self):
        r = s_star_via_residue(2.5e5)
        assert math.isfinite(r.scaled_value)


class TestKappaCalibration:
    def test_value_in_plausible_band(self):
        kappa = calibrated_kappa()
        assert 0.01 <= kappa <= 1.0

    def test_deterministic_and_cached(self):
        assert calibrated_kappa() == calibrated_kappa()

    def test_strip_specific(self):
        other = StripParams(1.92, 1.97, 2.05, strip_width_b(1.97))
        assert calibrated_kappa(other) != calibrated_kappa()


def test_hankel_crosscheck_through_the_window():
    # both routes are usable on 10 <= lambda <= 16; the gap is within
    # the combined accounting of the two methods
    for lam in (10.0, 13.0, 16.0):
        h = hankel_s_star(lam)
        r = s_star_via_residue(lam)
        gap = abs(h.value - r.unscaled_value)
        allowed = h.error_estimate + r.neglected_bound * math.exp(-lam * SQRT_HALF_PI)
        assert gap <= allowed, lam

"""Residue route: pole residues, the saddle integral, scaled evaluation."""

import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

from altseries.acceptance import _saddle_lhs_numeric, _saddle_rhs_closed
from altseries.asymptotic import FRONT_CONSTANT, SQRT_HALF_PI
from altseries import bessel, core, hankel, harness, residue
from altseries.core import (WINDOWS, DomainError, EvalOutcome, RangeError,
                            ToleranceSpec, WorkLimitError)
from altseries.hankel import hankel_s_star, panel_quadrature
from altseries.poles import STRIP_A1, STRIP_B, strip_width_b, u_star, x_star
from altseries.residue import (
    KAPPA,
    calibrated_kappa,
    s_star_via_residue,
)
from altseries.residue import _EPS, _scaled_saddle

import oracle_values as ov


def residue_at_pole(y: float, lam: float, branch: int = 1) -> complex:
    """Residue of e^(i lambda z)/(1+e^(z^2+y^2)) at z_branch(y).

    Since e^(z^2+y^2) = -1 at the pole, the denominator's derivative is
    -2 z, giving e^(i lambda z)/(-2z); the modulus factor e^(-lambda u*) is
    applied last so the phase part carries no overflow risk.
    """
    if branch not in (1, -1):
        raise DomainError(f"branch must be +1 or -1, got {branch}")
    if not abs(y) < STRIP_B:
        raise DomainError(
            f"|y| = {abs(y)} outside the open strip (b = {STRIP_B})")
    z = complex(branch * x_star(y), u_star(y))
    phase = complex(math.cos(lam * z.real), math.sin(lam * z.real))
    return math.exp(-lam * z.imag) * phase / (-2.0 * z)


def residue_integral_i2(lam: float, tol: ToleranceSpec | None = None) -> float:
    """Principal part of I2: 2 pi Re of the saddle integral, lambda > 0.

    Both pole branches are integrated independently; conjugate symmetry
    makes their sum real up to quadrature roundoff, which is checked here
    rather than assumed.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"need finite lambda > 0, got {lam}")
    tol = tol or ToleranceSpec()
    a_plus, a_minus, refine, _ = _scaled_saddle(lam)
    both = a_plus + a_minus
    if abs(both.imag) > 10.0 * (tol.abs_tol + refine) + 10.0 * _EPS * abs(both):
        raise WorkLimitError(
            f"branch sum has imaginary residue {both.imag:.3e}; "
            "quadrature inconsistency")
    scale = math.exp(-lam * SQRT_HALF_PI)
    return math.pi * both.real * scale


def _i2_imag_defect(lam: float) -> float:
    """|Im| left in the +- branch sum, relative to its real part."""
    a_plus, a_minus, _, _ = _scaled_saddle(lam)
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
        z0 = complex(x_star(y), u_star(y))
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
        with pytest.raises(DomainError):
            residue_at_pole(STRIP_B, 1.0)
        with pytest.raises(DomainError):
            residue_at_pole(-STRIP_B - 0.1, 1.0)

    def test_rejects_bad_branch(self):
        with pytest.raises(DomainError):
            residue_at_pole(0.0, 1.0, branch=2)


class TestSaddleIntegral:
    @pytest.mark.parametrize("lam,expected", sorted(ov.SADDLE_RELDEV.items()))
    def test_relative_deviation_frozen(self, lam, expected):
        lhs = _saddle_lhs_numeric(lam)
        rhs = _saddle_rhs_closed(lam)
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
            residue_integral_i2(-3.0)


class TestScaledEvaluation:
    @pytest.mark.parametrize("lam", [10.0, 12.0, 14.0, 16.0])
    def test_neglected_bound_covers_true_defect(self, lam):
        r = s_star_via_residue(lam)
        defect = math.exp(lam * SQRT_HALF_PI) * abs(r.value - ov.S_STAR[lam])
        assert defect <= r.scaled_error
        assert defect == pytest.approx(ov.RESIDUE_SCALED_DEFECT[lam], rel=2e-2)

    def test_defect_decreases_with_lambda(self):
        vals = [ov.RESIDUE_SCALED_DEFECT[l] for l in (10.0, 12.0, 14.0, 16.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_scaled_unscaled_consistency(self):
        # scaled_value is -e^(lambda sqrt(pi/2)) * value, the sign of
        # AsymptoticTerm.scaled_value
        r = s_star_via_residue(12.0)
        assert r.value == pytest.approx(
            -r.scaled_value * math.exp(-12.0 * SQRT_HALF_PI), rel=1e-14)

    def test_far_beyond_the_double_wall(self):
        # lambda = 50: |S*| ~ 3e-28 is unreachable by direct quadrature,
        # the scaled route stays comfortably in range
        r = s_star_via_residue(50.0)
        assert 0.0 < abs(r.scaled_value) <= FRONT_CONSTANT / math.sqrt(50.0)
        assert 0.0 < abs(r.value) < 1e-25
        assert r.work > 0

    def test_no_subnormals_through_sixty(self):
        # u* <= a on |y| <= b, so at lambda = 60 the smallest damping factor
        # is e^(-60 (a - sqrt(pi/2))) ~ 3.5e-20, nowhere near subnormal
        _, _, offset = residue._pole_line_arrays(np.array([STRIP_B]))
        assert math.exp(-60.0 * offset[0]) > 3e-20
        r = s_star_via_residue(60.0)
        assert math.isfinite(r.scaled_value) and r.scaled_value != 0.0

    @pytest.mark.parametrize("fn", [residue_integral_i2, s_star_via_residue])
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
            EvalOutcome(1.0, 1.0, 1, "residue", 0.0, -1e-3)
        with pytest.raises(RangeError):
            s_star_via_residue(0.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0, 5.0, 6.0, 7.99])
    def test_refuses_below_its_window(self, lam):
        # the neglected-term bound stops covering the error below the
        # window: at lambda = 0.5 the value is off by 1.3 against 0.045
        with pytest.raises(RangeError):
            s_star_via_residue(lam)

    def test_window_starts_at_its_minimum(self):
        lo = WINDOWS["residue"].lo
        r = s_star_via_residue(lo)
        assert abs(r.value - ov.S_STAR[lo]) <= 1e-7

    def test_alternate_strip_agrees(self, monkeypatch):
        # the saddle integral over the narrower strip of height a = 1.97
        # moves the value by 0.16-0.36 of the neglected-term bound
        bases = {lam: s_star_via_residue(lam) for lam in (12.0, 14.0, 20.0)}
        monkeypatch.setattr(residue, "STRIP_B", strip_width_b(1.97))
        for lam, base in bases.items():
            a_plus, a_minus, *_ = _scaled_saddle(lam)
            other = (a_plus + a_minus).real
            assert abs(base.scaled_value - other) <= base.scaled_error, lam


class TestResidueResult:
    """The residue route's outcome: formed from its scaled pair."""

    def test_is_an_eval_outcome_at_true_size(self):
        lam = 30.0
        r = s_star_via_residue(lam)
        scale = core._decay(lam)
        assert type(r) is EvalOutcome
        assert r.method == "residue"
        assert r.value == -r.scaled_value * scale
        assert r.error_estimate == r.scaled_error * scale
        # the aliases perfbench's worker reads
        assert r.unscaled_value == r.value
        assert r.neglected_bound == r.scaled_error

    @pytest.mark.parametrize("lam", [8.0, 30.0, 100.0, 300.0, 500.0])
    def test_true_size_factor_is_good_to_the_last_bits(self, lam):
        # math.exp(-lam * SQRT_HALF_PI) is off by ~lam * eps relative
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath.exp(-lam * mpmath.sqrt(mpmath.pi / 2))
            assert abs(core._decay(lam) - exact) <= 2 * _EPS * exact

    def test_rebuilt_like_any_outcome(self):
        r = s_star_via_residue(12.0)
        again = type(r)(r.value, r.error_estimate, r.work, r.method)
        assert (again.value, again.method) == (r.value, "residue")
        moved = dataclasses.replace(r, value=2.0 * r.value)
        assert moved.value == 2.0 * r.value
        assert moved.scaled_value == r.scaled_value

    @pytest.mark.parametrize("fn", [
        pytest.param(_saddle_lhs_numeric, id="saddle_lhs_numeric"),
        residue_integral_i2, s_star_via_residue])
    @pytest.mark.parametrize("lam", [3e5, 1e40, 2e154])
    def test_huge_lambda_refused_before_placing_panels(self, fn, lam):
        # the saddle panels narrow like lambda^(-1/2); past the panel
        # budget the helpers refuse instead of stepping for ever, and the
        # route, whose window ends before that budget, refuses by its window
        error = RangeError if fn is s_star_via_residue else WorkLimitError
        with pytest.raises(error):
            fn(lam)

    def test_largest_admitted_lambda(self):
        # the edge of the route's window and of cross_validate's, which
        # must stay inside the saddle panel budget
        hi = WINDOWS["residue"].hi
        assert hi == WINDOWS["residue"].compare_hi
        assert len(residue._saddle_edges(hi)) - 1 <= hankel.MAX_PANELS
        r = s_star_via_residue(hi)
        assert math.isfinite(r.scaled_value)


class TestTolerance:
    """The route takes no tolerance; ``evaluate`` judges its result."""

    def test_unmet_tolerance_refused_with_partial(self):
        with pytest.raises(WorkLimitError) as ei:
            harness.evaluate("residue", 30.0, ToleranceSpec(1e-30, 1e-30))
        partial = ei.value.partial
        assert partial.method == "residue"
        assert partial == s_star_via_residue(30.0)
        assert partial.error_estimate > 1e-30

    def test_met_tolerance_returns_the_same_result(self):
        loose = ToleranceSpec(abs_tol=1e-20, rel_tol=1e-3)
        assert (harness.evaluate("residue", 30.0, loose)
                == s_star_via_residue(30.0))


class TestKappaCalibration:
    def test_value_in_plausible_band(self):
        kappa = calibrated_kappa()
        assert 0.01 <= kappa <= 1.0

    def test_checked_in_constant_is_the_fit(self):
        # kappa is the worst scaled |hankel - residue| over the model shape
        # e^(-lambda(a1 - sqrt(pi/2))) on lambda in {10, 12, 14, 16}; a
        # change to hankel or the saddle that moves it re-derives KAPPA
        worst = 0.0
        for lam in (10.0, 12.0, 14.0, 16.0):
            href = hankel_s_star(lam).value
            a_plus, a_minus, _, _ = _scaled_saddle(lam)
            scaled_res = (a_plus + a_minus).real
            scaled_diff = abs(math.exp(lam * SQRT_HALF_PI) * href + scaled_res)
            shape = math.exp(-lam * (STRIP_A1 - SQRT_HALF_PI))
            worst = max(worst, scaled_diff / shape)
        assert worst == KAPPA
        assert calibrated_kappa() == KAPPA

    def test_residue_path_runs_no_hankel_evaluation(self, monkeypatch):
        before = (s_star_via_residue(30.0), harness.evaluate("auto", 30.0))

        def refuse(*args, **kwargs):
            raise AssertionError("the residue route ran a Hankel evaluation")

        monkeypatch.setattr(hankel, "hankel_s_star", refuse)
        monkeypatch.setattr(bessel, "j0_zeros", refuse)
        assert (s_star_via_residue(30.0),
                harness.evaluate("auto", 30.0)) == before


def test_hankel_crosscheck_through_the_window():
    # both routes are usable on 10 <= lambda <= 16; the gap is within
    # the combined accounting of the two methods
    for lam in (10.0, 13.0, 16.0):
        h = hankel_s_star(lam)
        r = s_star_via_residue(lam)
        gap = abs(h.value - r.value)
        allowed = h.error_estimate + r.scaled_error * math.exp(-lam * SQRT_HALF_PI)
        assert gap <= allowed, lam


# lambda = 8 + k/4 across the band the residue route serves first, then a
# seeded log-uniform draw up to the saddle's panel budget
_RNG = random.Random(8)
_CONJUGATE_LAMBDAS = {
    "quarter_steps": [8.0 + k / 4.0 for k in range(129)],
    "log_uniform": sorted(
        math.exp(_RNG.uniform(math.log(8.0), math.log(2.5e5)))
        for _ in range(60)),
}


@pytest.mark.parametrize("grid", sorted(_CONJUGATE_LAMBDAS))
def test_branches_are_exact_conjugates(monkeypatch, grid):
    """The -1 branch integral is the conjugate of the +1 one bit for bit,
    with the same refinement, |f| integral and work."""
    seen = []

    def recording(f, edges, order):
        out = panel_quadrature(f, edges, order)
        seen.append(out)
        return out

    monkeypatch.setattr(hankel, "panel_quadrature", recording)
    for lam in _CONJUGATE_LAMBDAS[grid]:
        seen.clear()
        a_plus, a_minus, *_ = _scaled_saddle(lam)
        assert a_minus == a_plus.conjugate(), lam
        (v1, r1, ai1, sums1, w1), (v2, r2, ai2, sums2, w2) = seen
        assert v2 == v1.conjugate(), lam
        assert (r2, ai2, w2) == (r1, ai1, w1), lam
        assert np.array_equal(sums2, sums1.conjugate()), lam

"""Two-dimensional Fourier route and its radially symmetric helpers."""

import math

import numpy as np
import pytest

from altseries.core import DomainError, RangeError, ToleranceSpec, WorkLimitError
from altseries.fourier2d import (
    Fourier2dConfig,
    fourier2d_s_star,
    gaussian_term_identity,
    inner_t,
    radial_transform,
)
from altseries.fourier2d import _DEFAULT_CFG, _cos_edges, _fermi
from altseries.hankel import hankel_s_star, panel_quadrature

import oracle_values as ov


def _inner_t_unreduced(y: float, lam: float,
                       cfg: Fourier2dConfig | None = None) -> complex:
    """T(y, lambda) over the full line without the cosine reduction.

    Exists so the imaginary-part-vanishing property can be tested against
    an implementation that had a chance to get it wrong.
    """
    cfg = cfg or _DEFAULT_CFG
    upper = cfg.x_truncation
    y2 = y * y
    pos = _cos_edges(abs(lam), upper)
    edges = [-e for e in reversed(pos)] + pos[1:]

    def f(x):
        return np.exp(1j * lam * x) * _fermi(x * x + y2)

    value, _, _, _, _ = panel_quadrature(f, edges, 24)
    return complex(value)


def test_config_validation():
    Fourier2dConfig(y_truncation=7.0, x_truncation=6.5)
    with pytest.raises(DomainError):
        Fourier2dConfig(y_truncation=5.0)
    with pytest.raises(DomainError):
        Fourier2dConfig(x_truncation=4.0)


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


@pytest.mark.parametrize("y", [0.0, 0.7, 1.5])
@pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
def test_unreduced_imaginary_part_vanishes(y, lam):
    """Full-line evaluation, no symmetry shortcut: Im must vanish."""
    val = _inner_t_unreduced(y, lam)
    assert abs(val.imag) <= 10.0 * Fourier2dConfig().inner_tol
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
    with pytest.raises(WorkLimitError) as exc:
        fourier2d_s_star(2.0, tol=ToleranceSpec(abs_tol=1e-16, rel_tol=0.0))
    partial = exc.value.partial
    assert partial is not None
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

    def test_slow_decay_cannot_meet_tolerance(self):
        # |f| r is integrable here but the probed tail never gets small,
        # so the honest estimate stays above any sane tolerance
        with pytest.raises(WorkLimitError):
            radial_transform(lambda r: 1.0 / (1.0 + r) ** 3, 1.0)

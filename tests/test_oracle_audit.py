"""Error-estimate audit against an oracle that shares no code with the routes.

The oracle is the defining series S*(lambda) = sum_{n>=1} (-1)^n n^-1
e^(-lambda^2 / (4n)), summed by mpmath's ``nsum`` at 40 digits.  Each
property draws lambda across a route's window and asks that the route's
error estimate bound its true error.  The largest |error| / estimate seen
is printed (``pytest -rP``) and recorded as the test's ``max_tightness``
property.

Past lambda ~ 40, where ``nsum`` no longer resolves S*, the oracle is the
closed pole expansion of ``_pole_expansion``, checked against ``nsum``
where both hold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altseries.fourier2d import LAMBDA_WALL, fourier2d_s_star
from altseries.hankel import hankel_s_star
from altseries.harness import HANKEL_COMPARE_WALL, evaluate
from altseries.residue import RESIDUE_MIN_LAMBDA

mpmath = pytest.importorskip("mpmath")

_AUDIT = settings(max_examples=25, deadline=None, derandomize=True)


def _oracle(lam: float):
    with mpmath.workdps(40):
        t = mpmath.mpf(lam) ** 2 / 4
        return mpmath.nsum(lambda n: (-1) ** int(n) * mpmath.exp(-t / n) / n,
                           [1, mpmath.inf])


def _pole_expansion(lam: float):
    """S*(lambda) summed over the first four pole lines, each expanded to
    34 terms, at 50 digits; enough for lambda >= 25:

        S* = -2 sum_k Im[sqrt(2 pi) e^(i lambda r_k) mu_k^(-1/2)
                         sum_j c_j mu_k^(-j)],

    with r_k = sqrt(i pi (2k + 1)) (principal root), mu_k = i lambda r_k
    and c_j = C(2j, j) Gamma(j + 1/2) / (8^j sqrt(pi)).  Its k = 0, j = 0
    term is the leading asymptotic law.
    """
    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        total = 0
        for k in range(4):
            r = mpmath.sqrt(1j * mpmath.pi * (2 * k + 1))
            mu = 1j * lam * r
            series = mpmath.fsum(
                mpmath.binomial(2 * j, j) * mpmath.gamma(j + 0.5)
                / (8 ** j * mpmath.sqrt(mpmath.pi)) * mu ** -j
                for j in range(34))
            total += mpmath.im(mpmath.sqrt(2 * mpmath.pi)
                               * mpmath.exp(1j * lam * r) * mu ** -0.5
                               * series)
        return -2 * total


def _audit(route, hi, record_property, lo=0.0):
    ratios = []

    @_AUDIT
    @given(lam=st.floats(min_value=lo, max_value=hi))
    def bound_holds(lam):
        out = route(lam)
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(out.value) - _oracle(lam))
        ratio = float(err / out.error_estimate)
        ratios.append(ratio)
        assert ratio <= 1.0, f"lambda={lam!r}: |error| {float(err):.3e} > " \
                             f"estimate {out.error_estimate:.3e}"

    bound_holds()
    record_property("max_tightness", max(ratios))
    print(f"{route.__name__}: largest |error| / estimate {max(ratios):.3g} "
          f"over {len(ratios)} lambdas")
    return ratios


def test_fourier2d_estimate_bounds_the_oracle_error(record_property):
    ratios = _audit(fourier2d_s_star, LAMBDA_WALL, record_property)
    assert len(ratios) >= 25


def test_hankel_estimate_bounds_the_oracle_error(record_property):
    ratios = _audit(hankel_s_star, HANKEL_COMPARE_WALL, record_property)
    assert len(ratios) >= 25


def test_series_estimate_bounds_the_oracle_error(record_property):
    def series(lam):
        return evaluate("series", lam)

    # hankel's comparison window, inside what the oracle resolves
    ratios = _audit(series, HANKEL_COMPARE_WALL, record_property)
    assert len(ratios) >= 25


def test_asym_estimate_bounds_the_oracle_error(record_property):
    def asym(lam):
        return evaluate("asym", lam)

    # 40 is as far as the 40-digit oracle resolves S* ~ e^(-1.25 lambda)
    ratios = _audit(asym, 40.0, record_property, lo=RESIDUE_MIN_LAMBDA)
    assert len(ratios) >= 25


@pytest.mark.parametrize("lam", [25.0, 30.0])
def test_pole_expansion_matches_nsum(lam):
    with mpmath.workdps(40):
        scaled_gap = abs(_pole_expansion(lam) - _oracle(lam)) * mpmath.exp(
            lam * mpmath.sqrt(mpmath.pi / 2))
    assert scaled_gap <= 1e-25


# From lambda ~ 566 the true-size estimates underflowed to 0.0 while the
# values were still nonzero subnormals.  Residue at 100 and 300 holds its
# factor e^(-lambda sqrt(pi/2)) to the bits: rounded the plain way, to
# ~lambda eps relative, it missed the estimate by 1.5x and 1.2x.
@pytest.mark.parametrize("method,lam", [
    *[("residue", lam) for lam in (100.0, 300.0, 566.0, 570.0, 595.0,
                                   1000.0)],
    *[("asym", lam) for lam in (566.0, 570.0, 595.0, 1000.0)],
])
def test_estimate_bounds_the_error_past_underflow(method, lam):
    out = evaluate(method, lam)
    with mpmath.workdps(50):
        err = abs(mpmath.mpf(out.value) - _pole_expansion(lam))
    assert out.error_estimate > 0.0
    assert err <= out.error_estimate


# A known miss, pinned: just above RESIDUE_MIN_LAMBDA, residue's estimate
# rests on kappa, fitted against hankel at lambda in {10, 12, 14, 16} and
# extrapolated below it, and the true error exceeds it by 2.40x, 2.80x and
# 1.53x at lambda = 8, 8.5 and 9.  Strict, so the run fails as soon as the
# estimate holds here and this mark must go.
@pytest.mark.xfail(strict=True, reason="kappa, fitted at lambda >= 10, "
                   "underestimates residue's error at 8 <= lambda <= 9")
@pytest.mark.parametrize("lam", [8.0, 8.5, 9.0])
def test_residue_estimate_in_the_kappa_band(lam):
    out = evaluate("residue", lam)
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(out.value) - _oracle(lam))
    assert err <= out.error_estimate

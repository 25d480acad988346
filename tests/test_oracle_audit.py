"""Error-estimate audit against oracles that share no code with the routes.

The first oracle is the defining series S*(lambda) = sum_{n>=1} (-1)^n n^-1
e^(-lambda^2 / (4n)), summed by mpmath's ``nsum`` at 40 digits.  Each
property draws lambda across a route's window and asks that the route's
error estimate bound its true error.  The largest |error| / estimate seen
is printed (``pytest -rP``) and recorded as the test's ``max_tightness``
property.

Past lambda ~ 40, where ``nsum`` no longer resolves S*, the oracle is the
sum of K_0 values of ``_k0_sum``, checked against ``nsum`` where both hold.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altseries.core import WINDOWS
from altseries.fourier2d import fourier2d_s_star
from altseries.hankel import hankel_s_star
from altseries.harness import evaluate

mpmath = pytest.importorskip("mpmath")

_AUDIT = settings(max_examples=25, deadline=None, derandomize=True)


def _oracle(lam: float):
    with mpmath.workdps(40):
        t = mpmath.mpf(lam) ** 2 / 4
        return mpmath.nsum(lambda n: (-1) ** int(n) * mpmath.exp(-t / n) / n,
                           [1, mpmath.inf])


def _k0_sum(lam: float):
    """S*(lambda) = 4 sum_{k>=0} Re K_0(lambda r_k), r_k = sqrt(i pi (2k+1))
    (principal root, arg r_k = pi/4), at 40 digits.

    Derivation, by Mellin-Barnes.  With e^(-x) = (1/2 pi i) int_(c) Gamma(s)
    x^(-s) ds and sum_n (-1)^n n^(s-1) = -eta(1-s),

        S(t) = -(1/2 pi i) int_(c) Gamma(s) t^(-s) eta(1-s) ds.

    The functional equation of zeta gives Gamma(s) eta(1-s) =
    -2 cos(pi s/2) Gamma(s)^2 pi^(-s) sum_{n odd} n^(-s).  Each odd
    n = 2k+1, with each half of the cosine, is (1/2 pi i) int Gamma(s)^2
    x^(-s) ds = 2 K_0(2 sqrt(x)) at x = pi (2k+1) t e^(-+i pi/2), and
    2 sqrt(t) = lambda.  (The same identity follows from partial fractions
    of 1/(1 + e^(r^2)) over its poles and the Hankel pair int_0^inf
    J_0(rho r) r dr / (r^2 + a^2) = K_0(a rho), Re a > 0.)

    Poles are added until the whole tail is below 1e-30 of the scale
    e^(-c), c = lambda sqrt(pi/2).  |K_0(z)| <= sqrt(pi/(2|z|)) e^(-Re z),
    so with s = sqrt(2k+1) the k-th term is at most f(s) = 4 (sqrt(pi) /
    (2 lambda))^(1/2) s^(-1/2) e^(-c s), decreasing in k; with dk = s ds
    and s^(1/2) <= s_K^(1/2) e^((s - s_K)/(2 s_K)) for s >= s_K,

        sum_{k>K} f <= int_K^inf f dk <= f(s_K) s_K / (c - 1/(2 s_K)).

    mpmath's exponent range is unbounded, so nothing underflows at any
    lambda.
    """
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        c = lam * mpmath.sqrt(mpmath.pi / 2)
        scale = mpmath.exp(-c)
        total, k = 0, 0
        while True:
            r = mpmath.sqrt(1j * mpmath.pi * (2 * k + 1))
            total += 4 * mpmath.re(mpmath.besselk(0, lam * r))
            s_k = mpmath.sqrt(2 * k + 1)
            f_k = (4 * mpmath.sqrt(mpmath.sqrt(mpmath.pi) / (2 * lam))
                   / mpmath.sqrt(s_k) * mpmath.exp(-c * s_k))
            if f_k * s_k / (c - 1 / (2 * s_k)) <= mpmath.mpf("1e-30") * scale:
                return total
            k += 1


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
    ratios = _audit(fourier2d_s_star, WINDOWS["fourier2d"].hi,
                    record_property)
    assert len(ratios) >= 25


def test_hankel_estimate_bounds_the_oracle_error(record_property):
    ratios = _audit(hankel_s_star, WINDOWS["hankel"].compare_hi,
                    record_property)
    assert len(ratios) >= 25


def test_series_estimate_bounds_the_oracle_error(record_property):
    def series(lam):
        return evaluate("series", lam)

    # hankel's comparison window, inside what the oracle resolves
    ratios = _audit(series, WINDOWS["hankel"].compare_hi, record_property)
    assert len(ratios) >= 25


def test_asym_estimate_bounds_the_oracle_error(record_property):
    def asym(lam):
        return evaluate("asym", lam)

    # 40 is as far as the 40-digit oracle resolves S* ~ e^(-1.25 lambda)
    ratios = _audit(asym, 40.0, record_property,
                    lo=WINDOWS["asymptotic"].lo)
    assert len(ratios) >= 25


@pytest.mark.parametrize("lam", [10.0, 20.0])
def test_k0_sum_matches_nsum(lam):
    with mpmath.workdps(40):
        scaled_gap = abs(_k0_sum(lam) - _oracle(lam)) * mpmath.exp(
            lam * mpmath.sqrt(mpmath.pi / 2))
    assert scaled_gap <= 1e-30


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
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(out.value) - _k0_sum(lam))
    assert out.error_estimate > 0.0
    assert err <= out.error_estimate


# A known miss, pinned: just above its window's edge, residue's estimate
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


# Residue over tail's window, at true size: 150 log-uniform draws in
# [25, 400].  Three of them are known misses, by 1.30x at lambda = 169.42,
# 1.21x at 158.75 and 1.12x at 151.20; the set of misses must stay exactly
# these three, so a new miss fails and so does a mended one.
def test_residue_misses_in_the_tail_window_are_the_known_three():
    rng = random.Random(424242)
    draws = [math.exp(rng.uniform(math.log(25.0), math.log(400.0)))
             for _ in range(150)]
    misses = set()
    for lam in draws:
        out = evaluate("residue", lam)
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(out.value) - _k0_sum(lam))
        if err > out.error_estimate:
            misses.add(round(lam, 2))
    assert misses == {169.42, 158.75, 151.20}


# Residue over its window past lambda = 60, scaled: 60 log-uniform draws in
# [60, 2.5e5], where the true-size value underflows but scaled_value and
# neglected_bound do not.  Two of them are known misses, by 1.56x at
# lambda = 6200.1 and 1.13x at 1896.18 (likely because the phase
# lambda x*(y) is rounded at every saddle node and the roundoff floor does
# not grow with it); the set of misses must stay exactly these two, so a
# new miss fails and so does a mended one.
def test_residue_scaled_misses_past_sixty_are_the_known_two():
    rng = random.Random(1)
    draws = [math.exp(rng.uniform(math.log(60.0), math.log(2.5e5)))
             for _ in range(60)]
    misses = set()
    for lam in draws:
        out = evaluate("residue", lam)
        with mpmath.workdps(40):
            exact = -mpmath.exp(lam * mpmath.sqrt(mpmath.pi / 2)) * _k0_sum(lam)
            err = abs(mpmath.mpf(out.scaled_value) - exact)
        if err > out.neglected_bound:
            misses.add(round(lam, 2))
    assert misses == {6200.1, 1896.18}

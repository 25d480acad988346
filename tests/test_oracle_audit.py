"""Error-estimate audit against an oracle that shares no code with the routes.

The oracle is the defining series S*(lambda) = sum_{n>=1} (-1)^n n^-1
e^(-lambda^2 / (4n)), summed by mpmath's ``nsum`` at 40 digits.  Each
property draws lambda across a route's window and asks that the route's
error estimate bound its true error.  The largest |error| / estimate seen
is printed (``pytest -rP``) and recorded as the test's ``max_tightness``
property.
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


def test_asym_estimate_bounds_the_oracle_error(record_property):
    def asym(lam):
        return evaluate("asym", lam)

    # 40 is as far as the 40-digit oracle resolves S* ~ e^(-1.25 lambda)
    ratios = _audit(asym, 40.0, record_property, lo=RESIDUE_MIN_LAMBDA)
    assert len(ratios) >= 25

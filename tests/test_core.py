"""Tests for the shared value types and the t <-> lambda maps."""

import math

import pytest

from altseries.core import (
    METHOD_NAMES,
    DomainError,
    EvalOutcome,
    ToleranceSpec,
    WorkLimitError,
    lambda_of_t,
    t_of_lambda,
)

EPS = 2.0 ** -52


def test_lambda_of_t_basics():
    assert lambda_of_t(0.0) == 0.0
    assert lambda_of_t(1.0) == 2.0
    assert lambda_of_t(25.0) == 10.0
    assert t_of_lambda(10.0) == 25.0


@pytest.mark.parametrize("t", [0.0, 1e-8, 0.3, 1.0, 7.5, 42.0, 99.99, 100.0])
def test_roundtrip_within_4eps(t):
    back = t_of_lambda(lambda_of_t(t))
    assert abs(back - t) <= 4.0 * EPS * t


def test_roundtrip_dense_grid():
    # the named invariant: |t_of_lambda(lambda_of_t(t)) - t| <= 4 eps t on [0, 100]
    for k in range(1001):
        t = 0.1 * k
        back = t_of_lambda(lambda_of_t(t))
        assert abs(back - t) <= 4.0 * EPS * t, t


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan])
def test_maps_reject_bad_input(bad):
    with pytest.raises(DomainError):
        lambda_of_t(bad)
    with pytest.raises(DomainError):
        t_of_lambda(bad)


class TestToleranceSpec:
    def test_defaults_are_sane(self):
        tol = ToleranceSpec()
        assert tol.abs_tol > 0 and tol.rel_tol > 0 and tol.max_work > 0

    def test_met_by_absolute(self):
        tol = ToleranceSpec(abs_tol=1e-10, rel_tol=0.0)
        assert tol.met_by(1e-11, scale=1.0)
        assert not tol.met_by(1e-9, scale=1.0)

    def test_met_by_relative(self):
        tol = ToleranceSpec(abs_tol=0.0, rel_tol=1e-6)
        assert tol.met_by(1e-9, scale=1e-2)
        assert not tol.met_by(1e-9, scale=1e-4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(abs_tol=-1e-12),
            dict(rel_tol=-1.0),
            dict(abs_tol=0.0, rel_tol=0.0),
            dict(max_work=0),
            dict(max_work=-5),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(DomainError):
            ToleranceSpec(**kwargs)


class TestEvalOutcome:
    def test_fields(self):
        out = EvalOutcome(value=1.5, error_estimate=1e-14, work=10, method="series")
        assert out.value == 1.5

    def test_all_method_names_accepted(self):
        for name in METHOD_NAMES:
            EvalOutcome(0.0, 0.0, 0, name)

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            EvalOutcome(0.0, 0.0, 0, "quadrature")

    def test_rejects_negative_error(self):
        with pytest.raises(DomainError):
            EvalOutcome(0.0, -1e-16, 0, "series")

    def test_frozen(self):
        out = EvalOutcome(1.0, 0.0, 1, "hankel")
        with pytest.raises(Exception):
            out.value = 2.0


def test_work_limit_error_carries_partial():
    partial = EvalOutcome(0.25, 1e-3, 99, "fourier2d")
    err = WorkLimitError("budget exhausted", partial=partial)
    assert err.partial is partial
    assert isinstance(err, RuntimeError)


def test_error_hierarchy():
    # both argument errors are ValueErrors so callers can catch them together
    from altseries.core import RangeError

    assert issubclass(DomainError, ValueError)
    assert issubclass(RangeError, ValueError)
    assert not issubclass(WorkLimitError, ValueError)

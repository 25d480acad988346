"""Cross-validation harness, sweep tables, and the emitted file formats."""

import dataclasses
import json
import math

import pytest

from altseries.asymptotic import SQRT_HALF_PI, asym_s_star
from altseries import acceptance, harness
from altseries.core import (AUTO_SWITCH, WINDOWS, DomainError, RangeError,
                            ToleranceSpec, WorkLimitError, lambda_of_t)
from altseries.series import sum_alternating_s
from altseries.harness import (
    CANCELLATION_FLAG,
    SweepRow,
    SweepTable,
    VerifyCheck,
    VerifyReport,
    cross_validate,
    evaluate,
    figure_data,
    render_csv,
    sweep_data,
    sweep_row_json,
    write_csv,
    write_svg,
)

import oracle_values as ov

HANKEL = WINDOWS["hankel"]
FOURIER_HI = WINDOWS["fourier2d"].hi
RESIDUE_LO = WINDOWS["residue"].lo


def parse_csv(text: str) -> list:
    """Inverse of render_csv, keeping the decimal strings verbatim."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestEvaluate:
    @pytest.mark.parametrize("method,expected_label", [
        ("series", "series"),
        ("hankel", "hankel"),
        ("fourier2d", "fourier2d"),
        ("asym", "asymptotic"),
    ])
    def test_dispatch(self, method, expected_label):
        out = evaluate(method, 10.0)
        assert out.method == expected_label
        assert abs(out.value - ov.S_STAR[10.0]) <= out.error_estimate

    @pytest.mark.parametrize("lam", [0.5, 0.8, 4.0, 7.99])
    def test_asym_refuses_below_the_residue_window(self, lam):
        # its error envelope stops bounding the error there: |error| /
        # estimate peaks at 1.64 near lambda = 0.8
        with pytest.raises(RangeError):
            evaluate("asym", lam)

    def test_residue_dispatch(self):
        out = evaluate("residue", 12.0)
        assert out.method == "residue"
        assert abs(out.value - ov.S_STAR[12.0]) <= out.error_estimate

    def test_auto_switches_at_the_wall(self):
        below = evaluate("auto", AUTO_SWITCH)
        above = evaluate("auto", AUTO_SWITCH + 0.5)
        assert below.method == "hankel"
        assert above.method == "residue"

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            evaluate("montecarlo", 1.0)

    def test_fourier_past_wall_raises(self):
        with pytest.raises(RangeError):
            evaluate("fourier2d", FOURIER_HI + 1.0)


class TestCrossValidate:
    def test_small_t_pairs_all_pass(self):
        report = cross_validate([1.0, 2.0])
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert "t=1:series-vs-hankel" in " ".join(names) or \
            any("series" in n and "hankel" in n for n in names)

    def test_t_zero_anchor(self):
        report = cross_validate([0.0])
        assert report.all_passed
        # three methods admit t = 0, so three pairwise checks
        assert len(report.checks) == 3

    def test_large_t_flags(self):
        # at t = 150 the truncation bound alone is 6e-4 of |S(t)| (ratio
        # 2.7e12), and hankel is past its comparison wall
        report = cross_validate([150.0])
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert "t=150:series-precision-limited" in names
        assert any("hankel-out-of-range" in n for n in names)
        assert any("residue-vs-asym-scaled" in n for n in names)

    def test_series_below_its_truncation_bound_is_flagged(self):
        # S(1e4) = 3.5e-110, while the series returns 4.5e-203 +- 2e-17:
        # no digit is left, and the roundoff ratio alone reads about 1
        report = cross_validate([1e4])
        flag = next(c for c in report.checks
                    if c.name == "t=10000:series-precision-limited")
        assert flag.measured > 1e200
        assert flag.threshold == CANCELLATION_FLAG

    def test_crossval_lattice_is_not_flagged(self):
        # the benchmark's crossval lambdas k/4, 1 <= lambda <= 12, stay far
        # below the flag (peak ratio 3.4e6)
        peak = max(sum_alternating_s((k / 8.0) ** 2).cancellation
                   for k in range(4, 49))
        assert 1e6 < peak < 1e7

    def test_flag_thresholds_recorded(self, monkeypatch):
        # a series outcome whose cancellation reaches the flag, as near a
        # zero of S(t), is flagged but still compared
        original = harness.sum_alternating_s

        def cancelling(t):
            return dataclasses.replace(original(t),
                                       cancellation=4.0 * CANCELLATION_FLAG)

        monkeypatch.setattr(harness, "sum_alternating_s", cancelling)
        report = cross_validate([150.0])
        assert report.all_passed
        flag = next(c for c in report.checks
                    if "series-precision-limited" in c.name)
        assert flag.measured >= CANCELLATION_FLAG
        assert flag.threshold == CANCELLATION_FLAG


class TestFigureData:
    def test_grid_and_scaled_columns(self):
        table = figure_data(5.0, 25.0, 21)
        lams = [r.lam for r in table.rows]
        assert len(lams) == 21
        assert lams[0] == 5.0 and lams[-1] == 25.0
        assert all(b > a for a, b in zip(lams, lams[1:]))
        for r in table.rows:
            assert r.scaled_asym == asym_s_star(r.lam).scaled_value
            assert "hankel" in r.methods

    def test_scaled_numeric_sign_convention(self):
        table = figure_data(10.0, 12.0, 2)
        row = table.rows[0]
        value, _ = row.methods["hankel"]
        expected = -math.exp(10.0 * SQRT_HALF_PI) * value
        assert row.scaled_numeric == pytest.approx(expected, rel=1e-12)

    def test_residue_takes_over_beyond_switch(self):
        table = figure_data(24.0, 28.0, 3)
        assert "hankel" in table.rows[0].methods
        assert "residue" in table.rows[-1].methods

    def test_curves_agree_at_large_lambda(self):
        table = figure_data(15.0, 40.0, 26)
        sup = max(abs(r.scaled_numeric - r.scaled_asym) for r in table.rows)
        assert sup <= 0.01

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            figure_data(0.0, 10.0, 5)
        with pytest.raises(DomainError):
            figure_data(5.0, 4.0, 5)
        with pytest.raises(DomainError):
            figure_data(1.0, 2.0, 1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_non_integer_point_count_refused(self, n):
        with pytest.raises(DomainError, match="need an integer n"):
            figure_data(5.0, 6.0, n)
        with pytest.raises(DomainError, match="need an integer n"):
            sweep_data(5.0, 6.0, n)


class TestSweepData:
    def test_method_admission_windows(self):
        table = sweep_data(1.0, 13.0, 5)  # lambda = 1, 4, 7, 10, 13
        by_lam = {r.lam: r for r in table.rows}
        for lam in (1.0, 4.0, 7.0):
            assert set(by_lam[lam].methods) == {"series", "hankel",
                                                "fourier2d"}
        assert set(by_lam[10.0].methods) == {"series", "hankel", "fourier2d",
                                             "residue", "asymptotic"}
        assert "fourier2d" not in by_lam[13.0].methods
        assert "residue" in by_lam[13.0].methods

    def test_hankel_dropped_past_compare_window(self):
        table = sweep_data(27.0, 30.0, 2)
        assert "hankel" in table.rows[0].methods
        assert "hankel" not in table.rows[1].methods


class TestErrorScalingStudy:
    """Check 6's envelope study, which lives in ``acceptance``."""

    def test_frozen_envelope_points(self):
        # the reference errors are measured against the true limit; the
        # study measures against its own numeric route, which carries an
        # exponentially small defect of its own near the window's low end
        grid = sorted(ov.ENVELOPE)
        rows = acceptance._error_scaling_study(grid)
        for row, lam in zip(rows, grid):
            err_ref, ratio_ref = ov.ENVELOPE[lam]
            assert row["scaled_error"] == pytest.approx(err_ref, rel=2e-3)
            assert row["envelope_ratio"] == pytest.approx(ratio_ref, rel=2e-3)

    def test_ratio_is_error_times_lambda_cubed_halves(self):
        row = acceptance._error_scaling_study([20.0])[0]
        assert row["envelope_ratio"] == pytest.approx(
            row["scaled_error"] * 20.0 ** 1.5, rel=1e-15)

    def test_rejects_lambda_below_window(self):
        # the residue route's own refusal
        with pytest.raises(RangeError):
            acceptance._error_scaling_study([10.0, 7.9])

    def test_verify_runs_the_study_once(self, monkeypatch):
        # check 6 is the study's one caller
        grids = []
        study = acceptance._error_scaling_study

        def spy(grid):
            grids.append(tuple(grid))
            return study(grid)

        monkeypatch.setattr(acceptance, "_error_scaling_study", spy)
        acceptance.run_acceptance(quick=True)
        assert grids == [(15.0, 20.0, 25.0, 30.0, 35.0, 40.0)]


class TestTableTypes:
    def test_rows_must_ascend(self):
        r1 = SweepRow(1.0, {}, 0.0, 0.0)
        r2 = SweepRow(2.0, {}, 0.0, 0.0)
        SweepTable([r1, r2])
        with pytest.raises(DomainError):
            SweepTable([r2, r1])
        with pytest.raises(DomainError):
            SweepTable([r1, r1])

    def test_verify_check_status(self):
        ok = VerifyCheck("x", True, 0.0, 1.0)
        bad = VerifyCheck("x", False, 2.0, 1.0)
        assert ok.status == "pass" and bad.status == "fail"
        assert VerifyReport([ok, bad]).all_passed is False
        assert VerifyReport([ok, ok]).all_passed is True


class TestCsvFormat:
    def test_roundtrip_identical_strings(self):
        table = sweep_data(1.0, 9.0, 3)
        text = render_csv(table)
        parsed = parse_csv(text)
        assert len(parsed) == 3
        # re-render from the parsed decimal strings: every cell must
        # round-trip bit-identically through repr(float(...))
        for rec in parsed:
            for key, cell in rec.items():
                if cell:
                    assert repr(float(cell)) == cell, (key, cell)

    def test_blank_cells_for_missing_methods(self):
        table = sweep_data(11.0, 14.0, 2)  # fourier2d present at 11, absent at 14
        text = render_csv(table)
        lines = text.split("\n")
        header = lines[0].split(",")
        i = header.index("fourier2d_value")
        assert lines[1].split(",")[i] != ""
        assert lines[2].split(",")[i] == ""

    def test_header_and_endings(self):
        table = figure_data(5.0, 6.0, 2)
        text = render_csv(table)
        assert text.startswith("lambda,")
        assert "\r" not in text
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_write_csv_bytes(self, tmp_path):
        table = figure_data(5.0, 6.0, 2)
        p = tmp_path / "out.csv"
        write_csv(table, p)
        data = p.read_bytes()
        assert b"\r" not in data
        assert data.decode("ascii") == render_csv(table)

    def test_determinism(self):
        a = render_csv(sweep_data(2.0, 10.0, 4))
        b = render_csv(sweep_data(2.0, 10.0, 4))
        assert a == b


class TestJsonFormat:
    def test_schema_and_string_values(self):
        table = sweep_data(9.0, 10.0, 2)
        blob = sweep_row_json(table.rows[1])
        obj = json.loads(blob)
        assert set(obj) == {"lambda", "methods", "scaled"}
        assert obj["lambda"] == repr(10.0)
        for m, rec in obj["methods"].items():
            assert set(rec) == {"value", "error_estimate"}
            float(rec["value"])  # decimal strings, parseable
            float(rec["error_estimate"])
        assert float(obj["scaled"]["numeric"]) == pytest.approx(
            float(obj["scaled"]["asym"]), abs=0.5)

    def test_methods_sorted(self):
        table = sweep_data(9.0, 10.0, 2)
        obj = json.loads(sweep_row_json(table.rows[0]))
        names = list(obj["methods"])
        assert names == sorted(names)


class TestSvg:
    def test_two_polylines_and_frame(self, tmp_path):
        table = figure_data(5.0, 25.0, 30)
        p = tmp_path / "fig.svg"
        write_svg(table, p)
        text = p.read_text()
        assert text.startswith("<svg ")
        assert text.count("<polyline") == 2
        assert 'stroke="red"' in text and 'stroke="black"' in text
        assert text.rstrip().endswith("</svg>")

    def test_svg_deterministic(self, tmp_path):
        table = figure_data(5.0, 15.0, 11)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg(table, p1)
        write_svg(table, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("route", list(WINDOWS))
def test_walls_are_consistent_with_module_behavior(route):
    # the table must mirror what the routes actually accept: every finite
    # edge above 0 answers, and the next double outside the window where
    # the route answers is refused
    w = WINDOWS[route]
    assert w.lo <= w.compare_hi <= w.sweep_hi <= w.hi
    for edge in sorted(set(w)):
        if 0.0 < edge < math.inf:
            evaluate(route, edge)
    for edge, outward in ((w.lo, -math.inf), (w.hi, math.inf)):
        if 0.0 < edge < math.inf:
            with pytest.raises(RangeError):
                evaluate(route, math.nextafter(edge, outward))


def test_auto_switches_where_both_routes_run():
    # hankel is no longer compared there, but is still tabulated
    assert HANKEL.compare_hi < AUTO_SWITCH <= HANKEL.sweep_hi
    assert RESIDUE_LO < AUTO_SWITCH


def _compared_routes(report):
    """Routes named in the pairwise checks of a one-point report."""
    routes = set()
    for c in report.checks:
        pair = c.name.split(":", 1)[1]
        if "-vs-" in pair and not pair.endswith("-scaled"):
            routes.update(pair.split("-vs-"))
    return routes


@pytest.mark.parametrize("lam,expected", [
    (HANKEL.compare_hi, {"series", "hankel", "residue", "asymptotic"}),
    (HANKEL.compare_hi + 0.01, {"series", "residue", "asymptotic"}),
    (FOURIER_HI, {"series", "hankel", "fourier2d", "residue", "asymptotic"}),
    (FOURIER_HI + 0.01, {"series", "hankel", "residue", "asymptotic"}),
    (RESIDUE_LO - 0.01, {"series", "hankel", "fourier2d"}),
    (RESIDUE_LO, {"series", "hankel", "fourier2d", "residue",
                  "asymptotic"}),
])
def test_cross_validate_window_edges(lam, expected):
    assert _compared_routes(cross_validate([lam * lam / 4.0])) == expected


def test_cross_validate_skips_residue_past_its_compare_window():
    # lambda = 2.83e5 lies past residue's saddle panel budget, which its
    # compare window stops short of: the route refuses, the report goes on
    with pytest.raises(WorkLimitError):
        evaluate("residue", lambda_of_t(2e10))
    report = cross_validate([2e10])
    assert not any("residue" in c.name for c in report.checks)
    pairs = {c.name: c.passed for c in report.checks if "-vs-" in c.name}
    assert pairs == {"t=2e+10:asymptotic-vs-series": True}


@pytest.mark.parametrize("lam,route", [
    (AUTO_SWITCH, "hankel"),
    (AUTO_SWITCH + 0.01, "residue"),
])
def test_auto_and_figure_window_edges(lam, route):
    assert evaluate("auto", lam).method == route
    assert list(figure_data(lam - 1.0, lam, 2).rows[-1].methods) == [route]


def test_sweep_window_edges():
    below, above = sweep_data(HANKEL.sweep_hi, HANKEL.sweep_hi + 0.01,
                              2).rows
    assert set(below.methods) == {"series", "hankel", "residue", "asymptotic"}
    assert set(above.methods) == {"series", "residue", "asymptotic"}


def test_residue_route_runs_once_per_point(monkeypatch):
    calls = []
    original = harness.s_star_via_residue

    def counted(lam, *args, **kwargs):
        calls.append(lam)
        return original(lam, *args, **kwargs)

    monkeypatch.setattr(harness, "s_star_via_residue", counted)
    cross_validate([16.0, 25.0])
    assert calls == [8.0, 10.0]
    calls.clear()
    sweep_data(26.0, 30.0, 3)
    assert calls == [26.0, 28.0, 30.0]


def test_cross_validate_passes_t_to_the_series(monkeypatch):
    seen = []
    original = harness.sum_alternating_s

    def recorded(t, *args, **kwargs):
        seen.append(t)
        return original(t, *args, **kwargs)

    monkeypatch.setattr(harness, "sum_alternating_s", recorded)
    cross_validate([60.0])
    assert seen == [60.0]  # (2 sqrt(60))^2 / 4 != 60 in doubles


def test_cross_validate_runs_every_route_through_evaluate(monkeypatch):
    seen = []
    original = harness.evaluate

    def recorded(method, lam, *args, **kwargs):
        seen.append(method)
        return original(method, lam, *args, **kwargs)

    monkeypatch.setattr(harness, "evaluate", recorded)
    cross_validate([16.0])
    assert seen == ["series", "hankel", "fourier2d", "residue", "asymptotic"]


@pytest.mark.parametrize("t", [0.0, 1.0, 16.0])
def test_pair_threshold_is_summed_estimates_or_the_floor(t):
    lam = 2.0 * math.sqrt(t)
    pairs = [c for c in cross_validate([t]).checks
             if "-vs-" in c.name and not c.name.endswith("-scaled")]
    assert pairs
    for c in pairs:
        na, nb = c.name.split(":", 1)[1].split("-vs-")
        est = sum(evaluate(name, lam, t=t).error_estimate for name in (na, nb))
        assert c.threshold == max(harness.PAIR_ABS_TOL, est), c.name


@pytest.mark.parametrize("build", [figure_data, sweep_data])
@pytest.mark.parametrize("lo,hi,n", [(1.0, math.nextafter(1.0, 2.0), 3),
                                     (5.0, 5.0 + 1e-14, 200)])
def test_grid_finer_than_doubles_refused_before_any_route_runs(
        monkeypatch, build, lo, hi, n):
    ran = []
    monkeypatch.setattr(harness, "evaluate", lambda *a, **k: ran.append(a))
    with pytest.raises(DomainError, match="do not ascend strictly"):
        build(lo, hi, n)
    assert ran == []


@pytest.mark.parametrize("points", [[1.0, -1.0], [1.0, math.nan],
                                    [1.0, math.inf]],
                         ids=["negative", "nan", "inf"])
def test_cross_validate_refuses_a_bad_t_before_any_route_runs(
        monkeypatch, points):
    ran = []
    monkeypatch.setattr(harness, "evaluate", lambda *a, **k: ran.append(a))
    with pytest.raises(DomainError):
        cross_validate(points)
    assert ran == []


@pytest.mark.parametrize("method,lam", [
    ("series", 10.0), ("hankel", 10.0), ("fourier2d", 10.0),
    ("residue", 30.0), ("asym", 30.0),
], ids=["series", "hankel", "fourier2d", "residue", "asym"])
def test_evaluate_refuses_unmet_tolerance(method, lam):
    """evaluate is the one place a tolerance is judged: on every route a
    missed target is refused with the route's outcome as partial."""
    tol = ToleranceSpec(abs_tol=1e-30, rel_tol=1e-30)
    with pytest.raises(WorkLimitError,
                       match="misses the requested tolerance") as ei:
        evaluate(method, lam, tol)
    assert ei.value.partial == evaluate(method, lam)


def test_asymptotic_route_answers_to_both_names():
    assert evaluate("asym", 9.0) == evaluate("asymptotic", 9.0)


_LOOSE = dict(abs_tol=1e-6, rel_tol=0.0)


@pytest.mark.parametrize("method", ["series", "hankel", "fourier2d",
                                    "residue"])
def test_evaluate_refuses_a_budget_below_the_work_spent(method):
    work = evaluate(method, 10.0, ToleranceSpec(**_LOOSE)).work
    with pytest.raises(WorkLimitError):
        evaluate(method, 10.0, ToleranceSpec(**_LOOSE, max_work=work - 1))


@pytest.mark.parametrize("method", ["series", "hankel", "fourier2d",
                                    "residue", "asym"])
def test_evaluate_accepts_a_budget_equal_to_the_work_spent(method):
    work = evaluate(method, 10.0, ToleranceSpec(**_LOOSE)).work
    at_limit = evaluate(method, 10.0, ToleranceSpec(**_LOOSE, max_work=work))
    assert at_limit.work == work


@pytest.mark.parametrize("method", ["hankel", "fourier2d", "residue"])
def test_evaluate_refuses_work_past_a_small_budget(method):
    # these routes do not read max_work themselves; evaluate checks it
    with pytest.raises(WorkLimitError, match="max_work 100") as ei:
        evaluate(method, 10.0, ToleranceSpec(**_LOOSE, max_work=100))
    partial = ei.value.partial
    assert partial.work > 100
    assert partial.value == evaluate(method, 10.0).value


def test_fourier2d_work_boundary_counts_each_transform_once():
    # 24 inner quadratures, not the 48 of running each +-y pair twice
    tol = ToleranceSpec(**_LOOSE, max_work=222_000)
    assert evaluate("fourier2d", 10.0, tol).work == 222_000
    with pytest.raises(WorkLimitError):
        evaluate("fourier2d", 10.0, ToleranceSpec(**_LOOSE, max_work=221_999))

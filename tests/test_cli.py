"""End-to-end runs of the command-line interface, in process."""

import csv
import io
import json
import sys
import time

import pytest

from altseries import harness
from altseries.asymptotic import asym_s_star
from altseries.cli import main
from altseries.core import EvalOutcome

import oracle_values as ov


def run(capsys, *argv):
    """main's exit code, stdout and stderr; argparse's own refusals exit
    through SystemExit, whose code is read the same way."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_plain_output_fields(self, capsys):
        code, out, err = run(capsys, "eval", "--lambda", "4")
        assert code == 0 and err == ""
        lines = dict(ln.split(None, 1) for ln in out.strip().split("\n"))
        assert set(lines) == {"lambda", "t", "method", "value",
                              "error_estimate", "work", "scaled_numeric",
                              "scaled_asym"}
        assert float(lines["value"]) == pytest.approx(ov.S_STAR[4.0],
                                                      abs=1e-12)
        assert lines["method"] == "hankel"
        assert float(lines["t"]) == 4.0

    def test_t_and_lambda_flags_agree(self, capsys):
        _, out_t, _ = run(capsys, "eval", "--t", "25")
        _, out_l, _ = run(capsys, "eval", "--lambda", "10")
        assert out_t == out_l

    def test_series_sums_at_the_given_t(self, capsys):
        # (2 sqrt 2)^2 / 4 rounds to 2.0000000000000004, not to 2
        from altseries.series import sum_alternating_s

        code, out, err = run(capsys, "eval", "--t", "2", "--method",
                             "series")
        assert code == 0 and err == ""
        lines = dict(ln.split(None, 1) for ln in out.strip().split("\n"))
        assert lines["t"] == "2.0"
        assert float(lines["value"]) == sum_alternating_s(2.0).value

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--lambda", "10", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda"] == repr(10.0)
        assert list(obj["methods"]) == ["hankel"]
        val = float(obj["methods"]["hankel"]["value"])
        assert val == pytest.approx(ov.S_STAR[10.0], abs=1e-12)

    def test_explicit_methods(self, capsys):
        for method in ("series", "hankel", "fourier2d"):
            code, out, _ = run(capsys, "eval", "--lambda", "6",
                               "--method", method)
            assert code == 0
            assert f"method          {method}" in out
        code, out, _ = run(capsys, "eval", "--lambda", "10", "--method", "asym")
        assert code == 0
        assert "method          asymptotic" in out

    @pytest.mark.parametrize("lam", ["0.5", "3", "7.99"])
    def test_asym_refused_below_its_window(self, capsys, lam):
        code, out, err = run(capsys, "eval", "--lambda", lam,
                             "--method", "asym")
        assert code == 2 and out == ""
        assert "below the asymptotic route's window" in err

    def test_residue_method_beyond_switch(self, capsys):
        code, out, _ = run(capsys, "eval", "--lambda", "30",
                           "--method", "residue")
        assert code == 0
        assert "method          residue" in out

    def test_residue_refused_below_its_window(self, capsys):
        code, out, err = run(capsys, "eval", "--lambda", "3",
                             "--method", "residue")
        assert code == 2 and out == ""
        assert "below the residue route's window" in err

    def test_auto_picks_residue_at_large_lambda(self, capsys):
        _, out, _ = run(capsys, "eval", "--lambda", "26")
        assert "method          residue" in out

    def test_scaled_overflow_reported_as_inf(self, capsys):
        # e^(lambda c) overflows a double well before lambda = 600, and
        # the series outcome carries no scaled value of its own
        code, out, _ = run(capsys, "eval", "--lambda", "600",
                           "--method", "series")
        assert code == 0
        assert "scaled_numeric  inf" in out

    def test_asym_scaled_numeric_is_the_law_past_overflow(self, capsys):
        # the asymptotic route is the law, so its scaled value is the
        # law's at any lambda, where the factor overflows too
        code, out, _ = run(capsys, "eval", "--lambda", "600",
                           "--method", "asym")
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["scaled_numeric"] == lines["scaled_asym"]
        assert float(lines["scaled_numeric"]) == (
            asym_s_star(600.0).scaled_value)

    def test_bad_method_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["eval", "--lambda", "1", "--method", "montecarlo"])
        assert ei.value.code == 2

    def test_t_and_lambda_mutually_exclusive(self):
        with pytest.raises(SystemExit) as ei:
            main(["eval", "--t", "1", "--lambda", "2"])
        assert ei.value.code == 2
        with pytest.raises(SystemExit) as ei:
            main(["eval"])
        assert ei.value.code == 2

    def test_negative_t_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "eval", "--t", "-1")
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ("--lambda", "inf"),
        ("--t", "inf"),
        ("--lambda", "inf", "--method", "hankel"),
    ])
    def test_infinite_input_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_fourier_past_its_wall(self, capsys):
        code, _, err = run(capsys, "eval", "--lambda", "13",
                           "--method", "fourier2d")
        assert code == 2
        assert "error:" in err

    def test_unreachable_tolerance_reports_partial(self, capsys):
        # past the precision wall the achievable error has a floor, so an
        # absurd tolerance must fail but still hand back the best value found
        code, _, err = run(capsys, "eval", "--lambda", "40",
                           "--method", "hankel", "--abs-tol", "1e-30",
                           "--rel-tol", "1e-30")
        assert code == 2
        assert "partial value:" in err

    @pytest.mark.parametrize("argv", [
        ("--lambda", "30", "--method", "residue", "--abs-tol", "1e-30",
         "--rel-tol", "1e-30"),
        ("--lambda", "30", "--method", "asym", "--abs-tol", "1e-30",
         "--rel-tol", "1e-30"),
    ])
    def test_every_route_meets_or_refuses_tol(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert "misses the requested tolerance" in err
        assert "partial value:" in err

    @pytest.mark.parametrize("argv", [
        ("--t", "1e308"),
        ("--lambda", "1e40", "--method", "residue"),
        ("--lambda", "inf", "--method", "asym"),
        ("--lambda", "1e308", "--method", "hankel"),
    ])
    def test_huge_input_refused_in_bounded_time(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert "error:" in err


    @pytest.mark.parametrize("argv", [
        ("--lambda", "-1"),
        ("--t", "1e309"),
        ("--t", "inf"),
        ("--lambda", "inf"),
    ])
    def test_series_refuses_negative_and_huge_input(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", *argv, "--method", "series")
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200

    def test_series_names_lambda_when_its_t_overflows(self, capsys):
        # (1e200)^2/4 overflows, though --t 1e300 (lambda = 2e150) answers
        code, out, err = run(capsys, "eval", "--lambda", "1e200",
                             "--method", "series")
        assert code == 2 and out == ""
        assert err == ("error: lambda = 1e+200 is too large for the series: "
                       "lambda^2/4 overflows a double\n")

    def test_no_t_line_where_lambda_squared_overflows(self, capsys):
        # asym answers at lambda = 1e200, whose t = lambda^2/4 overflows:
        # the plain output prints no t line rather than "t inf"
        code, out, err = run(capsys, "eval", "--lambda", "1e200",
                             "--method", "asym")
        assert code == 0 and err == ""
        lines = dict(ln.split(None, 1) for ln in out.strip().split("\n"))
        assert lines["lambda"] == "1e+200"
        assert lines["method"] == "asymptotic"
        assert "t" not in lines

    @pytest.mark.parametrize("t", ["1e20", "1e300",
                                   repr(sys.float_info.max)])
    def test_series_answers_every_finite_t(self, capsys, t):
        # every term of the 22-term sum underflows: 0 within the proven
        # truncation bound, in bounded time
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--t", t, "--method", "series")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and err == ""
        lines = dict(ln.split(None, 1) for ln in out.strip().split("\n"))
        assert float(lines["value"]) == 0.0
        assert float(lines["error_estimate"]) < 2e-17
        assert lines["work"] == "22"

    @pytest.mark.parametrize("lam", ["1e-300", "5e-324"])
    @pytest.mark.parametrize("method", ["series", "hankel", "fourier2d",
                                        "residue", "asym", "auto"])
    def test_tiny_lambda_answered_or_refused(self, capsys, method, lam):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--lambda", lam,
                             "--method", method)
        assert time.perf_counter() - start < 5.0
        assert code in (0, 2)
        assert (out != "") == (code == 0)


class TestSweepAndFigure:
    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--lambda-min", "1",
                           "--lambda-max", "13", "--points", "5",
                           "--out", str(out_path))
        assert code == 0
        assert f"wrote 5 rows to {out_path}" in out
        recs = list(csv.DictReader(io.StringIO(out_path.read_text())))
        assert len(recs) == 5
        assert recs[0]["lambda"] == repr(1.0)

    def test_figure_csv_and_svg_are_reproducible(self, capsys, tmp_path):
        paths = []
        for tag in ("a", "b"):
            csv_p = tmp_path / f"{tag}.csv"
            svg_p = tmp_path / f"{tag}.svg"
            code, out, _ = run(capsys, "figure", "--lambda-min", "5",
                               "--lambda-max", "25", "--points", "24",
                               "--csv", str(csv_p), "--svg", str(svg_p))
            assert code == 0
            assert "wrote 24 rows" in out
            assert "wrote figure to" in out
            paths.append((csv_p.read_bytes(), svg_p.read_bytes()))
        assert paths[0] == paths[1]

    def test_figure_without_svg(self, capsys, tmp_path):
        csv_p = tmp_path / "only.csv"
        code, out, _ = run(capsys, "figure", "--lambda-min", "5",
                           "--lambda-max", "8", "--points", "4",
                           "--csv", str(csv_p))
        assert code == 0
        assert "wrote figure to" not in out

    def test_unwritable_csv_is_one_error_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "figure", "--lambda-min", "5",
                             "--lambda-max", "8", "--points", "4",
                             "--csv", str(tmp_path / "missing" / "f.csv"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as ei:
            main(["sweep", "--lambda-min", "1", "--lambda-max", "2"])
        assert ei.value.code == 2

    def test_bad_grid_returns_usage_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--lambda-min", "5",
                           "--lambda-max", "1", "--points", "3",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--lambda-min", "1", "--lambda-max", "inf", "--points", "3",
         "--out", "x.csv"),
        ("sweep", "--lambda-min", "nan", "--lambda-max", "3", "--points", "3",
         "--out", "x.csv"),
        ("figure", "--lambda-min", "5", "--lambda-max", "inf", "--points", "3",
         "--csv", "x.csv"),
        ("figure", "--lambda-min", "5", "--lambda-max", "nan", "--points", "3",
         "--csv", "x.csv"),
    ])
    def test_non_finite_bounds_refused(self, capsys, tmp_path, monkeypatch,
                                       argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "lambda_min = " in err and "lambda_max = " in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["figure", "sweep"])
    @pytest.mark.parametrize("points", [harness.MAX_GRID_POINTS + 1,
                                        100_000_000])
    def test_oversized_grid_refused(self, capsys, tmp_path, command, points):
        out_path = tmp_path / "x.csv"
        out_flag = "--csv" if command == "figure" else "--out"
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--lambda-min", "5",
                             "--lambda-max", "6", "--points", str(points),
                             out_flag, str(out_path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (f"error: a grid of {points} points exceeds "
                       f"MAX_GRID_POINTS = {harness.MAX_GRID_POINTS}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["figure", "sweep"])
    def test_grid_at_the_cap_accepted(self, capsys, tmp_path, monkeypatch,
                                      command):
        # every point at unit cost: the test is of the grid, not the routes
        monkeypatch.setattr(harness, "evaluate", lambda method, lam:
                            EvalOutcome(0.0, 0.0, 1, "hankel"))
        out_path = tmp_path / "x.csv"
        out_flag = "--csv" if command == "figure" else "--out"
        n = harness.MAX_GRID_POINTS
        code, out, err = run(capsys, command, "--lambda-min", "5",
                             "--lambda-max", "6", "--points", str(n),
                             out_flag, str(out_path))
        assert code == 0 and err == ""
        assert out == f"wrote {n} rows to {out_path}\n"


class TestPoles:
    def test_single_ordinate(self, capsys):
        code, out, _ = run(capsys, "poles", "--y", "1.0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,x_star,u_star,q_residual"
        y, xs, us, resid = (float(s) for s in lines[1].split(","))
        assert y == 1.0
        assert xs == pytest.approx(ov.X_STAR[1.0], abs=1e-14)
        assert us == pytest.approx(ov.U_STAR[1.0], abs=1e-14)
        assert resid < 1e-12

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "poles", "--grid", "6")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert len(rows) == 6
        ys = [float(r[0]) for r in rows]
        assert ys == sorted(ys)
        assert ys[0] == pytest.approx(-ys[-1])  # centered in (-b, b)
        assert all(float(r[3]) < 1e-12 for r in rows)

    def test_empty_grid_rejected(self, capsys):
        code, _, err = run(capsys, "poles", "--grid", "0")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("points", [harness.MAX_GRID_POINTS + 1,
                                        100_000_000])
    def test_oversized_grid_refused(self, capsys, points):
        start = time.perf_counter()
        code, out, err = run(capsys, "poles", "--grid", str(points))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (f"error: a grid of {points} points exceeds "
                       f"MAX_GRID_POINTS = {harness.MAX_GRID_POINTS}\n")

    def test_grid_at_the_cap_accepted(self, capsys):
        n = harness.MAX_GRID_POINTS
        code, out, err = run(capsys, "poles", "--grid", str(n))
        assert code == 0 and err == ""
        assert out.count("\n") == n + 1

    @pytest.mark.parametrize("y", ["100", "150"])
    def test_large_ordinate(self, capsys, y):
        # u*^2 is in the tens of thousands here; rounding alone puts
        # x*^2 + y^2 - u*^2 past any fixed absolute bound
        code, out, err = run(capsys, "poles", "--y", y)
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "y,x_star,u_star,q_residual"
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == float(y)

    @pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
    def test_non_finite_ordinate_refused(self, capsys, y):
        code, out, err = run(capsys, "poles", f"--y={y}")
        assert code == 2 and out == ""
        assert "error:" in err

    @pytest.mark.parametrize("y", ["1e154", "1e200", "-1e200"])
    def test_overflowing_ordinate_refused(self, capsys, y):
        # u* overflows here, so no row could name a pole
        code, out, err = run(capsys, "poles", f"--y={y}")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "u*(y) overflows" in err


class TestToleranceFlags:
    """eval's tolerance is ToleranceSpec's three fields, one flag each;
    every other subcommand runs at fixed settings and has no such flag."""

    @pytest.mark.parametrize("method,lam", [
        ("series", "16.4"), ("hankel", "10"), ("fourier2d", "10"),
        ("residue", "10"),
    ])
    def test_max_work_refused_on_every_route(self, capsys, method, lam):
        code, out, err = run(capsys, "eval", "--lambda", lam,
                             "--method", method, "--abs-tol", "1e-6",
                             "--max-work", "21")
        assert code == 2 and out == ""
        assert "exceeds max_work 21" in err and "partial value" in err

    def test_a_met_tolerance_keeps_its_budget(self, capsys):
        # hankel meets 1e-3 at lambda = 10 but spends 962 nodes on it
        code, out, err = run(capsys, "eval", "--lambda", "10",
                             "--method", "hankel", "--abs-tol", "1e-3",
                             "--max-work", "100")
        assert code == 2 and out == ""
        assert err.startswith("error: work 962 exceeds max_work 100\n"
                              "partial value: ")

    def test_unset_fields_keep_their_defaults(self, capsys):
        # max_work alone keeps abs_tol = rel_tol = 1e-12, which residue
        # misses at lambda = 10
        code, out, err = run(capsys, "eval", "--lambda", "10",
                             "--method", "residue", "--max-work", "1000")
        assert code == 2 and out == ""
        assert "misses the requested tolerance" in err

    def test_relative_only_target(self, capsys):
        # |S*(100)| ~ 1e-55, so only a relative target says anything here
        argv = ("eval", "--lambda", "100", "--method", "residue",
                "--abs-tol", "0")
        code, out, err = run(capsys, *argv, "--rel-tol", "1e-8", "--json")
        assert code == 0 and err == ""
        got = json.loads(out)["methods"]["residue"]
        assert float(got["error_estimate"]) <= 1e-8 * abs(float(got["value"]))
        code, out, err = run(capsys, *argv, "--rel-tol", "1e-16")
        assert code == 2 and out == ""
        assert "misses the requested tolerance" in err

    @pytest.mark.parametrize("flags", [
        ("--max-work", "1e3"),
        ("--max-work", "0"),
        ("--abs-tol", "nan"),
        ("--abs-tol", "-1"),
        ("--abs-tol", "0", "--rel-tol", "0"),
    ], ids=["max-work=1e3", "max-work=0", "abs-tol=nan", "abs-tol=-1",
            "both-tols=0"])
    def test_bad_values_refused(self, capsys, flags):
        code, out, err = run(capsys, "eval", "--lambda", "10", *flags)
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol", "--max-work"])
    @pytest.mark.parametrize("argv", [
        ("sweep", "--lambda-min", "1", "--lambda-max", "2", "--points", "2",
         "--out", "out.csv"),
        ("figure", "--lambda-min", "5", "--lambda-max", "6", "--points", "2",
         "--csv", "out.csv"),
        ("poles", "--y", "1.0"),
        ("verify", "--quick"),
    ], ids=["sweep", "figure", "poles", "verify"])
    def test_refused_on_other_subcommands(self, capsys, tmp_path,
                                          monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, flag, "100")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 100" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("--config", "f", "eval", "--lambda", "10"),
        ("eval", "--lambda", "10", "--config", "f"),
        ("eval", "--lambda", "10", "--tol", "1e-9"),
    ], ids=["config-first", "config-last", "tol"])
    def test_removed_options_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err


def test_verify_quick_passes(capsys):
    code = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].endswith("checks passed")
    check_lines = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    assert len(check_lines) == 10
    assert all(ln.startswith("PASS") for ln in check_lines)
    # the ten check lines and the count, nothing else
    assert len(lines) == 11

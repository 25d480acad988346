"""End-to-end runs of the command-line interface, in process."""

import csv
import io
import json
import time

import pytest

from altseries import harness
from altseries.cli import main
from altseries.core import EvalOutcome

import oracle_values as ov


def run(capsys, *argv):
    code = main(list(argv))
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
        # e^(lambda c) overflows a double well before lambda = 600
        code, out, _ = run(capsys, "eval", "--lambda", "600",
                           "--method", "asym")
        assert code == 0
        assert "scaled_numeric  inf" in out

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
        # absurd --tol must fail but still hand back the best value found
        code, _, err = run(capsys, "eval", "--lambda", "40",
                           "--method", "hankel", "--tol", "1e-30")
        assert code == 2
        assert "partial value:" in err

    @pytest.mark.parametrize("argv", [
        ("--lambda", "30", "--method", "residue", "--tol", "1e-30"),
        ("--lambda", "30", "--method", "asym", "--tol", "1e-30"),
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


class TestConfigFile:
    def test_budget_keys_can_force_give_up(self, capsys, tmp_path):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("# a budget no route can keep\n"
                       "abs_tol=1e-300\nrel_tol=1e-300  # absurd\nmax_work=64\n")
        code, out, err = run(capsys, "--config", str(cfg),
                             "eval", "--lambda", "10", "--method", "series")
        assert code == 2
        assert "error:" in err and "max_work" in err

    @pytest.mark.parametrize("method,lam", [
        ("hankel", "10"), ("fourier2d", "10"), ("residue", "10"),
    ])
    def test_max_work_refused_on_every_route(self, capsys, tmp_path,
                                             method, lam):
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("abs_tol=1e-6\nmax_work=100\n")
        code, out, err = run(capsys, "--config", str(cfg),
                             "eval", "--lambda", lam, "--method", method)
        assert code == 2 and out == ""
        assert "exceeds max_work 100" in err and "partial value" in err

    @pytest.mark.parametrize("keys,argv,route", [
        ("max_panels = 4\n", ("--lambda", "6", "--method", "fourier2d"),
         "fourier2d"),
        ("max_panels = 4\n", ("--lambda", "6", "--method", "series"),
         "series"),
        ("max_panels = 4\n", ("--lambda", "10", "--method", "asym"),
         "asymptotic"),
        ("max_panels = 4\n", ("--lambda", "30", "--method", "residue"),
         "residue"),
        ("max_panels = 4\n", ("--lambda", "30"), "residue"),
        ("a = 2.1\n", ("--lambda", "6", "--method", "hankel"), "hankel"),
        ("a = 2.1\n", ("--t", "9"), "hankel"),
        ("a1 = 1.92\n", ("--lambda", "6", "--method", "fourier2d"),
         "fourier2d"),
        ("a2 = 2.05\n", ("--lambda", "6", "--method", "series"), "series"),
        ("truncation_x = 9.0\n", ("--lambda", "6", "--method", "hankel"),
         "hankel"),
        ("panel_rule_order = 40\n", ("--lambda", "6"), "hankel"),
        ("acceleration_depth = 0\n", ("--lambda", "30"), "residue"),
    ])
    def test_eval_refuses_keys_the_route_ignores(self, capsys, tmp_path,
                                                 keys, argv, route):
        """No route reads a strip or quadrature key, so each of the seven
        is an unknown key, refused whichever route the flags pick."""
        _, out, _ = run(capsys, "eval", *argv)
        assert f"method          {route}" in out
        cfg = tmp_path / "route.cfg"
        cfg.write_text("abs_tol = 1e-6\n" + keys)
        code, out, err = run(capsys, "--config", str(cfg), "eval", *argv)
        assert code == 2
        assert out == ""
        key = keys.split("=")[0].strip()
        assert f"{cfg}:2: unknown key {key!r}" in err

    @pytest.mark.parametrize("keys,argv", [
        ("abs_tol = 1e-9\n", ("--lambda", "6", "--method", "hankel")),
        ("rel_tol = 1e-9\nabs_tol = 1e-9\n", ("--lambda", "6")),
        ("rel_tol = 1e-3\n", ("--lambda", "30", "--method", "residue")),
        ("rel_tol = 1e-3\nmax_work = 100000\n", ("--lambda", "30")),
        ("abs_tol = 1e-6\nmax_work = 300000\n",
         ("--lambda", "6", "--method", "fourier2d")),
        ("rel_tol = 1e-6\n", ("--lambda", "6", "--method", "series")),
        ("abs_tol = 1e-6\n", ("--lambda", "10", "--method", "asym")),
    ])
    def test_eval_accepts_keys_the_route_honours(self, capsys, tmp_path,
                                                 keys, argv):
        cfg = tmp_path / "route.cfg"
        cfg.write_text(keys)
        code, out, err = run(capsys, "--config", str(cfg), "eval", *argv)
        assert code == 0, err
        assert "value" in out

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("panel_rule_orderr=40\n")
        code, _, err = run(capsys, "--config", str(cfg),
                           "eval", "--lambda", "1")
        assert code == 2
        assert "unknown key" in err

    @pytest.mark.parametrize("line,message", [
        ("max_work=1e3", "max_work needs an int, got '1e3'"),
        ("max_work=inf", "max_work needs an int, got 'inf'"),
        ("abs_tol=abc", "abs_tol needs a float, got 'abc'"),
    ])
    def test_unparsable_value(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"rel_tol=1e-9\n{line}\n")
        code, out, err = run(capsys, "--config", str(cfg),
                             "eval", "--lambda", "1")
        assert code == 2 and out == ""
        assert err == f"error: {cfg}:2: {message}\n"

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "nokv.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run(capsys, "--config", str(cfg),
                           "eval", "--lambda", "1")
        assert code == 2
        assert "expected key=value" in err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--lambda-min", "1", "--lambda-max", "2", "--points", "2"),
        ("verify", "--quick"),
        ("figure", "--lambda-min", "5", "--lambda-max", "6", "--points", "2"),
        ("poles", "--y", "1.0"),
    ])
    def test_rejected_where_not_honoured(self, capsys, tmp_path, argv):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("abs_tol = 1e-9\n")
        out_path = tmp_path / "out.csv"
        if argv[0] == "sweep":
            argv += ("--out", str(out_path))
        if argv[0] == "figure":
            argv += ("--csv", str(out_path))
        start = time.perf_counter()
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert f"{argv[0]} runs at the default settings" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv,keys", [
        (("figure", "--lambda-min", "5", "--lambda-max", "6", "--points", "2"),
         "abs_tol=1e-300\nmax_work=64\n"),
        (("figure", "--lambda-min", "5", "--lambda-max", "6", "--points", "2"),
         "rel_tol=1e-3\n"),
        (("poles", "--y", "1.0"), "max_panels=4\n"),
        (("poles", "--grid", "3"), "abs_tol=1e-9\n"),
    ])
    def test_keys_refused_where_not_honoured(self, capsys, tmp_path, argv,
                                             keys):
        """figure and poles honour no key: a file is refused whatever it
        names, tolerance keys and removed keys alike, before any output."""
        cfg = tmp_path / "partly.cfg"
        cfg.write_text("a = 2.0\n" + keys)
        csv_path = tmp_path / "figure.csv"
        if argv[0] == "figure":
            argv += ("--csv", str(csv_path))
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert (f"{argv[0]} runs at the default settings and does not "
                "take --config") in err
        assert not csv_path.exists()

    @pytest.mark.parametrize("argv", [
        ("figure", "--lambda-min", "5", "--lambda-max", "6", "--points", "2"),
        ("poles", "--y", "1.0"),
    ])
    def test_honoured_keys_accepted(self, capsys, tmp_path, argv):
        """figure and poles honour no key, so the run they accept is the
        one without --config; it succeeds and writes its output."""
        csv_path = tmp_path / "figure.csv"
        if argv[0] == "figure":
            argv += ("--csv", str(csv_path))
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert err == ""
        if argv[0] == "figure":
            assert out == f"wrote 2 rows to {csv_path}\n"
            assert len(csv_path.read_text().strip().split("\n")) == 3
        else:
            assert out.startswith("y,x_star,u_star,q_residual\n1.0,")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "--config", str(tmp_path / "absent.cfg"),
                           "eval", "--lambda", "1")
        assert code == 2
        assert "error:" in err


def test_verify_quick_passes(capsys):
    code = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].endswith("checks passed")
    check_lines = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    assert len(check_lines) == 10
    assert all(ln.startswith("PASS") for ln in check_lines)
    assert any(ln.startswith("calibration: kappa=") for ln in lines)

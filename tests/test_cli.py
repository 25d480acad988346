"""End-to-end runs of the command-line interface, in process."""

import json
import time

import pytest

from altseries.cli import main

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
        for method in ("series", "hankel", "fourier2d", "asym"):
            code, out, _ = run(capsys, "eval", "--lambda", "6",
                               "--method", method)
            assert code == 0
            assert f"method          {method}" in out or \
                "method          asymptotic" in out

    def test_residue_method_beyond_switch(self, capsys):
        code, out, _ = run(capsys, "eval", "--lambda", "30",
                           "--method", "residue")
        assert code == 0
        assert "method          residue" in out

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
    ])
    def test_huge_input_refused_in_bounded_time(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestSweepAndFigure:
    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--lambda-min", "1",
                           "--lambda-max", "13", "--points", "5",
                           "--out", str(out_path))
        assert code == 0
        assert f"wrote 5 rows to {out_path}" in out
        from altseries.harness import parse_csv
        recs = parse_csv(out_path.read_text())
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


class TestConfigFile:
    def test_quadrature_and_tolerance_keys(self, capsys, tmp_path):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text("# oversized rule\npanel_rule_order = 40\n"
                       "truncation_x = 30.0\n")
        code, out, _ = run(capsys, "--config", str(cfg),
                           "eval", "--lambda", "4", "--method", "hankel")
        assert code == 0
        val = float(dict(ln.split(None, 1)
                         for ln in out.strip().split("\n"))["value"])
        assert val == pytest.approx(ov.S_STAR[4.0], abs=1e-12)

    def test_strip_keys_move_the_contour(self, capsys, tmp_path):
        cfg = tmp_path / "strip.cfg"
        cfg.write_text("a1=1.92\na=1.97\na2=2.05\n")
        _, out_alt, _ = run(capsys, "--config", str(cfg),
                            "eval", "--lambda", "12", "--method", "residue")
        _, out_def, _ = run(capsys, "eval", "--lambda", "12",
                            "--method", "residue")
        v_alt = float(dict(ln.split(None, 1)
                           for ln in out_alt.strip().split("\n"))["value"])
        v_def = float(dict(ln.split(None, 1)
                           for ln in out_def.strip().split("\n"))["value"])
        # both contours enclose the same poles; answers agree to the
        # size of the neglected remainder
        assert v_alt == pytest.approx(v_def, rel=1e-4)
        assert v_alt != v_def

    def test_budget_keys_can_force_give_up(self, capsys, tmp_path):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("abs_tol=1e-300\nrel_tol=1e-300\nmax_work=64\n")
        code, out, err = run(capsys, "--config", str(cfg),
                             "eval", "--lambda", "10", "--method", "series")
        assert code == 2
        assert "error:" in err and "max_work" in err

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("panel_rule_orderr=40\n")
        code, _, err = run(capsys, "--config", str(cfg),
                           "eval", "--lambda", "1")
        assert code == 2
        assert "unknown key" in err

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
    ])
    def test_rejected_where_not_honoured(self, capsys, tmp_path, argv):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("max_panels = 4\n")
        out_path = tmp_path / "sweep.csv"
        if argv[0] == "sweep":
            argv += ("--out", str(out_path))
        start = time.perf_counter()
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert f"{argv[0]} runs at the default settings" in err
        assert not out_path.exists()

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

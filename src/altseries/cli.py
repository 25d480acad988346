"""Command-line surface: eval, sweep, figure, poles, verify.

Exit codes: 0 success (and, for verify, all checks passing), 1 failed
verification, 2 usage or domain errors.  All numeric output goes through
the harness's repr-based formatting, so repeated runs with identical flags
are byte-identical.  Settings come only from flags: ``eval`` takes the
fields of ``ToleranceSpec`` as ``--abs-tol``, ``--rel-tol`` and
``--max-work``, and no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import harness
from .core import (DomainError, RangeError, ToleranceSpec, WorkLimitError,
                   lambda_of_t, t_of_lambda)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="altseries",
        description="Multi-method evaluation of the alternating series "
                    "S(t) and its scaled form S*(lambda).")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate S at one point")
    pe.set_defaults(run=_cmd_eval)
    g = pe.add_mutually_exclusive_group(required=True)
    g.add_argument("--t", type=float, help="t argument of S(t)")
    g.add_argument("--lambda", dest="lam", type=float,
                   help="lambda argument of S*(lambda) = S(lambda^2/4)")
    pe.add_argument("--method", default="auto",
                    choices=["series", "hankel", "fourier2d", "residue",
                             "asym", "auto"])
    # ToleranceSpec's fields; one not given keeps its default
    pe.add_argument("--abs-tol", type=float, help="absolute error target")
    pe.add_argument("--rel-tol", type=float, help="relative error target")
    pe.add_argument("--max-work", type=int,
                    help="budget of terms or quadrature nodes")
    pe.add_argument("--json", action="store_true",
                    help="emit the evaluation as JSON")

    ps = sub.add_parser("sweep", help="tabulate every method over a lambda grid")
    ps.set_defaults(run=_cmd_sweep)
    ps.add_argument("--lambda-min", type=float, required=True)
    ps.add_argument("--lambda-max", type=float, required=True)
    ps.add_argument("--points", type=int, required=True)
    ps.add_argument("--out", required=True, metavar="PATH.CSV")

    pf = sub.add_parser("figure", help="reproduce the scaled-decay figure data")
    pf.set_defaults(run=_cmd_figure)
    pf.add_argument("--lambda-min", type=float, required=True)
    pf.add_argument("--lambda-max", type=float, required=True)
    pf.add_argument("--points", type=int, required=True)
    pf.add_argument("--csv", required=True, metavar="PATH")
    pf.add_argument("--svg", default=None, metavar="PATH")

    pp = sub.add_parser("poles", help="pole locations of 1/(1+e^(z^2+y^2))")
    pp.set_defaults(run=_cmd_poles)
    g = pp.add_mutually_exclusive_group(required=True)
    g.add_argument("--y", type=float, help="single ordinate")
    g.add_argument("--grid", type=int, help="N interior samples of (-b, b)")

    pv = sub.add_parser("verify", help="run the acceptance checklist")
    pv.set_defaults(run=_cmd_verify)
    pv.add_argument("--quick", action="store_true",
                    help="reduced grids; same checks")
    return p


def _cmd_eval(args) -> int:
    lam = lambda_of_t(args.t) if args.lam is None else args.lam
    given = {k: v for k in ("abs_tol", "rel_tol", "max_work")
             if (v := getattr(args, k)) is not None}
    tol = ToleranceSpec(**given) if given else None
    out = harness.evaluate(args.method, lam, tol, args.t)
    row = harness.sweep_row(lam, {out.method: out}, out)
    if args.json:
        print(harness.sweep_row_json(row))
    else:
        t = t_of_lambda(lam) if args.t is None else args.t
        print(f"lambda          {row.lam!r}")
        if math.isfinite(t):  # lambda^2/4 overflows past lambda ~ 2.7e154
            print(f"t               {t!r}")
        print(f"method          {out.method}")
        print(f"value           {out.value!r}")
        print(f"error_estimate  {out.error_estimate!r}")
        print(f"work            {out.work}")
        print(f"scaled_numeric  {row.scaled_numeric!r}")
        print(f"scaled_asym     {row.scaled_asym!r}")
    return 0


def _cmd_sweep(args) -> int:
    table = harness.sweep_data(args.lambda_min, args.lambda_max, args.points)
    harness.write_csv(table, args.out)
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return 0


def _cmd_figure(args) -> int:
    table = harness.figure_data(args.lambda_min, args.lambda_max, args.points)
    harness.write_csv(table, args.csv)
    print(f"wrote {len(table.rows)} rows to {args.csv}")
    if args.svg:
        harness.write_svg(table, args.svg)
        print(f"wrote figure to {args.svg}")
    return 0


def _cmd_poles(args) -> int:
    from .poles import STRIP_B, q_eval, u_star, x_star

    if args.y is not None:
        ys = [args.y]
    else:
        if args.grid < 1:
            raise DomainError("need --grid >= 1")
        if args.grid > harness.MAX_GRID_POINTS:
            raise WorkLimitError(
                f"a grid of {args.grid} points exceeds MAX_GRID_POINTS = "
                f"{harness.MAX_GRID_POINTS}")
        step = 2.0 * STRIP_B / args.grid
        ys = [-STRIP_B + (k + 0.5) * step for k in range(args.grid)]
    # every ordinate is validated before anything is printed
    rows = [(y, x_star(y), u_star(y)) for y in ys]
    print("y,x_star,u_star,q_residual")
    for y, xs, us in rows:
        resid = abs(q_eval(complex(xs, us), y))
        print(f"{y!r},{xs!r},{us!r},{resid!r}")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_acceptance

    report = run_acceptance(quick=args.quick)
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        line = (f"{c.status.upper():4}  {c.name:<{width}}  "
                f"measured={c.measured:.6e}  threshold={c.threshold:.6e}")
        if c.note:
            line += f"  [{c.note}]"
        print(line)
    n_pass = sum(c.passed for c in report.checks)
    print(f"{n_pass}/{len(report.checks)} checks passed")
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DomainError, RangeError, WorkLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial", None)
        if partial is not None:
            print(f"partial value: {partial.value!r} "
                  f"(error estimate {partial.error_estimate!r})",
                  file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

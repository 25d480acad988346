"""Cross-validation, figure reproduction, sweeps, and serialization.

This module owns the policy layer: which route counts as numeric truth at a
given lambda (hankel up to ``core.AUTO_SWITCH``, residue beyond), how method
pairs are judged against each other's error estimates, and the result types
the acceptance checklist (``acceptance``, imported only by ``verify``)
reports in.

All file output is deterministic: floats are rendered with repr() (shortest
string that round-trips, never more than 17 significant digits), rows are
emitted in grid order, and line endings are LF.
"""

from __future__ import annotations

import importlib
import json
import math
import operator
from dataclasses import dataclass

from .asymptotic import SQRT_HALF_PI, asym_s_star, error_envelope
from .core import (
    AUTO_SWITCH,
    WINDOWS,
    DomainError,
    EvalOutcome,
    RangeError,
    ToleranceSpec,
    WorkLimitError,
    check_window,
    lambda_of_t,
    t_of_lambda,
)

# The route functions, each bound here on first use from its home module,
# so that a process imports only the routes it runs (the asymptotic and
# series routes need no numpy).  ``ROUTES`` reaches them through _bound,
# which reads this module's own binding first: a function rebound on
# harness is the one called.
_LAZY = {
    "fourier2d_s_star": "fourier2d",
    "hankel_s_star": "hankel",
    # nothing here calls it; perfbench's tracer wraps harness.calibrated_kappa
    "calibrated_kappa": "residue",
    "s_star_via_residue": "residue",
    "sum_alternating_s": "series",
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __package__), name)
    globals()[name] = value
    return value


def _bound(name):
    """This module's binding of ``name``, made on first use."""
    bindings = globals()
    return bindings[name] if name in bindings else __getattr__(name)


__all__ = [
    "ROUTES",
    "SweepRow",
    "SweepTable",
    "VerifyCheck",
    "VerifyReport",
    "evaluate",
    "resolve_route",
    "sweep_row",
    "cross_validate",
    "figure_data",
    "sweep_data",
    "write_csv",
    "sweep_row_json",
    "write_svg",
]

# two edges of core.WINDOWS under the names perfbench/worker.py reads
HANKEL_COMPARE_WALL = WINDOWS["hankel"].compare_hi
FOURIER_WALL = WINDOWS["fourier2d"].hi
CANCELLATION_FLAG = 1e12
# two routes agree when they differ by at most their summed error estimates,
# or by this much, whichever is larger
PAIR_ABS_TOL = 1e-11
# the most points a figure, sweep or ``poles --grid`` grid may hold (50
# times the figure's 200); a larger one is refused before it is built
MAX_GRID_POINTS = 10_000


def _asymptotic(lam: float) -> EvalOutcome:
    """The closed-form law as a route.  Below its window the error envelope
    no longer bounds the error (|error|/estimate peaks at 1.64 near lambda
    = 0.8), so it is refused there; lambda <= 0 and NaN go on to
    asym_s_star's DomainError.  The estimate is floored at the smallest
    subnormal, where the envelope underflows."""
    check_window("asymptotic", lam)
    return EvalOutcome(asym_s_star(lam).value,
                       max(error_envelope(lam), math.ulp(0.0)), 1,
                       "asymptotic")


def _series(lam: float, t) -> EvalOutcome:
    """The series route at t, or at t = lambda^2/4 when the caller gave
    lambda alone.  A finite lambda whose t overflows (past about 2.7e154)
    is refused by name, not as the infinite t it would pass on."""
    if t is None:
        t = t_of_lambda(lam)
        if t == math.inf and lam < math.inf:
            raise RangeError(f"lambda = {lam:g} is too large for the series: "
                             f"lambda^2/4 overflows a double")
    return _bound("sum_alternating_s")(t)


# route -> evaluation(lam, t); core.WINDOWS says where each one runs.
# Only series reads t, the S(t) argument lam was formed from when the
# caller has it: (lam/2)^2 need not round back to t.  No route reads a
# tolerance; evaluate judges every outcome.  Each evaluation looks its
# route function up in this module when it runs, so rebinding e.g.
# harness.hankel_s_star is seen.
ROUTES = {
    "series": _series,
    "hankel": lambda lam, t: _bound("hankel_s_star")(lam),
    "fourier2d": lambda lam, t: _bound("fourier2d_s_star")(lam),
    "residue": lambda lam, t: _bound("s_star_via_residue")(lam),
    "asymptotic": lambda lam, t: _asymptotic(lam),
}


@dataclass(frozen=True)
class SweepRow:
    lam: float
    methods: dict  # name -> (value, error_estimate)
    scaled_numeric: float
    scaled_asym: float


@dataclass(frozen=True)
class SweepTable:
    rows: list

    def __post_init__(self):
        lams = [r.lam for r in self.rows]
        if any(a >= b for a, b in zip(lams, lams[1:])):
            raise DomainError("sweep rows must be strictly ascending in lambda")


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class VerifyReport:
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def resolve_route(method: str, lam: float) -> str:
    """The ``ROUTES`` key that ``evaluate(method, lam)`` runs: 'auto' picks
    the figure convention (hankel up to ``core.AUTO_SWITCH``, residue
    beyond) and 'asym' is the asymptotic route."""
    if method == "auto":
        return "hankel" if lam <= AUTO_SWITCH else "residue"
    if method == "asym":
        return "asymptotic"
    if method not in ROUTES:
        raise DomainError(f"unknown method {method!r}")
    return method


def evaluate(method: str, lam: float, tol: ToleranceSpec | None = None,
             t: float | None = None) -> EvalOutcome:
    """One S*(lambda) evaluation by the route ``resolve_route`` names.  A
    ``tol`` is met or refused with WorkLimitError (the result as its
    ``partial``), whichever route runs: both its accuracy targets and its
    ``max_work`` budget, judged once the route has returned.  This is the
    one place a ``ToleranceSpec`` is read; no route function sees it.
    A ``t`` with lam = lambda_of_t(t) is the point S(t) the series route
    sums at; the other routes take lam."""
    out = ROUTES[resolve_route(method, lam)](lam, t)
    if tol is None:
        return out
    if not tol.met_by(out.error_estimate, out.value):
        raise WorkLimitError(
            f"error estimate {out.error_estimate:.3e} misses the requested "
            "tolerance", partial=out)
    if out.work > tol.max_work:
        raise WorkLimitError(
            f"work {out.work} exceeds max_work {tol.max_work}", partial=out)
    return out


def sweep_row(lam: float, outs: dict, numeric: EvalOutcome) -> SweepRow:
    """A table row: every outcome in ``outs`` plus the scaled pair.

    The numeric curve is the figure's -e^(lambda sqrt(pi/2)) * value of
    ``numeric``, read off its ``scaled_value`` when it carries one (a
    ``ResidueResult``), equal to the scaled law when ``numeric`` is the
    asymptotic route, and inf where the factor overflows a double.
    """
    scaled_asym = asym_s_star(lam).scaled_value if lam > 0 else 0.0
    if hasattr(numeric, "scaled_value"):
        scaled = numeric.scaled_value
    elif numeric.method == "asymptotic":
        scaled = scaled_asym
    elif lam * SQRT_HALF_PI < 709.0:
        scaled = -math.exp(lam * SQRT_HALF_PI) * numeric.value
    else:
        scaled = math.inf
    return SweepRow(
        lam=lam,
        methods={k: (v.value, v.error_estimate) for k, v in outs.items()},
        scaled_numeric=scaled,
        scaled_asym=scaled_asym,
    )


def _pair_check(t: float, name_a: str, out_a: EvalOutcome,
                name_b: str, out_b: EvalOutcome) -> VerifyCheck:
    diff = abs(out_a.value - out_b.value)
    threshold = max(PAIR_ABS_TOL, out_a.error_estimate + out_b.error_estimate)
    return VerifyCheck(
        name=f"t={t:g}:{name_a}-vs-{name_b}",
        passed=diff <= threshold,
        measured=diff,
        threshold=threshold,
    )


def cross_validate(points) -> VerifyReport:
    """Pairwise agreement of every method whose compare window in
    ``core.WINDOWS`` holds each t's lambda; hankel past its own is marked.

    A cancellation-dominated series result is compared like any other (its
    inflated error estimate is the point), but flagged.
    """
    points = list(points)
    # the whole input is checked before any point runs
    for t in points:
        if not 0.0 <= t < math.inf:
            raise DomainError(f"cross_validate needs finite t >= 0, got {t}")
    checks = []
    for t in points:
        lam = lambda_of_t(t)
        # the series sums at t itself: lambda^2/4 does not always give t back
        outs: dict[str, EvalOutcome] = {
            name: evaluate(name, lam, t=t)
            for name, w in WINDOWS.items() if w.lo <= lam <= w.compare_hi}
        series_out = outs["series"]
        if series_out.cancellation >= CANCELLATION_FLAG:
            checks.append(VerifyCheck(
                name=f"t={t:g}:series-precision-limited",
                passed=True,
                measured=series_out.cancellation,
                threshold=CANCELLATION_FLAG,
                note="series runs but its cancellation diagnostic dominates"))
        if "hankel" not in outs:
            checks.append(VerifyCheck(
                name=f"t={t:g}:hankel-out-of-range",
                passed=True,
                measured=lam,
                threshold=WINDOWS["hankel"].compare_hi,
                note="hankel floor exceeds |S*| here; method skipped"))

        names = sorted(outs)
        for i, na in enumerate(names):
            for nb in names[i + 1:]:
                if {na, nb} == {"residue", "asymptotic"}:
                    continue  # compared in scaled mode below
                checks.append(_pair_check(t, na, outs[na], nb, outs[nb]))
        if "residue" in outs and "asymptotic" in outs:
            r = outs["residue"]
            diff = abs(r.scaled_value - asym_s_star(lam).scaled_value)
            threshold = 10.0 * lam ** -1.5 + r.neglected_bound
            checks.append(VerifyCheck(
                name=f"t={t:g}:residue-vs-asym-scaled",
                passed=diff <= threshold,
                measured=diff,
                threshold=threshold,
                note="compared at the e^(lambda sqrt(pi/2)) scale"))
    return VerifyReport(checks=checks)


def _lambda_grid(lambda_min: float, lambda_max: float, n: int):
    if not 0 < lambda_min < lambda_max < math.inf:
        raise DomainError(
            "need 0 < lambda_min < lambda_max < inf, got lambda_min = "
            f"{lambda_min}, lambda_max = {lambda_max}")
    try:
        n = operator.index(n)  # what range() would take
    except TypeError:
        raise DomainError(f"need an integer n, got {n!r}") from None
    if n < 2:
        raise DomainError("need n >= 2")
    if n > MAX_GRID_POINTS:
        raise WorkLimitError(f"a grid of {n} points exceeds MAX_GRID_POINTS"
                             f" = {MAX_GRID_POINTS}")
    step = (lambda_max - lambda_min) / (n - 1)
    grid = [lambda_min + step * i for i in range(n)]
    grid[-1] = lambda_max
    # refused here, before any point runs, rather than by SweepTable after
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise DomainError(
            f"{n} points between lambda_min = {lambda_min} and lambda_max = "
            f"{lambda_max} do not ascend strictly in doubles")
    return grid


def figure_data(lambda_min: float, lambda_max: float, n: int) -> SweepTable:
    """The decay figure's two curves: scaled numeric truth vs the scaled
    closed-form asymptotics, on a uniform lambda grid."""
    rows = []
    for lam in _lambda_grid(lambda_min, lambda_max, n):
        out = evaluate("auto", lam)
        rows.append(sweep_row(lam, {out.method: out}, out))
    return SweepTable(rows=rows)


def sweep_data(lambda_min: float, lambda_max: float, n: int) -> SweepTable:
    """Every route at every grid point inside its window, plus the scaled
    pair."""
    rows = []
    for lam in _lambda_grid(lambda_min, lambda_max, n):
        outs = {name: evaluate(name, lam)
                for name, w in WINDOWS.items() if w.lo <= lam <= w.sweep_hi}
        rows.append(sweep_row(lam, outs, outs[resolve_route("auto", lam)]))
    return SweepTable(rows=rows)


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips (never beyond 17 significant
    digits); the one true float rendering for every emitted file."""
    return repr(float(x))


def render_csv(table: SweepTable) -> str:
    """Figure/sweep CSV: header row, comma separators, LF endings."""
    method_names = sorted({m for r in table.rows for m in r.methods})
    cols = ["lambda"]
    for m in method_names:
        cols += [f"{m}_value", f"{m}_error"]
    cols += ["scaled_numeric", "scaled_asym"]
    lines = [",".join(cols)]
    for r in table.rows:
        cells = [_fmt(r.lam)]
        for m in method_names:
            if m in r.methods:
                v, e = r.methods[m]
                cells += [_fmt(v), _fmt(e)]
            else:
                cells += ["", ""]
        cells += [_fmt(r.scaled_numeric), _fmt(r.scaled_asym)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(table: SweepTable, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_csv(table))


def sweep_row_json(row: SweepRow) -> str:
    """Single-evaluation JSON: reals as decimal strings for bit-stable
    cross-language comparison."""
    obj = {
        "lambda": _fmt(row.lam),
        "methods": {
            m: {"value": _fmt(v), "error_estimate": _fmt(e)}
            for m, (v, e) in sorted(row.methods.items())
        },
        "scaled": {
            "numeric": _fmt(row.scaled_numeric),
            "asym": _fmt(row.scaled_asym),
        },
    }
    return json.dumps(obj, indent=2)


def write_svg(table: SweepTable, path) -> None:
    """Two-polyline figure (numeric vs asymptotic scaled curves), native
    SVG with fixed 0.01-pixel coordinate rounding for determinism."""
    width, height, pad = 720, 480, 50
    lams = [r.lam for r in table.rows]
    ys = ([r.scaled_numeric for r in table.rows]
          + [r.scaled_asym for r in table.rows])
    lo, hi = min(ys), max(ys)
    if hi - lo < 1e-300:
        hi = lo + 1.0
    x0, x1 = lams[0], lams[-1]

    def px(lam):
        return pad + (width - 2 * pad) * (lam - x0) / (x1 - x0)

    def py(v):
        return height - pad - (height - 2 * pad) * (v - lo) / (hi - lo)

    def poly(vals, color):
        pts = " ".join(f"{px(l):.2f},{py(v):.2f}" for l, v in zip(lams, vals))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="white" stroke="black"/>',
    ]
    if lo < 0.0 < hi:
        parts.append(f'<line x1="{pad}" y1="{py(0.0):.2f}" x2="{width - pad}" '
                     f'y2="{py(0.0):.2f}" stroke="#bbbbbb"/>')
    parts.append(poly([r.scaled_numeric for r in table.rows], "red"))
    parts.append(poly([r.scaled_asym for r in table.rows], "black"))
    parts.append(f'<text x="{width // 2}" y="{height - 12}" '
                 f'text-anchor="middle" font-size="14">lambda</text>')
    parts.append(f'<text x="14" y="{height // 2}" text-anchor="middle" '
                 f'font-size="14" transform="rotate(-90 14 {height // 2})">'
                 'scaled value</text>')
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")

"""Cross-validation, figure reproduction, sweeps, and serialization.

This module owns the policy layer: which route counts as numeric truth at a
given lambda (hankel up to 25, residue beyond), how method pairs are judged
against each other's error estimates, and the acceptance checklist the CLI
``verify`` subcommand and the test suite both consume.

All file output is deterministic: floats are rendered with repr() (shortest
string that round-trips, never more than 17 significant digits), rows are
emitted in grid order, and line endings are LF.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from dataclasses import dataclass, field

from .asymptotic import (
    SQRT_HALF_PI,
    asym_s_star,
    asym_s_t,
    error_envelope,
    rough_bound_trace,
)
from .core import (
    LAMBDA_WALL,
    RESIDUE_MIN_LAMBDA,
    DomainError,
    EvalOutcome,
    RangeError,
    ToleranceSpec,
    WorkLimitError,
    lambda_of_t,
)

# The route functions and verify-only helpers, each bound here on first use
# from its home module, so that a process imports only the routes it runs
# (the asymptotic route needs no numpy).  Code in this module reaches them
# through _bound, which reads this module's own binding first: a function
# rebound on harness is the one called.
_LAZY = {
    "fourier2d_s_star": "fourier2d",
    "gaussian_term_identity": "fourier2d",
    "radial_transform": "fourier2d",
    "hankel_s_star": "hankel",
    "default_strip": "poles",
    "pole_location": "poles",
    "q_eval": "poles",
    "u_star": "poles",
    "calibrated_kappa": "residue",
    "s_star_via_residue": "residue",
    "saddle_lhs_numeric": "residue",
    "SeriesParams": "series",
    "derivative_residuals": "series",
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
    "error_scaling_study",
    "run_acceptance",
    "write_csv",
    "sweep_row_json",
    "write_svg",
]

# hankel's absolute floor ~1.3e-15 crosses |S*| ~ e^(-1.2533 lambda) near
# lambda = 27; the switch happens a bit earlier where both routes are still
# comfortable.
HANKEL_RESIDUE_SWITCH = 25.0
# beyond this lambda the hankel value is mostly floor noise in relative
# terms, so cross-validation refuses to treat it as a comparison partner
HANKEL_COMPARE_WALL = 24.0
# sweeps tabulate hankel a little past that wall, where its error estimate
# is seen to swallow the value
HANKEL_SWEEP_WALL = 28.0
FOURIER_WALL = LAMBDA_WALL
CANCELLATION_FLAG = 1e12


def _asymptotic(lam: float) -> EvalOutcome:
    """The closed-form law as a route.  Below RESIDUE_MIN_LAMBDA its error
    envelope no longer bounds the error (|error|/estimate peaks at 1.64
    near lambda = 0.8), so it is refused there like the residue route;
    lambda <= 0 and NaN go on to asym_s_star's DomainError.  The estimate
    is floored at the smallest subnormal, where the envelope underflows."""
    if 0.0 < lam < RESIDUE_MIN_LAMBDA:
        raise RangeError(
            f"lambda = {lam} is below the asymptotic route's window "
            f"lambda >= {RESIDUE_MIN_LAMBDA:g}")
    return EvalOutcome(asym_s_star(lam).value,
                       max(error_envelope(lam), math.ulp(0.0)), 1,
                       "asymptotic")


# route -> (evaluation(lam, tol), closed lambda window a sweep tabulates it
# on).  Each evaluation looks its route function up in this module when it
# runs, so rebinding e.g. harness.hankel_s_star is seen.
ROUTES = {
    "series": (lambda lam, tol: _bound("sum_alternating_s")(lam * lam / 4.0,
                                                            tol),
               (0.0, math.inf)),
    "hankel": (lambda lam, tol: _bound("hankel_s_star")(lam, tol),
               (0.0, HANKEL_SWEEP_WALL)),
    "fourier2d": (lambda lam, tol: _bound("fourier2d_s_star")(lam, tol),
                  (0.0, FOURIER_WALL)),
    "residue": (lambda lam, tol: _bound("s_star_via_residue")(lam, tol),
                (RESIDUE_MIN_LAMBDA, math.inf)),
    "asymptotic": (lambda lam, tol: _asymptotic(lam),
                   (RESIDUE_MIN_LAMBDA, math.inf)),
}
# cross_validate compares hankel on a narrower window, which stops where it
# is too noisy to judge the others by
_COMPARE_WINDOWS = {
    "hankel": (0.0, HANKEL_COMPARE_WALL),
    "fourier2d": ROUTES["fourier2d"][1],
    "residue": ROUTES["residue"][1],
    "asymptotic": ROUTES["asymptotic"][1],
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
    calibration: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _auto_route(lam: float) -> str:
    return "hankel" if lam <= HANKEL_RESIDUE_SWITCH else "residue"


def resolve_route(method: str, lam: float) -> str:
    """The ``ROUTES`` key that ``evaluate(method, lam)`` runs: 'auto' picks
    the figure convention (hankel up to lambda = 25, residue beyond) and
    'asym' is the asymptotic route."""
    if method == "auto":
        return _auto_route(lam)
    if method == "asym":
        return "asymptotic"
    if method not in ROUTES:
        raise DomainError(f"unknown method {method!r}")
    return method


def evaluate(method: str, lam: float,
             tol: ToleranceSpec | None = None) -> EvalOutcome:
    """One S*(lambda) evaluation by the route ``resolve_route`` names.  A
    ``tol`` is met or refused with WorkLimitError, whichever route runs:
    both its accuracy targets and its ``max_work`` budget."""
    out = ROUTES[resolve_route(method, lam)][0](lam, tol)
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
    ``ResidueResult``) and inf where the factor overflows a double.
    """
    if hasattr(numeric, "scaled_value"):
        scaled = -numeric.scaled_value
    elif lam * SQRT_HALF_PI < 709.0:
        scaled = -math.exp(lam * SQRT_HALF_PI) * numeric.value
    else:
        scaled = math.inf
    return SweepRow(
        lam=lam,
        methods={k: (v.value, v.error_estimate) for k, v in outs.items()},
        scaled_numeric=scaled,
        scaled_asym=asym_s_star(lam).scaled_value if lam > 0 else 0.0,
    )


def _pair_check(t: float, name_a: str, out_a: EvalOutcome,
                name_b: str, out_b: EvalOutcome,
                tol: ToleranceSpec) -> VerifyCheck:
    diff = abs(out_a.value - out_b.value)
    threshold = max(tol.abs_tol,
                    out_a.error_estimate + out_b.error_estimate,
                    tol.rel_tol * max(abs(out_a.value), abs(out_b.value)))
    return VerifyCheck(
        name=f"t={t:g}:{name_a}-vs-{name_b}",
        passed=diff <= threshold,
        measured=diff,
        threshold=threshold,
    )


def cross_validate(points, tol: ToleranceSpec | None = None) -> VerifyReport:
    """Pairwise agreement of every method that admits each t.

    Out-of-range methods are skipped with a marker entry instead of being
    forced; a cancellation-dominated series result is compared like any
    other (its inflated error estimate is the point), but flagged.
    """
    tol = tol or ToleranceSpec(abs_tol=1e-11, rel_tol=0.0)
    checks = []
    for t in points:
        lam = lambda_of_t(t)
        # t itself: lambda^2/4 does not always give t back
        series_out = _bound("sum_alternating_s")(t)
        outs: dict[str, EvalOutcome] = {"series": series_out}
        if series_out.cancellation >= CANCELLATION_FLAG:
            checks.append(VerifyCheck(
                name=f"t={t:g}:series-precision-limited",
                passed=True,
                measured=series_out.cancellation,
                threshold=CANCELLATION_FLAG,
                note="series runs but its cancellation diagnostic dominates"))
        if lam > HANKEL_COMPARE_WALL:
            checks.append(VerifyCheck(
                name=f"t={t:g}:hankel-out-of-range",
                passed=True,
                measured=lam,
                threshold=HANKEL_COMPARE_WALL,
                note="hankel floor exceeds |S*| here; method skipped"))
        for name, (lo, hi) in _COMPARE_WINDOWS.items():
            if lo <= lam <= hi:
                outs[name] = evaluate(name, lam)

        names = sorted(outs)
        for i, na in enumerate(names):
            for nb in names[i + 1:]:
                if {na, nb} == {"residue", "asymptotic"}:
                    continue  # compared in scaled mode below
                checks.append(_pair_check(t, na, outs[na], nb, outs[nb], tol))
        if "residue" in outs and "asymptotic" in outs:
            r = outs["residue"]
            scaled_asym = -asym_s_star(lam).scaled_value
            diff = abs(r.scaled_value - scaled_asym)
            threshold = 10.0 * lam ** -1.5 + r.neglected_bound
            checks.append(VerifyCheck(
                name=f"t={t:g}:residue-vs-asym-scaled",
                passed=diff <= threshold,
                measured=diff,
                threshold=threshold,
                note="compared at the e^(lambda sqrt(pi/2)) scale"))
    return VerifyReport(checks=checks,
                        calibration={"kappa": _bound("calibrated_kappa")()})


def _lambda_grid(lambda_min: float, lambda_max: float, n: int):
    if not 0 < lambda_min < lambda_max < math.inf:
        raise DomainError(
            "need 0 < lambda_min < lambda_max < inf, got lambda_min = "
            f"{lambda_min}, lambda_max = {lambda_max}")
    if n < 2:
        raise DomainError("need n >= 2")
    step = (lambda_max - lambda_min) / (n - 1)
    grid = [lambda_min + step * i for i in range(n)]
    grid[-1] = lambda_max
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
                for name, (_, (lo, hi)) in ROUTES.items() if lo <= lam <= hi}
        rows.append(sweep_row(lam, outs, outs[_auto_route(lam)]))
    return SweepTable(rows=rows)


def error_scaling_study(lambda_grid) -> list:
    """Scaled residual of the closed-form asymptotics against the residue
    route, with the lambda^(3/2) envelope ratio per point."""
    rows = []
    for lam in lambda_grid:
        r = evaluate("residue", lam)
        # e^(lambda c) * asym value without forming the overflow-prone factor
        scaled_asym_signed = -asym_s_star(lam).scaled_value
        scaled_error = abs(r.scaled_value - scaled_asym_signed)
        rows.append({
            "lambda": lam,
            "scaled_error": scaled_error,
            "envelope_ratio": scaled_error * lam ** 1.5,
        })
    return rows


# ---------------------------------------------------------------------------
# acceptance checklist

# the lambda grid of check 6's envelope study
_ENVELOPE_GRID = (15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


def _check(name, measured, threshold, passed=None, note="") -> VerifyCheck:
    if passed is None:
        passed = measured <= threshold
    return VerifyCheck(name=name, passed=bool(passed), measured=float(measured),
                       threshold=float(threshold), note=note)


def check_closed_form_anchor() -> VerifyCheck:
    ln2 = math.log(2.0)
    worst = max(abs(_bound("sum_alternating_s")(0.0).value + ln2),
                abs(_bound("hankel_s_star")(0.0).value + ln2),
                abs(_bound("fourier2d_s_star")(0.0).value + ln2))
    return _check("1-closed-form-anchor", worst, 1e-10)


def check_cross_method_agreement(quick: bool = False) -> VerifyCheck:
    sum_alternating_s = _bound("sum_alternating_s")
    hankel_s_star = _bound("hankel_s_star")
    fourier2d_s_star = _bound("fourier2d_s_star")
    ts = (1.0, 2.0, 5.0) if quick else (1.0, 2.0, 5.0, 10.0, 25.0, 50.0)
    worst_sh = 0.0
    for t in ts:
        s = sum_alternating_s(t).value
        h = hankel_s_star(lambda_of_t(t)).value
        worst_sh = max(worst_sh, abs(s - h))
    lams = (1.0, 2.0) if quick else (1.0, 2.0, 4.0, 8.0)
    worst_fh = 0.0
    for lam in lams:
        worst_fh = max(worst_fh,
                       abs(fourier2d_s_star(lam).value - hankel_s_star(lam).value))
    passed = worst_sh <= 1e-11 and worst_fh <= 1e-8
    return _check("2-cross-method-agreement", worst_sh, 1e-11, passed=passed,
                  note=f"series-hankel {worst_sh:.3e} (<=1e-11), "
                       f"fourier-hankel {worst_fh:.3e} (<=1e-8)")


def check_pole_geometry() -> VerifyCheck:
    pole_location = _bound("pole_location")
    q_eval = _bound("q_eval")
    u_star = _bound("u_star")
    strip = _bound("default_strip")()
    b = strip.b
    worst_q = 0.0
    for k in range(50):
        y = -b + (k + 0.5) * (2.0 * b / 50.0)
        loc = pole_location(y)
        worst_q = max(worst_q, abs(q_eval(complex(loc.x_star, loc.u_star), y)))
        worst_q = max(worst_q, abs(q_eval(complex(-loc.x_star, loc.u_star), y)))
    d0 = abs(u_star(0.0) - math.sqrt(math.pi / 2.0))
    db = abs(u_star(b) - strip.a)
    worst_quartic = 0.0
    for y in (1.0, 2.0, 3.0):
        u = u_star(y)
        worst_quartic = max(worst_quartic,
                            abs(u ** 4 - y * y * u * u - math.pi ** 2 / 4.0))
    passed = worst_q <= 1e-12 and d0 <= 1e-14 and db <= 1e-12 and worst_quartic <= 1e-10
    return _check("3-pole-geometry", worst_q, 1e-12, passed=passed,
                  note=f"|Q|={worst_q:.2e}, u*(0) off {d0:.2e} (<=1e-14), "
                       f"u*(b)-a {db:.2e} (<=1e-12), quartic {worst_quartic:.2e} (<=1e-10)")


def check_residue_convergence() -> VerifyCheck:
    diffs = []
    for lam in (10.0, 12.0, 14.0, 16.0):
        h = _bound("hankel_s_star")(lam).value
        r = _bound("s_star_via_residue")(lam)
        diffs.append(abs(math.exp(lam * SQRT_HALF_PI) * h - r.scaled_value))
    decreasing = all(a > b for a, b in zip(diffs, diffs[1:]))
    passed = decreasing and diffs[2] <= 0.02
    return _check("4-residue-convergence", diffs[2], 0.02, passed=passed,
                  note=f"scaled diffs {['%.3e' % d for d in diffs]}, "
                       f"decreasing={decreasing}")


def check_saddle_lemma() -> VerifyCheck:
    from .asymptotic import saddle_rhs_closed

    def reldev(lam):
        lhs = _bound("saddle_lhs_numeric")(lam)
        rhs = saddle_rhs_closed(lam)
        return abs(lhs - rhs) / abs(rhs)

    r30 = reldev(30.0)
    products = [lam * reldev(lam) for lam in (20.0, 40.0, 60.0)]
    spread = max(products) / min(products)
    passed = r30 <= 0.10 and spread < 3.0
    return _check("5-saddle-lemma", r30, 0.10, passed=passed,
                  note=f"lambda*reldev spread {spread:.3f} (<3)")


def check_asymptotic_law(quick: bool = False, rows=None) -> VerifyCheck:
    """Check 6 on ``rows``, the envelope study on ``_ENVELOPE_GRID`` (run
    here when not given)."""
    if rows is None:
        rows = error_scaling_study(_ENVELOPE_GRID)
    ratios = sorted(r["envelope_ratio"] for r in rows)
    median = 0.5 * (ratios[len(ratios) // 2] + ratios[(len(ratios) - 1) // 2])
    ratio = max(ratios) / median
    rng = random.Random(20260814)
    n_pts = 20 if quick else 100
    worst_ulp = 0.0
    for _ in range(n_pts):
        t = math.exp(rng.uniform(math.log(1.0), math.log(900.0)))
        a = asym_s_t(t).value
        b = asym_s_star(2.0 * math.sqrt(t)).value
        ulp = math.ulp(max(abs(a), abs(b), 5e-324))
        worst_ulp = max(worst_ulp, abs(a - b) / ulp)
    passed = ratio <= 10.0 and worst_ulp <= 4.0
    return _check("6-asymptotic-law", ratio, 10.0, passed=passed,
                  note=f"envelope max/median {ratio:.3f}, "
                       f"lambda-t worst ulp {worst_ulp:.1f} (<=4)")


def check_rough_bound() -> VerifyCheck:
    vals = rough_bound_trace(1.2, [10.0, 15.0, 20.0, 25.0])
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    measured = max(b / a for a, b in zip(vals, vals[1:]))
    return _check("7-rough-bound", measured, 1.0, passed=decreasing,
                  note=f"e^(1.2 lambda)|S*| at 10..25: {['%.4f' % v for v in vals]}")


def check_figure_reproduction(quick: bool = False) -> VerifyCheck:
    n = 60 if quick else 200
    table = figure_data(5.0, 25.0, n)
    diffs = [abs(r.scaled_numeric - r.scaled_asym) for r in table.rows]
    sup = max(diffs)
    third = len(diffs) // 3
    sups = [max(diffs[:third]), max(diffs[third:2 * third]), max(diffs[2 * third:])]
    decreasing = sups[0] > sups[1] > sups[2]
    csv_a = render_csv(table)
    csv_b = render_csv(figure_data(5.0, 25.0, n))
    passed = sup <= 0.5 and decreasing and csv_a == csv_b
    return _check("8-figure-reproduction", sup, 0.5, passed=passed,
                  note=f"third sups {['%.4f' % s for s in sups]}, "
                       f"byte-identical={csv_a == csv_b}")


def check_structural_identities() -> VerifyCheck:
    import numpy as np

    res = _bound("derivative_residuals")(_bound("SeriesParams")(0.5, 1.0, 1.0),
                                         1e-4)
    worst_res = max(res)
    worst_gauss = 0.0
    for m in range(1, 7):
        for lam in (0.0, 1.0, 3.0):
            num, clo = _bound("gaussian_term_identity")(m, lam)
            worst_gauss = max(worst_gauss, abs(num - clo))
    radial_transform = _bound("radial_transform")
    g0 = abs(radial_transform(lambda r: np.exp(-r * r), 0.0) - math.pi)
    g2 = abs(radial_transform(lambda r: np.exp(-r * r), 2.0)
             - math.pi * math.exp(-1.0))
    worst_radial = max(g0, g2)
    passed = worst_res <= 1e-6 and worst_gauss <= 1e-9 and worst_radial <= 1e-10
    return _check("9-structural-identities", worst_res, 1e-6, passed=passed,
                  note=f"derivative {worst_res:.2e} (<=1e-6), gaussian "
                       f"{worst_gauss:.2e} (<=1e-9), radial {worst_radial:.2e} (<=1e-10)")


def check_precision_honesty() -> VerifyCheck:
    s = _bound("sum_alternating_s")(150.0)
    series_ok = s.error_estimate >= 1e-4 * abs(s.value)
    try:
        h = _bound("hankel_s_star")(40.0)
        hankel_ok = h.error_estimate >= abs(h.value)
    except RangeError:
        hankel_ok = True
    passed = series_ok and hankel_ok
    return _check("10-precision-honesty",
                  s.error_estimate / abs(s.value), 1e-4,
                  passed=passed,
                  note="estimates dominate the values they cannot resolve")


def run_acceptance(quick: bool = False) -> VerifyReport:
    """All ten acceptance checks, in order, with calibration constants."""
    # check 6's envelope study, which also gives C_envelope
    rows = error_scaling_study(_ENVELOPE_GRID)
    checks = [
        check_closed_form_anchor(),
        check_cross_method_agreement(quick),
        check_pole_geometry(),
        check_residue_convergence(),
        check_saddle_lemma(),
        check_asymptotic_law(quick, rows),
        check_rough_bound(),
        check_figure_reproduction(quick),
        check_structural_identities(),
        check_precision_honesty(),
    ]
    calibration = {
        "kappa": _bound("calibrated_kappa")(),
        "C_envelope": max(r["envelope_ratio"] for r in rows),
    }
    return VerifyReport(checks=checks, calibration=calibration)


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

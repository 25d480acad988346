"""The acceptance checklist that ``altseries verify`` and the test suite run.

Ten checks, each returning a ``harness.VerifyCheck``.

Check 9's general series S(z, nu, t) = sum z^n n^(-nu) exp(-t/n) at
|z| < 1, and the derivative identities it is tested by, live here as
well: nothing else sums it.  So do the lemmas checks 5-9 compare the
routes against (the saddle integral and its closed form, the envelope
study, the rough bound, the Gaussian term identity and the radial
transform); no route calls them, and each takes only the constants its
check passes.  Only ``verify`` imports this module, so a cold ``eval``
never compiles it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import harness
from .asymptotic import SQRT_HALF_PI, asym_s_star
from .bessel import bessel_j0, j0_zeros
from .core import DomainError, WorkLimitError, _decay, lambda_of_t
from .fourier2d import _cos_zeros
from .hankel import oscillatory_edges, panel_quadrature
from .harness import VerifyCheck, VerifyReport, evaluate
from .residue import _scaled_saddle

__all__ = [
    "SeriesParams",
    "derivative_residuals",
    "run_acceptance",
]

_EPS = float(np.finfo(float).eps)
_CHUNK = 8192
# the most terms _sum_interior sums (|z| up to about 1 - 5.1e-6 fits); a
# larger count is refused before any term is formed
_MAX_INTERIOR_TERMS = 10_000_000

# ---------------------------------------------------------------------------
# the general series, for check 9


@dataclass(frozen=True)
class SeriesParams:
    """Parameters (z, nu, t) of the general series, with 0 < |z| < 1."""

    z: complex
    nu: float
    t: float

    def __post_init__(self):
        az = abs(self.z)
        if not 0.0 < az < 1.0:
            raise DomainError(f"need 0 < |z| < 1, got |z| = {az}")
        if not self.nu > 0:
            raise DomainError(f"need nu > 0, got {self.nu}")
        if not self.t >= 0:
            raise DomainError(f"need t >= 0, got {self.t}")


def _term_block(z: complex, nu: float, t: float, n: np.ndarray, weight):
    """Terms z^n n^(-nu) exp(-t/n) [* weight(n)] for an integer block n."""
    base = np.exp(-t / n) * n ** (-nu)
    if weight is not None:
        base = base * weight(n)
    if z.imag == 0.0:
        x = z.real
        pw = np.abs(x) ** n
        if x < 0.0:
            pw = np.where(n % 2 == 0, pw, -pw)
        return pw * base
    return np.power(z, n.astype(complex)) * base


def _sum_interior(z: complex, nu: float, t: float, weight=None):
    """S(z, nu, t) [with weight(n) on each term] at |z| < 1.

    Sums the first N terms, N the least count whose geometric majorant
    |z|^(N+1) / (1 - |z|) of the tail is below eps/8 of |z|, the size of
    the first term's power, ascending in blocks of _CHUNK.  Returns
    (value, error_estimate, work).  The error estimate
    is that majorant times the largest remaining term factor, plus the
    roundoff floor 4 eps sum|terms|.  An N past _MAX_INTERIOR_TERMS
    raises WorkLimitError before any term is formed.
    """
    z_abs = abs(z)
    if z_abs == 0.0:  # every term vanishes
        n_terms = 0
    else:
        # the least N with (N + 1) log|z| < log(eps/8 (1 - |z|) |z|), the
        # log taken apart so that no tiny |z| underflows it; the estimate
        # below is formed from the N taken, whatever it is
        target = math.log(_EPS / 8.0 * (1.0 - z_abs)) + math.log(z_abs)
        n_terms = max(0, math.ceil(target / math.log(z_abs)) - 1)
    if n_terms > _MAX_INTERIOR_TERMS:
        raise WorkLimitError(
            f"|z| = {z_abs!r} needs {n_terms:.3g} terms, over the cap of "
            f"{_MAX_INTERIOR_TERMS}")
    re_parts, im_parts, abs_parts = [], [], []
    for first in range(1, n_terms + 1, _CHUNK):
        n = np.arange(first, min(first + _CHUNK, n_terms + 1), dtype=float)
        terms = _term_block(z, nu, t, n, weight).astype(complex)
        re_parts.append(math.fsum(terms.real))
        im_parts.append(math.fsum(terms.imag))
        abs_parts.append(float(np.sum(np.abs(terms))))
    value = complex(math.fsum(re_parts), math.fsum(im_parts))
    n_next = n_terms + 1
    factor = float(n_next) ** (-nu)
    if n_next * nu > t:
        factor *= math.exp(-t / n_next)
    if weight is not None:
        factor *= abs(float(weight(np.array([float(n_next)]))[0]))
    bound = z_abs ** n_next / (1.0 - z_abs) * factor
    floor = 4.0 * _EPS * math.fsum(abs_parts)
    return value, bound + floor, n_terms


def derivative_residuals(p: SeriesParams, h: float) -> tuple[float, float, float]:
    """Residuals of the three derivative identities, by central differences.

    Checks (with D the step-h central difference):
      r1 = |D_t S(z,nu,t) + S(z,nu+1,t)|
      r2 = |D_z S(z,nu+1,t) - S(z,nu,t)/z|
      r3 = |D2_tz S(z,nu,t) + S(z,nu,t)/z|
    Each is O(h^2).  The t-differences are evaluated term-wise through the
    exact factorization exp(-(t+-h)/n) = exp(-t/n) exp(-+h/n), i.e. with the
    weight -sinh(h/n)/h; that is the same central-difference operator but
    free of subtractive cancellation, so the h^2 order survives small h.
    """
    if not h > 0:
        raise DomainError("need h > 0")
    if p.t - h < 0:
        raise DomainError("t - h leaves the domain; reduce h")
    for dz in (p.z + h, p.z - h):
        if not abs(dz) < 1.0:
            raise DomainError("z +- h leaves the open unit disk; reduce h")
    z, nu, t = complex(p.z), p.nu, p.t

    def sval(zz, nn, weight=None):
        return _sum_interior(zz, nn, t, weight)[0]

    sinh_w = lambda n: -np.sinh(h / n) / h

    s_nu = sval(z, nu)
    s_nu1 = sval(z, nu + 1.0)
    dt = sval(z, nu, sinh_w)
    r1 = abs(dt + s_nu1)

    dzv = (sval(z + h, nu + 1.0) - sval(z - h, nu + 1.0)) / (2.0 * h)
    r2 = abs(dzv - s_nu / z)

    dtz = (sval(z + h, nu, sinh_w) - sval(z - h, nu, sinh_w)) / (2.0 * h)
    r3 = abs(dtz + s_nu / z)
    return float(r1), float(r2), float(r3)


# ---------------------------------------------------------------------------
# the lemmas checks 5-9 compare against


def _saddle_lhs_numeric(lam: float) -> complex:
    """integral_{-b}^{b} e^(i lambda z_+(y))/(i z_+(y)) dy, lambda > 0.

    The value returned is the true integral; only the final multiplication
    by e^(-lambda sqrt(pi/2)) can underflow (at lambda beyond ~560), every
    intermediate stays comfortably normal.  A quadrature estimate that
    misses 1e-12, absolute or relative, raises WorkLimitError.
    """
    a_plus, _, refine, _ = _scaled_saddle(lam)
    scale = _decay(lam)
    if not refine * scale <= 1e-12 * max(1.0, abs(a_plus) * scale):
        raise WorkLimitError(
            f"quadrature estimate {refine * scale:.3e} misses the tolerance")
    return a_plus * scale


def _saddle_rhs_closed(lam: float) -> complex:
    """Closed form of the saddle-point integral over the pole line.

    Returns -sqrt(2) pi^(1/4) lambda^(-1/2) e^(-lambda sqrt(pi/2))
    * e^(i (lambda sqrt(pi/2) + pi/8)).  It carries an extra lambda^(-1/2)
    relative to the leading constant of the law: the stationary-phase
    width of the saddle contributes sqrt(2 pi / (lambda * second
    derivative)) ~ lambda^(-1/2).
    """
    theta = lam * SQRT_HALF_PI + math.pi / 8.0
    mag = (math.sqrt(2.0) * math.pi ** 0.25 / math.sqrt(lam)
           * math.exp(-lam * SQRT_HALF_PI))
    return -mag * cmath.exp(1j * theta)


def _error_scaling_study(lambda_grid) -> list:
    """Scaled residual of the closed-form asymptotics against the residue
    route, with the lambda^(3/2) envelope ratio per point."""
    rows = []
    for lam in lambda_grid:
        r = evaluate("residue", lam)
        # both scaled values are formed without the overflow-prone factor
        scaled_error = abs(r.scaled_value - asym_s_star(lam).scaled_value)
        rows.append({
            "lambda": lam,
            "scaled_error": scaled_error,
            "envelope_ratio": scaled_error * lam ** 1.5,
        })
    return rows


def _rough_bound_trace(a: float, lambda_grid) -> list[float]:
    """e^(a lambda) |S*(lambda)| along a grid, for 0 <= a < sqrt(pi/2).

    Since |S*| decays like e^(-lambda sqrt(pi/2)) (times algebraic factors),
    any a below sqrt(pi/2) must send the trace to zero; check 7 asserts the
    downward trend.  a = 0 degenerates to |S*| itself.  The numeric value
    comes from ``evaluate('auto')`` (the Hankel route up to its switch and
    the residue route beyond), read at the figure's scale, where plain
    doubles do not underflow.
    """
    return [abs(evaluate("auto", lam).scaled_value)
            * math.exp((a - SQRT_HALF_PI) * lam) for lam in lambda_grid]


def _gaussian_term_complex(m: int, lam: float) -> complex:
    """Quadrature value of the double integral e^(i lam x - m(x^2+y^2))."""
    width = 6.0 / math.sqrt(m)
    step = 0.75 / math.sqrt(m)

    def edges(scale):
        pos = oscillatory_edges(_cos_zeros, scale, width, step)
        return [-e for e in reversed(pos)] + pos[1:]

    def fx(x):
        return np.exp(1j * lam * x - m * x * x)

    ix, _, _, _, _ = panel_quadrature(fx, edges(lam), 24)

    def fy(y):
        return np.exp(-m * y * y)

    # e^(-m y^2) does not oscillate, so the lambda = 0 layout serves it at
    # every lambda
    iy, _, _, _, _ = panel_quadrature(fy, edges(0.0), 24)
    return complex(ix) * float(np.real(iy))


def _gaussian_term_identity(m: int, lam: float):
    """One term of the geometric expansion under the 2D Fourier map.

    Returns (numeric, closed_form) for the pair
    numeric = Re double-quadrature of e^(i lam x - m(x^2+y^2)),
    closed_form = (pi/m) e^(-lam^2/(4m)).
    """
    numeric = _gaussian_term_complex(m, lam).real
    closed = (math.pi / m) * math.exp(-lam * lam / (4.0 * m))
    return numeric, closed


def _radial_transform(f, rho: float) -> float:
    """2 pi int_0^inf J0(rho r) f(r) r dr, the radial form of the 2D
    Fourier transform of a circularly symmetric function.

    The caller asserts integrability of |f(r)| r; the truncation radius is
    probed from the decay of f itself.  A result whose error estimate
    misses 1e-11, absolute or relative, raises WorkLimitError.
    """
    # the first radius where f has decayed, else the last one tried
    for upper in (8.0, 12.0, 16.0, 24.0, 32.0):
        if abs(float(f(upper))) * (upper + 1.0) ** 2 <= 1e-18:
            break
    tail = abs(float(f(upper))) * (upper + 1.0) ** 2

    edges = oscillatory_edges(j0_zeros, rho, upper, 0.75, name="rho")

    def g(r):
        return bessel_j0(rho * r) * np.asarray(f(r), dtype=float) * r

    value, refine, abs_int, _, work = panel_quadrature(g, edges, 24)
    err = 2.0 * math.pi * (refine + (1e-15 + 4.0 * _EPS) * abs_int + tail)
    result = 2.0 * math.pi * float(value)
    if not err <= 1e-11 * max(1.0, abs(result)):
        raise WorkLimitError(
            f"error estimate {err:.3e} misses the requested tolerance")
    return result


# ---------------------------------------------------------------------------
# the checks

# the lambda grid of check 6's envelope study
_ENVELOPE_GRID = (15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


def _check(name, measured, threshold, passed=None, note="") -> VerifyCheck:
    if passed is None:
        passed = measured <= threshold
    return VerifyCheck(name=name, passed=bool(passed), measured=float(measured),
                       threshold=float(threshold), note=note)


def check_closed_form_anchor() -> VerifyCheck:
    ln2 = math.log(2.0)
    worst = max(abs(evaluate(name, 0.0, t=0.0).value + ln2)
                for name in ("series", "hankel", "fourier2d"))
    return _check("1-closed-form-anchor", worst, 1e-10)


def check_cross_method_agreement(quick: bool = False) -> VerifyCheck:
    ts = (1.0, 2.0, 5.0) if quick else (1.0, 2.0, 5.0, 10.0, 25.0, 50.0)
    worst_sh = 0.0
    for t in ts:
        lam = lambda_of_t(t)
        s = evaluate("series", lam, t=t).value
        h = evaluate("hankel", lam).value
        worst_sh = max(worst_sh, abs(s - h))
    lams = (1.0, 2.0) if quick else (1.0, 2.0, 4.0, 8.0)
    worst_fh = 0.0
    for lam in lams:
        worst_fh = max(worst_fh, abs(evaluate("fourier2d", lam).value
                                     - evaluate("hankel", lam).value))
    passed = worst_sh <= 1e-11 and worst_fh <= 1e-8
    return _check("2-cross-method-agreement", worst_sh, 1e-11, passed=passed,
                  note=f"series-hankel {worst_sh:.3e} (<=1e-11), "
                       f"fourier-hankel {worst_fh:.3e} (<=1e-8)")


def check_pole_geometry() -> VerifyCheck:
    from .poles import STRIP_A, STRIP_B, q_eval, u_star, x_star

    worst_q = 0.0
    for k in range(50):
        y = -STRIP_B + (k + 0.5) * (2.0 * STRIP_B / 50.0)
        xs, us = x_star(y), u_star(y)
        worst_q = max(worst_q, abs(q_eval(complex(xs, us), y)))
        worst_q = max(worst_q, abs(q_eval(complex(-xs, us), y)))
    d0 = abs(u_star(0.0) - SQRT_HALF_PI)
    db = abs(u_star(STRIP_B) - STRIP_A)
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
        h = evaluate("hankel", lam)
        r = evaluate("residue", lam)
        diffs.append(abs(r.scaled_value - h.scaled_value))
    decreasing = all(a > b for a, b in zip(diffs, diffs[1:]))
    passed = decreasing and diffs[2] <= 0.02
    return _check("4-residue-convergence", diffs[2], 0.02, passed=passed,
                  note=f"scaled diffs {['%.3e' % d for d in diffs]}, "
                       f"decreasing={decreasing}")


def check_saddle_lemma() -> VerifyCheck:
    def reldev(lam):
        lhs = _saddle_lhs_numeric(lam)
        rhs = _saddle_rhs_closed(lam)
        return abs(lhs - rhs) / abs(rhs)

    r30 = reldev(30.0)
    products = [lam * reldev(lam) for lam in (20.0, 40.0, 60.0)]
    spread = max(products) / min(products)
    passed = r30 <= 0.10 and spread < 3.0
    return _check("5-saddle-lemma", r30, 0.10, passed=passed,
                  note=f"lambda*reldev spread {spread:.3f} (<3)")


def check_asymptotic_law() -> VerifyCheck:
    rows = _error_scaling_study(_ENVELOPE_GRID)
    ratios = sorted(r["envelope_ratio"] for r in rows)
    median = 0.5 * (ratios[len(ratios) // 2] + ratios[(len(ratios) - 1) // 2])
    ratio = max(ratios) / median
    return _check("6-asymptotic-law", ratio, 10.0,
                  note=f"envelope max/median {ratio:.3f}")


def check_rough_bound() -> VerifyCheck:
    vals = _rough_bound_trace(1.2, [10.0, 15.0, 20.0, 25.0])
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    measured = max(b / a for a, b in zip(vals, vals[1:]))
    return _check("7-rough-bound", measured, 1.0, passed=decreasing,
                  note=f"e^(1.2 lambda)|S*| at 10..25: {['%.4f' % v for v in vals]}")


def check_figure_reproduction(quick: bool = False) -> VerifyCheck:
    n = 60 if quick else 200
    table = harness.figure_data(5.0, 25.0, n)
    diffs = [abs(r.scaled_numeric - r.scaled_asym) for r in table.rows]
    sup = max(diffs)
    third = len(diffs) // 3
    sups = [max(diffs[:third]), max(diffs[third:2 * third]), max(diffs[2 * third:])]
    decreasing = sups[0] > sups[1] > sups[2]
    csv_a = harness.render_csv(table)
    csv_b = harness.render_csv(harness.figure_data(5.0, 25.0, n))
    passed = sup <= 0.5 and decreasing and csv_a == csv_b
    return _check("8-figure-reproduction", sup, 0.5, passed=passed,
                  note=f"third sups {['%.4f' % s for s in sups]}, "
                       f"byte-identical={csv_a == csv_b}")


def check_structural_identities() -> VerifyCheck:
    res = derivative_residuals(SeriesParams(0.5, 1.0, 1.0), 1e-4)
    worst_res = max(res)
    worst_gauss = 0.0
    for m in range(1, 7):
        for lam in (0.0, 1.0, 3.0):
            num, clo = _gaussian_term_identity(m, lam)
            worst_gauss = max(worst_gauss, abs(num - clo))
    g0 = abs(_radial_transform(lambda r: np.exp(-r * r), 0.0) - math.pi)
    g2 = abs(_radial_transform(lambda r: np.exp(-r * r), 2.0)
             - math.pi * math.exp(-1.0))
    worst_radial = max(g0, g2)
    passed = worst_res <= 1e-6 and worst_gauss <= 1e-9 and worst_radial <= 1e-10
    return _check("9-structural-identities", worst_res, 1e-6, passed=passed,
                  note=f"derivative {worst_res:.2e} (<=1e-6), gaussian "
                       f"{worst_gauss:.2e} (<=1e-9), radial {worst_radial:.2e} (<=1e-10)")


def check_precision_honesty() -> VerifyCheck:
    s = evaluate("series", lambda_of_t(150.0), t=150.0)
    series_ok = s.error_estimate >= 1e-4 * abs(s.value)
    h = evaluate("hankel", 40.0)
    hankel_ok = h.error_estimate >= abs(h.value)
    passed = series_ok and hankel_ok
    return _check("10-precision-honesty",
                  s.error_estimate / abs(s.value), 1e-4,
                  passed=passed,
                  note="estimates dominate the values they cannot resolve")


def run_acceptance(quick: bool = False) -> VerifyReport:
    """All ten acceptance checks, in order."""
    return VerifyReport(checks=[
        check_closed_form_anchor(),
        check_cross_method_agreement(quick),
        check_pole_geometry(),
        check_residue_convergence(),
        check_saddle_lemma(),
        check_asymptotic_law(),
        check_rough_bound(),
        check_figure_reproduction(quick),
        check_structural_identities(),
        check_precision_honesty(),
    ])

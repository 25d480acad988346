"""Two-dimensional Fourier route for S*(lambda).

S*(lambda) = -(1/pi) * double integral of e^(i lambda x) / (1 + e^(x^2+y^2)).

The x-integral is a cosine transform T(y, lambda) on panels laid out
by the Hankel route's ``oscillatory_edges``; the outer y-integral sees a
smooth e^(-y^2)-type profile.  T depends on y only through y^2, so it is
even in y and the outer rule runs on the half-line 0 <= y <= Y alone, in
12 panels, and doubles the result.  The integrand's Fermi factor
1/(1 + e^(x^2+y^2)) is q/(1 + q) with q = e^(-x^2) e^(-y^2), which
separates: each evaluation tabulates e^(-x^2), cos(lambda x) and the panel
half-widths once on its x nodes, shaped (panels, 37).  Each call of the
outer rule asks for T at the 25 y nodes of one panel; those transforms run
as one (rows, panels, 37) array expression that takes one exp per y row,
none per node, and are reduced by the panel kernel ``panel_quadrature``
uses.  Two nested quadratures stack their error floors, so this route is a
cross-check in its window of ``core.WINDOWS``, not a production path.
"""

from __future__ import annotations

import math

import numpy as np

# not called here; the name stays bound because perfbench/tracer.py
# wraps fourier2d.j0_zeros
from .bessel import j0_zeros  # noqa: F401
from .core import DomainError, EvalOutcome, check_window
from .hankel import (_panel_grid, _reduce_panels, oscillatory_edges,
                     panel_quadrature)

__all__ = ["fourier2d_s_star"]

_EPS = float(np.finfo(float).eps)
# half-widths of the x and y integration boxes; the integrand is below
# e^(-36) past either
_X_TRUNCATION = 6.0
_Y_TRUNCATION = 6.0


def _cos_zeros(n: int) -> list[float]:
    """The first n positive zeros (k + 1/2) pi of cos."""
    return [(k + 0.5) * math.pi for k in range(n)]


def _x_table(lam: float):
    """(e^(-x^2), cos(lam x), hw) on the nodes of every x panel between
    the zeros of cos(|lam| x) below _X_TRUNCATION, each node array shaped
    (panels, 37): what every inner transform at this lambda shares."""
    edges = oscillatory_edges(_cos_zeros, abs(lam), _X_TRUNCATION,
                              base_step=0.75)
    grid, hw = _panel_grid(np.asarray(edges), 24)
    return np.exp(-grid * grid), np.cos(lam * grid), hw


def _inner_t_impl(y2: np.ndarray, table):
    """(values, errors, work) for T(y, lambda) = 2 int_0^X cos(lam x) w dx
    at every y^2 of ``y2``, from the x table ``_x_table(lam)``.

    The integrand of every row is one (rows, panels, 37) array: the
    product q = e^(-y^2) e^(-x^2), turned in place into the Fermi factor
    w = q/(1 + q) = 1/(1 + e^(x^2+y^2)) and multiplied by cos(lam x), so
    the block takes one exp per row.  It is reduced panel by panel exactly
    as ``panel_quadrature`` reduces a stack.  The same e^(-y^2) gives each
    row's truncation term sqrt(pi) e^(-X^2) e^(-y^2).
    """
    gx, cos_x, hw = table
    gy = np.exp(-y2)
    q = gy[:, None, None] * gx
    fx = np.divide(q, 1.0 + q, out=q)
    fx *= cos_x
    half, refine, abs_int, _, work = _reduce_panels(fx, hw, 24)
    values = 2.0 * half
    upper = _X_TRUNCATION
    trunc = math.sqrt(math.pi) * math.exp(-upper * upper) * gy
    errs = 2.0 * (refine + 4.0 * _EPS * abs_int) + trunc
    return values, errs, work


def fourier2d_s_star(lam: float) -> EvalOutcome:
    """S*(lambda) through the 2D Fourier representation, in its window.

    Above it the stacked quadrature floors (~1e-13 absolute each) drown the
    signal, so the route refuses rather than returning noise.
    """
    if not lam >= 0 or math.isnan(lam):
        raise DomainError(f"need lambda >= 0, got {lam}")
    check_window("fourier2d", lam)

    y_up = _Y_TRUNCATION
    table = _x_table(lam)
    work = 0
    inner_err = 0.0

    def t_profile(ys):
        nonlocal work, inner_err
        values, errs, w = _inner_t_impl(ys * ys, table)
        work += w
        inner_err = max(inner_err, float(errs.max()))
        return values

    edges = [y_up * (k / 12.0) for k in range(13)]
    half, refine, abs_int, _, _ = panel_quadrature(t_profile, edges, 16)
    # the full line is twice the half line, for the value exactly so:
    # fsum rounds the mirrored panel sums once (the |T| mass, a pairwise
    # sum, only to its last bits)
    value, refine, abs_int = 2.0 * half, 2.0 * refine, 2.0 * abs_int
    s_val = -value / math.pi
    trunc = math.exp(-y_up * y_up)  # T(y) <= sqrt(pi) e^(-y^2)
    err = (refine + inner_err * 2.0 * y_up
           + 4.0 * _EPS * abs_int + trunc) / math.pi
    return EvalOutcome(s_val, err, work, "fourier2d")

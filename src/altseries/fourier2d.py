"""Two-dimensional Fourier route for S*(lambda), plus the radial-transform
lemma and the term-wise Gaussian identity it rests on.

S*(lambda) = -(1/pi) * double integral of e^(i lambda x) / (1 + e^(x^2+y^2)).

The x-integral is a cosine transform T(y, lambda) handled with the same
zero-partition panels as the Hankel route; the outer y-integral sees a
smooth e^(-y^2)-type profile.  T depends on y only through y^2, so it is
even in y and the outer rule runs on the half-line 0 <= y <= Y alone, in
12 panels, and doubles the result.  The x nodes, x^2 and cos(lambda x) do
not depend on y, so each evaluation tabulates them once, shaped
(panels, 37).  Each call of the outer rule asks for T at the 25 y nodes of
one panel, and those transforms run as one array expression on
(rows, panels, 37), reduced by the panel kernel ``panel_quadrature`` uses.
Two nested quadratures stack their error floors, so this route is a
cross-check for lambda <= 12, not a production path.
"""

from __future__ import annotations

import math

import numpy as np

# not called here; the name stays bound because perfbench/tracer.py
# wraps fourier2d.j0_zeros
from .bessel import j0_zeros  # noqa: F401
from .core import (LAMBDA_WALL, DomainError, EvalOutcome, RangeError,
                   ToleranceSpec, WorkLimitError)
from .hankel import (MAX_PANELS, _j0_zero_edges, _panel_grid,
                     _reduce_panels, oscillatory_edges, panel_quadrature)

__all__ = [
    "LAMBDA_WALL",
    "fourier2d_s_star",
    "gaussian_term_identity",
    "radial_transform",
]

_EPS = float(np.finfo(float).eps)
# half-widths of the x and y integration boxes; the integrand is below
# e^(-36) past either
_X_TRUNCATION = 6.0
_Y_TRUNCATION = 6.0


def _fermi(s: np.ndarray) -> np.ndarray:
    """1/(1+e^s) for s >= 0 without overflow, written over the float array
    ``s``, which is returned."""
    e = np.exp(np.negative(s, out=s), out=s)
    return np.divide(e, 1.0 + e, out=e)


def _cos_edges(lam: float, upper: float, base_step: float = 0.75):
    if lam <= 0:
        return oscillatory_edges([], upper, base_step)
    # ceil of this counts the zeros (k + 1/2) pi / lam below upper
    zeros_past = lam * upper / math.pi - 0.5
    if not zeros_past <= MAX_PANELS:
        raise WorkLimitError(
            f"lambda = {lam} puts {zeros_past:.3g} cosine zeros below "
            f"{upper:g}; max_panels = {MAX_PANELS}")
    zeros = []
    k = 0
    while True:
        xk = (k + 0.5) * math.pi / lam
        if xk >= upper:
            break
        zeros.append(xk)
        k += 1
    return oscillatory_edges(zeros, upper, base_step)


def _x_table(lam: float):
    """(x^2, cos(lam x), hw) on the nodes of every x panel of
    ``_cos_edges(|lam|, _X_TRUNCATION)``, each node array shaped
    (panels, 37): what every inner transform at this lambda shares."""
    edges = np.asarray(_cos_edges(abs(lam), _X_TRUNCATION))
    grid, hw = _panel_grid(edges, 24)
    return grid * grid, np.cos(lam * grid), hw


def _inner_t_impl(y2: np.ndarray, table):
    """(values, errors, work) for T(y, lambda) = 2 int_0^X cos(lam x) w dx
    at every y^2 of ``y2``, from the x table ``_x_table(lam)``.

    The integrand of every row is one (rows, panels, 37) array, built in
    place from x^2 + y^2 and reduced panel by panel exactly as
    ``panel_quadrature`` reduces a stack.
    """
    x2, cos_x, hw = table
    fx = _fermi(x2 + y2[:, None, None])
    fx *= cos_x
    half, refine, abs_int, _, work = _reduce_panels(fx, hw, 24)
    values = 2.0 * half
    upper = _X_TRUNCATION
    # math.exp per y, not np.exp: the two may differ in the last bit
    trunc = math.sqrt(math.pi) * np.array(
        [math.exp(-upper * upper - v) for v in y2.tolist()])
    errs = 2.0 * (refine + 4.0 * _EPS * abs_int) + trunc
    return values, errs, work


def fourier2d_s_star(lam: float) -> EvalOutcome:
    """S*(lambda) through the 2D Fourier representation, 0 <= lambda <= 12.

    Above 12 the stacked quadrature floors (~1e-13 absolute each) drown the
    signal, so the route refuses rather than returning noise.
    """
    if not lam >= 0 or math.isnan(lam):
        raise DomainError(f"need lambda >= 0, got {lam}")
    if lam > LAMBDA_WALL:
        raise RangeError(
            f"the nested 2D route resolves S* only for lambda <= "
            f"{LAMBDA_WALL:g}; use hankel or residue beyond that")

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
    # the full line is twice the half line: exactly so for the value and
    # the |T| mass, which fsum rounds once
    value, refine, abs_int = 2.0 * half, 2.0 * refine, 2.0 * abs_int
    s_val = -value / math.pi
    trunc = math.exp(-y_up * y_up)  # T(y) <= sqrt(pi) e^(-y^2)
    err = (refine + inner_err * 2.0 * y_up
           + 4.0 * _EPS * abs_int + trunc) / math.pi
    return EvalOutcome(s_val, err, work, "fourier2d")


def _gaussian_term_complex(m: int, lam: float) -> complex:
    """Quadrature value of the double integral e^(i lam x - m(x^2+y^2))."""
    width = 6.0 / math.sqrt(m)
    step = 0.75 / math.sqrt(m)
    pos = _cos_edges(lam, width, step)
    x_edges = [-e for e in reversed(pos)] + pos[1:]

    def fx(x):
        return np.exp(1j * lam * x - m * x * x)

    ix, _, _, _, _ = panel_quadrature(fx, x_edges, 24)

    def fy(y):
        return np.exp(-m * y * y)

    iy, _, _, _, _ = panel_quadrature(fy, x_edges, 24)
    return complex(ix) * float(np.real(iy))


def gaussian_term_identity(m: int, lam: float):
    """One term of the geometric expansion under the 2D Fourier map.

    Returns (numeric, closed_form) for the pair
    numeric = Re double-quadrature of e^(i lam x - m(x^2+y^2)),
    closed_form = (pi/m) e^(-lam^2/(4m)).
    """
    # NaN fails the first test, so int() sees only finite m
    if not 1 <= m < math.inf or m != int(m):
        raise DomainError(f"need integer m >= 1, got {m}")
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"need finite lambda >= 0, got {lam}")
    numeric = _gaussian_term_complex(int(m), float(lam)).real
    closed = (math.pi / m) * math.exp(-lam * lam / (4.0 * m))
    return numeric, closed


def radial_transform(f, rho: float) -> float:
    """2 pi int_0^inf J0(rho r) f(r) r dr, the radial form of the 2D
    Fourier transform of a circularly symmetric function.

    The caller asserts integrability of |f(r)| r; the truncation radius is
    probed from the decay of f itself.  A result whose error estimate
    misses 1e-11, absolute or relative, raises WorkLimitError.
    """
    from .bessel import bessel_j0

    if not 0.0 <= rho < math.inf:
        raise DomainError(f"need finite rho >= 0, got {rho}")

    # the first radius where f has decayed, else the last one tried
    for upper in (8.0, 12.0, 16.0, 24.0, 32.0):
        if abs(float(f(upper))) * (upper + 1.0) ** 2 <= 1e-18:
            break
    tail = abs(float(f(upper))) * (upper + 1.0) ** 2

    edges = _j0_zero_edges("rho", rho, upper, base_step=0.75)

    def g(r):
        return bessel_j0(rho * r) * np.asarray(f(r), dtype=float) * r

    value, refine, abs_int, _, work = panel_quadrature(g, edges, 24)
    err = 2.0 * math.pi * (refine + (1e-15 + 4.0 * _EPS) * abs_int + tail)
    result = 2.0 * math.pi * float(value)
    if not ToleranceSpec(abs_tol=1e-11, rel_tol=1e-11).met_by(err, result):
        raise WorkLimitError(
            f"error estimate {err:.3e} misses the requested tolerance")
    return result

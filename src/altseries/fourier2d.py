"""Two-dimensional Fourier route for S*(lambda), plus the radial-transform
lemma and the term-wise Gaussian identity it rests on.

S*(lambda) = -(1/pi) * double integral of e^(i lambda x) / (1 + e^(x^2+y^2)).

The x-integral is a cosine transform T(y, lambda) handled with the same
zero-partition panels as the Hankel route; the outer y-integral sees a
smooth e^(-y^2)-type profile.  Two nested quadratures stack their error
floors, so this route is a cross-check for lambda <= 12, not a production
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import j0_zeros
from .core import DomainError, EvalOutcome, RangeError, ToleranceSpec, WorkLimitError
from .hankel import oscillatory_edges, panel_quadrature

__all__ = [
    "LAMBDA_WALL",
    "Fourier2dConfig",
    "inner_t",
    "fourier2d_s_star",
    "gaussian_term_identity",
    "radial_transform",
]

_EPS = float(np.finfo(float).eps)
# the largest lambda the nested quadrature resolves; see fourier2d_s_star
LAMBDA_WALL = 12.0


@dataclass(frozen=True)
class Fourier2dConfig:
    y_truncation: float = 6.0
    x_truncation: float = 6.0
    inner_tol: float = 1e-11
    outer_tol: float = 1e-8

    def __post_init__(self):
        if not (self.y_truncation >= 6.0 and self.x_truncation >= 6.0):
            raise DomainError("truncations must be >= 6")


_DEFAULT_CFG = Fourier2dConfig()


def _fermi(s: np.ndarray) -> np.ndarray:
    """1/(1+e^s) for s >= 0 without overflow."""
    e = np.exp(-s)
    return e / (1.0 + e)


def _cos_edges(lam: float, upper: float, base_step: float = 0.75):
    if lam <= 0:
        return oscillatory_edges([], upper, base_step)
    zeros = []
    k = 0
    while True:
        xk = (k + 0.5) * math.pi / lam
        if xk >= upper:
            break
        zeros.append(xk)
        k += 1
    return oscillatory_edges(zeros, upper, base_step)


def _inner_t_impl(y: float, lam: float, cfg: Fourier2dConfig):
    """(value, error, work) for T(y, lambda) = 2 int_0^X cos(lam x) w dx."""
    upper = cfg.x_truncation
    y2 = y * y
    edges = _cos_edges(abs(lam), upper)

    def f(x):
        return np.cos(lam * x) * _fermi(x * x + y2)

    half, refine, abs_int, _, work = panel_quadrature(f, edges, 24)
    value = 2.0 * float(half)
    trunc = math.sqrt(math.pi) * math.exp(-upper * upper - y2)
    err = 2.0 * (refine + 4.0 * _EPS * abs_int) + trunc
    return value, err, work


def inner_t(y: float, lam: float, tol: ToleranceSpec | None = None,
            cfg: Fourier2dConfig | None = None) -> float:
    """T(y, lambda): the x-integral of e^(i lam x)/(1+e^(x^2+y^2)).

    Real by symmetry, computed as twice the half-line cosine transform.
    """
    tol = tol or ToleranceSpec(abs_tol=_DEFAULT_CFG.inner_tol, rel_tol=0.0)
    cfg = cfg or _DEFAULT_CFG
    value, err, _ = _inner_t_impl(float(y), float(lam), cfg)
    if not tol.met_by(err, abs(value)):
        raise WorkLimitError(
            f"inner transform error {err:.3e} misses the tolerance")
    return value


def fourier2d_s_star(lam: float, tol: ToleranceSpec | None = None,
                     cfg: Fourier2dConfig | None = None) -> EvalOutcome:
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
    cfg = cfg or _DEFAULT_CFG
    tol = tol or ToleranceSpec(abs_tol=cfg.outer_tol, rel_tol=cfg.outer_tol)

    y_up = cfg.y_truncation
    work_box = [0]
    inner_err_box = [0.0]

    def t_profile(ys):
        out = np.empty_like(ys)
        for i, y in enumerate(ys):
            v, e, w = _inner_t_impl(float(y), lam, cfg)
            out[i] = v
            work_box[0] += w
            inner_err_box[0] = max(inner_err_box[0], e)
        return out

    edges = [y_up * (k / 12.0) for k in range(-12, 13)]
    value, refine, abs_int, _, _ = panel_quadrature(t_profile, edges, 16)
    s_val = -float(value) / math.pi
    trunc = math.exp(-y_up * y_up)  # T(y) <= sqrt(pi) e^(-y^2)
    err = (refine + inner_err_box[0] * 2.0 * y_up
           + 4.0 * _EPS * abs_int + trunc) / math.pi
    outcome = EvalOutcome(s_val, err, work_box[0], "fourier2d")
    if not tol.met_by(err, abs(s_val)):
        raise WorkLimitError(
            f"error estimate {err:.3e} misses the requested tolerance",
            partial=outcome)
    return outcome


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
    if m < 1 or m != int(m):
        raise DomainError(f"need integer m >= 1, got {m}")
    if not lam >= 0:
        raise DomainError(f"need lambda >= 0, got {lam}")
    numeric = _gaussian_term_complex(int(m), float(lam)).real
    closed = (math.pi / m) * math.exp(-lam * lam / (4.0 * m))
    return numeric, closed


def radial_transform(f, rho: float, tol: ToleranceSpec | None = None) -> float:
    """2 pi int_0^inf J0(rho r) f(r) r dr, the radial form of the 2D
    Fourier transform of a circularly symmetric function.

    The caller asserts integrability of |f(r)| r; the truncation radius is
    probed from the decay of f itself.
    """
    from .bessel import bessel_j0

    if not rho >= 0:
        raise DomainError(f"need rho >= 0, got {rho}")
    tol = tol or ToleranceSpec(abs_tol=1e-11, rel_tol=1e-11)

    upper = None
    for cand in (8.0, 12.0, 16.0, 24.0, 32.0):
        if abs(float(f(cand))) * (cand + 1.0) ** 2 <= 1e-18:
            upper = cand
            break
    if upper is None:
        upper = 32.0
    tail = abs(float(f(upper))) * (upper + 1.0) ** 2

    if rho > 0:
        k_need = int(math.ceil(rho * upper / math.pi)) + 2
        zeros = [z / rho for z in j0_zeros(min(k_need, 10_000))]
    else:
        zeros = []
    edges = oscillatory_edges(zeros, upper, base_step=0.75)

    def g(r):
        return bessel_j0(rho * r) * np.asarray(f(r), dtype=float) * r

    value, refine, abs_int, _, work = panel_quadrature(g, edges, 24)
    err = 2.0 * math.pi * (refine + (1e-15 + 4.0 * _EPS) * abs_int + tail)
    result = 2.0 * math.pi * float(value)
    if not tol.met_by(err, abs(result)):
        raise WorkLimitError(
            f"error estimate {err:.3e} misses the requested tolerance")
    return result

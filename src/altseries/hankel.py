"""One-dimensional integral route for S*(lambda).

S*(lambda) = -integral_0^inf J0(lambda x) 2x/(e^(x^2)+1) dx is an
oscillatory-Bessel integral.  The classic strategy applies: cut the axis
into panels whose boundaries are the scaled zeros of J0 plus a coarse
background grid, run a fixed-order Gauss-Legendre rule on every panel, and
sum panel contributions in ascending order.  A half-order re-evaluation of
each panel supplies the refinement part of the error estimate.

The error estimate is err = truncation + refinement + floor, where the floor
(J0 model error + roundoff) * integral|weight| is what makes the lambda ~ 27
precision wall visible: S*(lambda) sinks below ~1.3e-15 there and this route
must say so rather than pretend convergence.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bessel import bessel_j0
from .core import DomainError, EvalOutcome, WorkLimitError

__all__ = [
    "panel_quadrature",
    "oscillatory_edges",
    "hankel_s_star",
]

_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)
# Absolute error model for one J0 evaluation (measured 9.3e-17 worst against
# 40-digit mpmath at 20,001 points on [0, 200]; claimed with margin).
_J0_MODEL_ERR = 1e-15


# The quadrature of S*: the integral stops at x = TRUNCATION_X, past which
# the weight integrates to e^(-TRUNCATION_X^2); every panel takes a
# PANEL_RULE_ORDER-point Gauss-Legendre rule; and ACCELERATION_DEPTH rounds
# of averaging the trailing partial sums check the panel tail.
TRUNCATION_X = 8.0
PANEL_RULE_ORDER = 24
MAX_PANELS = 600
ACCELERATION_DEPTH = 2


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=32)
def _gl_pair(order: int):
    """Nodes of the ``order`` rule followed by those of the half-order rule
    on [-1, 1], with the weights of each rule."""
    xs, ws = _gl_rule(order)
    xh, wh = _gl_rule(order // 2 + 1)
    return np.concatenate([xs, xh]), ws, wh


def panel_quadrature(f, edges, order: int):
    """Composite Gauss-Legendre over fixed panels.

    Every panel is integrated at ``order`` and at roughly half order; the
    summed |difference| is the refinement error estimate (pessimistic, since
    the full-order rule is far more accurate than the half-order one).
    ``f`` is called once per panel, on the full-order nodes followed by the
    half-order nodes (``order + order // 2 + 1`` of them), and the result is
    split along its last axis.

    ``f`` maps the nodes x to f(x), or to a stack of integrands shaped
    (m, len(x)).  Panels reduce along the last axis, so every row of a
    stack is summed exactly as its own 1-D call would sum it.

    Returns (value, refine_diff, abs_integral, panel_sums, work); value is
    complex when f returns complex values.  For a stack the first three are
    arrays of shape (m,), panel_sums is (m, panels), and work counts the
    nodes of every row.  Fewer than two edges make no panel: f is not
    called and the result is (0.0, 0.0, 0.0, empty panel_sums, 0).
    """
    edges = np.asarray(edges, dtype=float)
    if len(edges) < 2:
        return 0.0, 0.0, 0.0, np.array([]), 0
    grid, hw = _panel_grid(edges, order)
    # panels on axis -2: (panels, nodes), or (m, panels, nodes) for a stack
    fx = np.stack([np.asarray(f(x)) for x in grid], axis=-2)
    return _reduce_panels(fx, hw, order)


def _panel_grid(edges: np.ndarray, order: int):
    """(grid, hw): the nodes of every panel of ``edges`` (two or more) as
    one (panels, order + order // 2 + 1) array, full-order nodes first,
    and each panel's half-width."""
    nodes = _gl_pair(order)[0]
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + hw[:, None] * nodes, hw


def _reduce_panels(fx: np.ndarray, hw: np.ndarray, order: int):
    """The five results of :func:`panel_quadrature` from the integrand
    values ``fx`` on :func:`_panel_grid`'s nodes, panels on axis -2."""
    _, ws, wh = _gl_pair(order)
    n = len(ws)
    # each panel is a C-ordered row, so np.sum runs its pairwise sum per row
    # exactly as it would on that panel alone
    full = fx[..., :n]
    sums = hw * np.sum(ws * full, axis=-1)
    halves = hw * np.sum(wh * fx[..., n:], axis=-1)
    mag = np.abs(full)
    abs_parts = hw * np.sum(np.multiply(ws, mag, out=mag), axis=-1)
    refine = np.sum(np.abs(sums - halves), axis=-1)
    rows = np.atleast_2d(sums)
    value = [math.fsum(r) for r in rows.real.tolist()]
    if np.iscomplexobj(sums):
        value = [complex(re, math.fsum(im))
                 for re, im in zip(value, rows.imag.tolist())]
    abs_int = [math.fsum(r) for r in np.atleast_2d(abs_parts).tolist()]
    work = fx.shape[-1] * sums.size
    if sums.ndim == 1:
        return value[0], float(refine), abs_int[0], sums, work
    return np.array(value), refine, np.array(abs_int), sums, work


def oscillatory_edges(zeros, upper: float, base_step: float = 0.9):
    """Panel edges on [0, upper]: the given interior zeros, with any gap
    wider than base_step subdivided evenly."""
    pts = [0.0] + [z for z in zeros if 0.0 < z < upper] + [upper]
    edges = [0.0]
    for right in pts[1:]:
        left = edges[-1]
        gap = right - left
        if gap <= 0:
            continue
        pieces = max(1, math.ceil(gap / base_step))
        step = gap / pieces
        edges.extend(left + step * (j + 1) for j in range(pieces))
        edges[-1] = right  # guard against accumulated rounding
    return edges


def _accelerated_tail(panel_sums: np.ndarray, depth: int) -> float:
    """Iterated averaging of the trailing partial sums (alternating panels)."""
    partials = np.cumsum(panel_sums.real)
    tail = partials[-min(8, len(partials)):]
    for _ in range(depth):
        if len(tail) < 2:
            break
        tail = 0.5 * (tail[1:] + tail[:-1])
    return float(tail[-1])


def _s_star_weight(x: np.ndarray) -> np.ndarray:
    e = np.exp(-x * x)
    return 2.0 * x * e / (1.0 + e)


def _j0_zero_edges(name: str, scale: float, upper: float,
                   base_step: float = 0.9):
    """``oscillatory_edges`` on [0, upper] through the zeros of
    J0(scale x), scale >= 0; ``name`` names scale in the refusal of more
    zeros than ``j0_zeros`` serves."""
    from .bessel import MAX_ZEROS, j0_zeros

    zeros = []
    if scale > 0:
        # inf, not an exception, where scale * upper overflows
        zeros_past = scale * upper / math.pi
        if not zeros_past <= MAX_ZEROS - 2:
            raise WorkLimitError(
                f"{name} = {scale:g} needs about {zeros_past:.3g} Bessel "
                f"zeros, over the {MAX_ZEROS} j0_zeros serves")
        zeros = [z / scale for z in j0_zeros(int(math.ceil(zeros_past)) + 2)]
    return oscillatory_edges(zeros, upper, base_step)


def _s_star_panels(lam: float):
    """Edges and panel sums of the S* integrand; shared by tests."""
    edges = _j0_zero_edges("lambda", lam, TRUNCATION_X)
    if len(edges) - 1 > MAX_PANELS:
        raise WorkLimitError(
            f"{len(edges) - 1} panels exceed max_panels = {MAX_PANELS}")

    def f(x):
        return -bessel_j0(lam * x) * _s_star_weight(x)

    return edges, panel_quadrature(f, edges, PANEL_RULE_ORDER)


def hankel_s_star(lam: float) -> EvalOutcome:
    """S*(lambda) by Bessel-zero panel quadrature, lambda >= 0.

    The reported error_estimate never drops below
    (J0 model error + roundoff) * ln 2 ~ 1.3e-15: integral_0^inf of the
    weight 2x/(e^(x^2)+1) is exactly ln 2, and every J0 evaluation can be
    wrong by the model amount.  Near lambda ~ 27 that floor crosses the
    amplitude of S* itself, which is this route's precision wall.
    """
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"need finite lambda >= 0, got {lam}")
    _, (value, refine, _, panel_sums, work) = _s_star_panels(lam)
    trunc = math.exp(-TRUNCATION_X ** 2)
    floor = (_J0_MODEL_ERR + 4.0 * _EPS) * _LN2
    err = trunc + refine + floor
    if len(panel_sums) >= 6:
        accel = _accelerated_tail(panel_sums, ACCELERATION_DEPTH)
        err += abs(accel - float(value))
    return EvalOutcome(float(value), err, work, "hankel")


"""One-dimensional integral route for S*(lambda).

S*(lambda) = -integral_0^inf J0(lambda x) 2x/(e^(x^2)+1) dx is an
oscillatory-Bessel integral.  The classic strategy applies: cut the axis
into panels whose boundaries are the scaled zeros of J0 plus a coarse
background grid, run a fixed-order Gauss-Legendre rule on every panel, and
sum panel contributions in ascending order.  A half-order re-evaluation of
each panel supplies the refinement part of the error estimate.

``oscillatory_edges`` lays out the panels of every J0 or cosine kernel in
the package and holds each layout to MAX_PANELS panels before it forms a
zero; this route's window in ``core.WINDOWS`` stops short of that budget.

The error estimate is err = truncation + refinement + floor, where the floor
(J0 model error + roundoff) * integral|weight| is what makes the lambda ~ 27
precision wall visible: S*(lambda) sinks below ~1.3e-15 there and this route
must say so rather than pretend convergence.
"""

from __future__ import annotations

import math

import numpy as np

from . import bessel
from .bessel import bessel_j0
from .core import DomainError, EvalOutcome, WorkLimitError, check_window

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
# the weight integrates to e^(-TRUNCATION_X^2), and every panel takes a
# PANEL_RULE_ORDER-point Gauss-Legendre rule.
TRUNCATION_X = 8.0
PANEL_RULE_ORDER = 24
MAX_PANELS = 600


# The Gauss-Legendre rules the routes use, as numpy's leggauss gives them
# (Golub-Welsch), written out so that no process loads numpy.polynomial or
# runs an eigensolve.  Each is exactly symmetric, so only its nodes x >= 0
# and their weights are written, ascending; an odd rule's middle node 0.0
# is written once.
_GL_HALVES = {
    24: ((0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
          0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
          0.7401241915785544, 0.820001985973903, 0.8864155270044011,
          0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
         (0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
          0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
          0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
          0.04427743881741941, 0.02853138862893356, 0.01234122979998869)),
    13: ((0.0, 0.2304583159551348, 0.44849275103644687,
          0.6423493394403402, 0.8015780907333099, 0.9175983992229779,
          0.9841830547185881),
         (0.23255155323087393, 0.22628318026289737, 0.2078160475368885,
          0.17814598076194552, 0.13887351021978733, 0.0921214998377288,
          0.04048400476531557)),
    16: ((0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
          0.6178762444026438, 0.755404408355003, 0.8656312023878318,
          0.9445750230732326, 0.9894009349916499),
         (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
          0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
          0.062253523938647456, 0.027152459411754176)),
    9: ((0.0, 0.3242534234038089, 0.6133714327005904,
         0.8360311073266358, 0.9681602395076261),
        (0.33023935500125984, 0.3123470770400029, 0.2606106964029356,
         0.18064816069485737, 0.08127438836157416)),
}


def _mirrored(order: int, half_nodes, half_weights):
    """(nodes, weights) of the ``order``-point rule on [-1, 1], ascending,
    from its tabulated half."""
    x, w = np.array(half_nodes), np.array(half_weights)
    odd = order % 2
    return (np.concatenate([-x[odd:][::-1], x]),
            np.concatenate([w[odd:][::-1], w]))


_GL_RULES = {order: _mirrored(order, *half)
             for order, half in _GL_HALVES.items()}


def _gl_pair(order: int):
    """Nodes of the ``order`` rule followed by those of the half-order rule
    on [-1, 1], with the weights of each rule."""
    (xs, ws), (xh, wh) = _GL_RULES[order], _GL_RULES[order // 2 + 1]
    return np.concatenate([xs, xh]), ws, wh


# panel_quadrature's orders: 24 for hankel and fourier2d's inner
# transform, 16 for fourier2d's outer integral and residue
_GL_PAIRS = {order: _gl_pair(order) for order in (PANEL_RULE_ORDER, 16)}


def panel_quadrature(f, edges, order: int):
    """Composite Gauss-Legendre over fixed panels.

    ``order`` is 24 or 16, the two orders tabulated in ``_GL_PAIRS``.
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
    complex when f returns complex values.  The value is the exactly
    rounded (fsum) total of the panel sums.  abs_integral, the |f| mass
    that roundoff floors scale, totals the panels' |f| integrals
    pairwise (np.sum), so it may be off by a few ulps.  For a stack the
    first three are
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
    nodes = _GL_PAIRS[order][0]
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + hw[:, None] * nodes, hw


def _reduce_panels(fx: np.ndarray, hw: np.ndarray, order: int):
    """The five results of :func:`panel_quadrature` from the integrand
    values ``fx`` on :func:`_panel_grid`'s nodes, panels on axis -2.

    Each row's value is one ``math.fsum`` over its panels; the |f| masses
    are one ``np.sum`` along the panel axis, not exactly rounded, since
    only the 4 eps int|f| roundoff floors read them.
    """
    _, ws, wh = _GL_PAIRS[order]
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
    abs_int = np.sum(abs_parts, axis=-1)
    work = fx.shape[-1] * sums.size
    if sums.ndim == 1:
        return value[0], float(refine), float(abs_int), sums, work
    return np.array(value), refine, abs_int, sums, work


def oscillatory_edges(zeros, scale: float, upper: float,
                      base_step: float = 0.9, name: str = "lambda"):
    """Panel edges on [0, upper] between the zeros of a kernel k(scale x),
    with any gap wider than base_step split evenly.

    ``zeros(n)`` gives k's first n positive zeros: ``bessel.j0_zeros`` for
    J0, (k + 1/2) pi for cos.  The k-th is at least (k - 1/2) pi, so fewer
    than count + 1/2 fall below upper, count = scale upper / pi.  Holding
    count to MAX_PANELS - 1, before any zero is formed, keeps the zeros to
    MAX_PANELS panels.  A NaN or negative scale raises DomainError, a
    larger count (inf included) WorkLimitError, each naming scale as
    ``name``.
    """
    if not scale >= 0.0:
        raise DomainError(f"need {name} >= 0, got {scale}")
    # inf, not an exception, where scale * upper overflows
    count = scale * upper / math.pi
    if not count <= MAX_PANELS - 1:
        raise WorkLimitError(
            f"{name} = {scale:g} puts about {count:.3g} kernel zeros below "
            f"{upper:g}; max_panels = {MAX_PANELS}")
    scaled = [z / scale for z in zeros(math.ceil(count) + 2)] if scale else []
    pts = [0.0] + [x for x in scaled if 0.0 < x < upper] + [upper]
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


def _s_star_weight(x: np.ndarray) -> np.ndarray:
    e = np.exp(-x * x)
    return 2.0 * x * e / (1.0 + e)


def _s_star_panels(lam: float):
    """Edges and panel sums of the S* integrand; shared by tests."""
    # j0_zeros is looked up in bessel per call, so a rebinding is seen
    edges = oscillatory_edges(bessel.j0_zeros, lam, TRUNCATION_X)

    def f(x):
        return -bessel_j0(lam * x) * _s_star_weight(x)

    return edges, panel_quadrature(f, edges, PANEL_RULE_ORDER)


def hankel_s_star(lam: float) -> EvalOutcome:
    """S*(lambda) by Bessel-zero panel quadrature, in its window.

    The reported error_estimate never drops below
    (J0 model error + roundoff) * ln 2 ~ 1.3e-15: integral_0^inf of the
    weight 2x/(e^(x^2)+1) is exactly ln 2, and every J0 evaluation can be
    wrong by the model amount.  Near lambda ~ 27 that floor crosses the
    amplitude of S* itself, which is this route's precision wall.
    """
    check_window("hankel", lam)
    _, (value, refine, _, _, work) = _s_star_panels(lam)
    trunc = math.exp(-TRUNCATION_X ** 2)
    floor = (_J0_MODEL_ERR + 4.0 * _EPS) * _LN2
    err = trunc + refine + floor
    return EvalOutcome.from_value(lam, float(value), err, work, "hankel")


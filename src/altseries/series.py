"""Direct evaluation of S(t) = sum_n (-1)^n n^-1 exp(-t/n).

``sum_alternating_s`` sums a direct bulk up to N0 > t, past which the terms
b_n = n^-1 exp(-t/n) decrease monotonically, then the Euler transform of
the alternating tail,
sum_m (-1)^m b_m = (-1)^(N0+1)/2 * sum_k (-1/2)^k Delta^k b_(N0+1),
whose terms decay geometrically once the forward differences of the
smooth tail die off.

Everything runs in Python floats, so this route loads no numpy.  The bulk
and its |term| mass are summed with math.fsum (exactly rounded addition),
and the result carries an error estimate that includes the roundoff floor
eps * sum|terms| -- in the heavily cancelling large-t regime that floor,
not truncation, is the honest accuracy limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, cycle
from operator import mul

from .core import DomainError, EvalOutcome, ToleranceSpec, WorkLimitError

__all__ = [
    "AlternatingOutcome",
    "sum_alternating_s",
]

_EPS = sys.float_info.epsilon
_EULER_COLUMNS = 48
_BLOCK = 4096


@dataclass(frozen=True)
class AlternatingOutcome(EvalOutcome):
    """EvalOutcome plus the cancellation diagnostic of the alternating sum.

    ``cancellation`` is the ratio of the accumulated |term| mass (the largest
    partial sum of the absolute series) to |result|; eps times this ratio is
    the relative accuracy floor reachable in doubles.
    """

    cancellation: float = 0.0


def _abs_terms(t: float, first: int, stop: int) -> list:
    """Term magnitudes b_n = n^-1 exp(-t/n) for first <= n < stop.

    Multiplying by the rounded reciprocal, not dividing by n, is the
    rounding that the frozen outcomes in the tests were summed with.
    """
    exp = math.exp
    return [exp(-t / n) * (1.0 / n) for n in range(first, stop)]


def _bulk(t: float, n0: int) -> tuple:
    """sum_(n <= n0) (-1)^n b_n and its |term| mass, both by math.fsum.

    The terms are formed in blocks of _BLOCK, from n = n0 down to 1, so
    one block at most is held at a time.  fsum rounds the sum exactly in
    any order, and in this one it runs fast: at large t the terms shrink
    towards n = 1, so the tiny ones, each of which would otherwise stay
    among fsum's partials for every later term, come last.  The mass is
    the fsum of the blocks' fsums.
    """
    masses = []

    def blocks():
        for top in range(n0, 0, -_BLOCK):
            block = _abs_terms(t, max(top - _BLOCK, 0) + 1, top + 1)
            block.reverse()
            masses.append(math.fsum(block))
            signs = cycle((-1.0, 1.0) if top % 2 else (1.0, -1.0))
            yield map(mul, signs, block)

    return math.fsum(chain.from_iterable(blocks())), math.fsum(masses)


def sum_alternating_s(t: float, tol: ToleranceSpec | None = None
                      ) -> AlternatingOutcome:
    """S(t) = sum (-1)^n n^-1 exp(-t/n), with a cancellation diagnostic.

    The bulk n <= N0 is summed directly and the tail by the Euler transform;
    N0 doubles until the transform converges, with four tries at most.
    The error estimate adds the truncation of the transform, the roundoff
    of its k-fold difference table and the floor
    4 eps sum|bulk terms| + eps (sum|tail terms| + |bulk|).

    ``tol`` only steers: ``abs_tol`` sets the Euler target and ``max_work``
    refuses a bulk before it is summed, so the work can pass ``max_work``
    by up to _EULER_COLUMNS; ``harness.evaluate`` judges the outcome.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"need finite t >= 0, got {t}")
    tol = tol or ToleranceSpec()
    n0 = int(max(64, math.ceil(t) + 32))

    for _ in range(4):
        if n0 > tol.max_work:
            # .3g: a huge t's bulk is named by its size, not its 300 digits
            raise WorkLimitError(
                f"bulk stage of {n0:.3g} terms exceeds max_work {tol.max_work}")
        bulk, absum_bulk = _bulk(t, n0)

        b = _abs_terms(t, n0 + 1, n0 + _EULER_COLUMNS + 1)
        # Euler weight of column k: (-1)^(n0+1)/2 * (-1/2)^k
        wk = 0.5 if n0 % 2 else -0.5

        tail = 0.0
        abs_tail = 0.0
        diag = []
        t_prev = math.inf
        target = 1e-3 * max(tol.abs_tol, _EPS * absum_bulk)
        for k, delta in enumerate(b):
            # diag[j] becomes Delta^j b_(n0+1+k-j), and delta Delta^k
            # b_(n0+1): the difference table is formed only as far as the
            # transform reads it
            for j, d in enumerate(diag):
                diag[j], delta = delta, delta - d
            diag.append(delta)
            term = wk * delta
            tail += term
            abs_tail += abs(term)
            small_enough = abs(term) <= target and abs(term) <= t_prev
            plateaued = k >= 8 and abs(term) >= t_prev
            if small_enough or plateaued:
                break
            t_prev = abs(term)
            wk *= -0.5
        else:
            n0 *= 2
            continue

        trunc = 2.0 * max(abs(term), min(t_prev, abs(term) * 4.0))
        # Roundoff amplification of the k-fold difference table: with
        # Euler ratio 1/2 each of the k + 1 columns adds eps * b_0 / 2.
        table_noise = _EPS * 0.5 * b[0] * (k + 1.0)
        floor = 4.0 * _EPS * absum_bulk + _EPS * (abs_tail + abs(bulk))
        err = trunc + table_noise + floor
        value = bulk + tail
        work = n0 + k + 1
        absum = absum_bulk + abs_tail
        cancel = absum / abs(value) if value != 0 else math.inf
        return AlternatingOutcome(value=value, error_estimate=err, work=work,
                                  method="series", cancellation=cancel)

    raise WorkLimitError("Euler tail failed to converge", partial=None)

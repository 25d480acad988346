"""Generate ``src/altseries/_j0_table.py``: Chebyshev coefficients of J0.

J0 on [0, 31] is split into the unit intervals [k, k + 1]; on each one it is
expanded as sum_j c_j T_j(t) with t = 2 (u - k) - 1.  The coefficients come
from interpolation at NODES Chebyshev points of the first kind, with J0 and
all arithmetic in mpmath at 40 significant digits, and are rounded to
doubles only at the end.  Interpolating at NODES points aliases c_j with
c_(2 NODES - j) and beyond, which sit far below 1e-40 here, so the stored
values are the expansion coefficients to full double precision.

``bessel_j0`` reads the table up to its cutoff ``bessel.SERIES_CUTOFF``
= 30 and sums the Hankel expansion beyond it.  The cutoff is 30, not the
16 where that expansion first reaches the rounding level, because the
expansion's term count is fixed once for every u past the cutoff: 20
terms at 30, against 33 at 16, which every Hankel point would pay.  A
cutoff of 40 takes fewer terms still, but the double-double power series
that tests/test_bessel.py audits the table with reads errors of about
2.4e-16 that far out, too close to the 3e-16 bound.

INTERVALS is 31, not 30: at u = 30 exactly ``int(u)`` picks row 30 and
sums it at t = -1.  With 30 rows that point would be summed from row 29
at t = +1 instead, other coefficients that need not round alike.  Each
row depends on its k alone, so a longer table keeps the shorter one's
rows bit for bit.

TERMS is chosen so that the first dropped coefficient is below 1e-19 on
every interval (it is ~2e-20 at worst); ``chebyshev_table`` refuses a
table that misses this.

Usage, from the repository root (needs mpmath):

    python3 tools/gen_j0_table.py

The output is deterministic: tests/test_bessel.py reruns
``chebyshev_table`` and compares it with the checked-in file bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

INTERVALS = 31
TERMS = 14
NODES = 40
DIGITS = 40
DROPPED_MAX = 1e-19

OUT = Path(__file__).resolve().parent.parent / "src" / "altseries" / "_j0_table.py"


def _interval_coefficients(k: int) -> list:
    """All NODES Chebyshev interpolation coefficients of J0 on [k, k+1]."""
    theta = [mp.pi * (i + mp.mpf(1) / 2) / NODES for i in range(NODES)]
    fx = [mp.besselj(0, k + (1 + mp.cos(th)) / 2) for th in theta]
    return [(2 if j else 1) * mp.fsum(f * mp.cos(j * th)
                                      for f, th in zip(fx, theta)) / NODES
            for j in range(NODES)]


def chebyshev_table() -> tuple:
    """((c_0, ..., c_(TERMS-1)) for k in 0..INTERVALS-1), as doubles.

    Raises ValueError if a dropped coefficient exceeds DROPPED_MAX.
    """
    rows = []
    with mp.workdps(DIGITS):
        for k in range(INTERVALS):
            c = _interval_coefficients(k)
            dropped = max(abs(x) for x in c[TERMS:])
            if dropped > DROPPED_MAX:
                raise ValueError(f"interval {k}: dropped coefficient "
                                 f"{mp.nstr(dropped, 3)} > {DROPPED_MAX}")
            rows.append(tuple(float(x) for x in c[:TERMS]))
    return tuple(rows)


def render(table) -> str:
    lines = [
        '"""Chebyshev coefficients of J0 on the unit intervals [k, k+1], '
        f'k = 0..{INTERVALS - 1}.',
        "",
        f"Generated by tools/gen_j0_table.py (mpmath, {DIGITS} digits); "
        "do not edit.",
        f"Row k holds c_0..c_{TERMS - 1} of "
        "J0(u) = sum_j c_j T_j(2 (u - k) - 1).",
        '"""',
        "",
        "J0_CHEB = (",
    ]
    for row in table:
        lines.append("    (")
        lines.extend(f"        {x!r}," for x in row)
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines) + "\n"


def main() -> None:
    OUT.write_text(render(chebyshev_table()))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()

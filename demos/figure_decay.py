"""Reproduce the scaled-decay figure.

Tabulates e^(lambda sqrt(pi/2)) S*(lambda) on lambda in [5, 25] two ways:
from the numeric routes (hankel quadrature, switching to the residue sum
past ``core.AUTO_SWITCH``) and from the closed-form asymptotic term.  The two
oscillating curves land on top of each other, which is the whole point:
the asymptotic law captures both the envelope and the phase.

Run:  python3 demos/figure_decay.py [outdir]
"""

import pathlib
import sys

from altseries.harness import figure_data, write_csv, write_svg


def main(outdir="demo_out"):
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    table = figure_data(5.0, 25.0, 200)
    write_csv(table, out / "figure_decay.csv")
    write_svg(table, out / "figure_decay.svg")

    print(f"{'lambda':>8}  {'scaled numeric':>16}  {'scaled asym':>16}  "
          f"{'difference':>12}")
    for row in table.rows[::20]:
        print(f"{row.lam:8.3f}  {row.scaled_numeric:16.8f}  "
              f"{row.scaled_asym:16.8f}  "
              f"{abs(row.scaled_numeric - row.scaled_asym):12.2e}")

    sup = max(abs(r.scaled_numeric - r.scaled_asym) for r in table.rows)
    print(f"\nsup |numeric - asym| over the whole grid: {sup:.4f}")
    print(f"wrote {out / 'figure_decay.csv'} and {out / 'figure_decay.svg'}")


if __name__ == "__main__":
    main(*sys.argv[1:2])

"""Where double precision gives out, and what honest error bars look like.

S(t) decays like e^(-sqrt(2 pi t)) while the terms of its defining series
stay O(1/n).  The series route's 22 accelerated terms hold its error to
about 2e-17 absolute at every t, so it loses one digit of the answer
roughly every time sqrt(2 pi t) grows by ln 10.  The quadrature route
computes an O(1) integral whose value is exponentially small, and its
floor of about 1.3e-15 swallows the value from lambda ~ 27.  Both routes
report error estimates that grow to swallow their values instead of
returning confident garbage; the residue route sidesteps the cancellation
entirely by computing the scaled value directly.  Its
column prints that value as the figure plots it, -e^(lambda sqrt(pi/2)) S*,
the same sign as the asymptotic route's scaled value.

Run:  python3 demos/precision_wall.py
"""

import math

from altseries.core import WINDOWS, RangeError
from altseries.hankel import hankel_s_star
from altseries.residue import s_star_via_residue
from altseries.series import sum_alternating_s


def main():
    residue_lo = WINDOWS["residue"].lo
    print(f"{'t':>6} {'lambda':>7}  {'series est/val':>14}  "
          f"{'hankel est/val':>14}  {'residue scaled':>15}")
    for t in (1.0, 9.0, 25.0, 56.25, 100.0, 225.0):
        lam = 2.0 * math.sqrt(t)
        s = sum_alternating_s(t)
        s_ratio = s.error_estimate / abs(s.value)

        try:
            h = hankel_s_star(lam)
            h_cell = f"{h.error_estimate / abs(h.value):14.2e}"
        except RangeError:
            h_cell = f"{'out of range':>14}"

        if lam >= residue_lo:
            r_cell = f"{s_star_via_residue(lam).scaled_value:15.8f}"
        else:
            r_cell = f"{f'(needs lam>={residue_lo:g})':>15}"

        print(f"{t:6.1f} {lam:7.2f}  {s_ratio:14.2e}  {h_cell}  {r_cell}")

    print()
    s150 = sum_alternating_s(150.0)
    print(f"at t=150 the series reports value {s150.value:.3e} with "
          f"estimate {s150.error_estimate:.1e}:")
    share = s150.error_estimate / abs(s150.value)
    print(f"  the estimate is {share:.2%} of the value, so about "
          f"{-math.log10(share):.1f} digits survive the cancellation")
    r = s_star_via_residue(2.0 * math.sqrt(150.0))
    print(f"the residue route still resolves the scaled value "
          f"-e^(lambda sqrt(pi/2)) S* = {r.scaled_value:.10f}")
    print(f"  with error bound {r.scaled_error:.1e} at that scale")


if __name__ == "__main__":
    main()

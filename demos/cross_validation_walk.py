"""Walk t from 0 to 150 and watch five methods hand off to each other.

At small t every route works and they agree to near machine precision.
As t grows, the series route's ~2e-17 absolute bound becomes a larger
share of the shrinking value (a few digits are left at t = 150), the 2D
quadrature runs out of oscillation budget, and the quadrature route hits
the double precision floor, while the residue sum and the closed-form
asymptotics only get better.  The harness records who can still play at each t and
checks every pair that can.

Run:  python3 demos/cross_validation_walk.py
"""

from altseries.harness import cross_validate


def main():
    report = cross_validate([0.0, 1.0, 5.0, 25.0, 60.0, 150.0])
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        print(f"{c.status.upper():4}  {c.name:<{width}}  "
              f"measured={c.measured:.3e}  threshold={c.threshold:.3e}")
    print()
    print(f"all passed: {report.all_passed}")


if __name__ == "__main__":
    main()

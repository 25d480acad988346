"""Print a sha256 of every output a pure speed-up must leave byte-identical.

Runs the altseries of the checkout this file sits in (its ``src/``), one
fresh process per command, and prints one ``<sha256>  <label>`` line per
output:

* ``verify`` and ``verify --quick``;
* the ``figure`` CSV at lambda in [5, 25], 200 points;
* the ``sweep`` CSV at lambda in [1, 30], 59 points, at lambda in
  [2e5, 3e5], 3 points, whose last row lies past the residue route's
  sweep edge, and at lambda in [1, 1e200], 3 points, whose last two rows
  lie past the series route's edge;
* ``poles --y 1.0`` and ``poles --grid 50``;
* ``eval --json`` for every method at lambda in {0.5, 3, 10, 12, 30, 100};
* ``eval --t 2 --method series`` and ``eval --t 2.5``, whose plain output
  shows the t they ran at, ``eval --lambda 600 --method asym``, whose
  scaled numeric value is the law's past the overflow of its factor,
  ``eval --lambda 1e200 --method asym``, whose t = lambda^2/4 overflows,
  ``eval --t 1e300 --method series``, where every term underflows, and
  ``eval --t 1e9``, plain and ``--json``, whose true-size error estimate
  underflows while the scaled one does not, and ``eval --lambda 1e10
  --method asym``, plain and ``--json``, whose scaled error is set by the
  rounding of the law's phase;
* the refusals ``eval --lambda nan`` for every method,
  ``eval --lambda 3 --method residue``, ``eval --t -1``, ``eval --t
  inf``, ``eval --lambda 1e308 --method hankel``, ``eval --lambda -1`` on
  the series route, the window edges ``eval --lambda 235.1 --method
  hankel`` and ``eval --lambda 2.52e5 --method residue``, ``eval --lambda
  0 --method residue``, ``eval --lambda inf --method fourier2d``,
  ``poles --y 1e200`` and ``poles --y 1e154``;
* the tolerance refusal ``eval --lambda 10 --method M --abs-tol 1e-30
  --rel-tol 1e-30`` for every method, a ``--max-work`` that does not
  parse, a budget kept beside a met tolerance, and a grid one point past
  ``MAX_GRID_POINTS`` for ``figure`` and ``poles --grid``;
* value, error_estimate and work of ``fourier2d_s_star``, ``hankel_s_star``
  and ``s_star_via_residue`` at lambda in {0, 0.5, 1, 3, 8, 10, 12, 24, 30,
  100, 1000}, which ``eval --json`` does not show;
* the other callers of ``panel_quadrature``, the verify-only helpers
  ``acceptance._radial_transform``, ``_gaussian_term_identity`` and
  ``_saddle_lhs_numeric``, each printed under its name without the
  leading underscore;
* value, error_estimate, work and cancellation of ``sum_alternating_s`` at
  t from 0 to 1e5; apart from them, its outcomes at huge t and its
  refusal of an infinite t; apart again, ``evaluate("series", ...)`` at the same t under
  three tolerances and its refusal of a small budget; and
  ``derivative_residuals`` at (z, nu, t) = (0.5, 1, 1), h in {1e-3, 1e-4}
  on a line of its own;
* on the crossval benchmark's lattice lambda = k/4, k = 4..48: value,
  error_estimate and work of ``fourier2d_s_star``, and every check of
  ``cross_validate`` at t = lambda^2/4;
* every check of ``cross_validate`` at t = 2e10 (lambda ~ 2.83e5), past
  the residue route's compare window and its saddle panel budget;
* ``bessel_j0`` on 200,001 points over [0, 250] plus u = 16 (where the
  Hankel expansion first reaches the rounding level) and u = 30 (the
  regime switch), the two neighbouring doubles of each, 17 and 31,
  evaluated in one call, in 37-point chunks (one hankel panel) and point
  by point; one more line, with no digest, says whether the three agree
  bit for bit.

Each digest covers the exit code, stdout and stderr (and the CSV for
``figure`` and ``sweep``), so a refusal is held to the same bytes as a
value.  Usage, from any directory:

    python3 tools/output_digest.py > digest.txt

Run it in two checkouts and ``diff`` the two files.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

EVAL_LAMBDAS = ("0.5", "3", "10", "12", "30", "100")
EVAL_METHODS = ("series", "hankel", "fourier2d", "residue", "asym", "auto")

# (value, error_estimate, work) of the three quadrature routes, with a
# refusal printed as its exception type and message
OUTCOMES = """
from altseries import fourier2d_s_star, hankel_s_star, s_star_via_residue
for fn in (fourier2d_s_star, hankel_s_star, s_star_via_residue):
    for lam in (0.0, 0.5, 1.0, 3.0, 8.0, 10.0, 12.0, 24.0, 30.0, 100.0,
                1000.0):
        try:
            r = fn(lam)
            print(fn.__name__, lam, repr(r.value), repr(r.error_estimate),
                  r.work)
        except Exception as exc:
            print(fn.__name__, lam, type(exc).__name__, exc)
"""

# the remaining panel_quadrature callers, each result printed by repr
CALLERS = """
import numpy as np
from altseries.acceptance import (_gaussian_term_identity,
                                  _radial_transform, _saddle_lhs_numeric)


def show(label, call):
    try:
        print(label, repr(call()))
    except Exception as exc:
        print(label, type(exc).__name__, exc)


profiles = {"gaussian": lambda r: np.exp(-r * r),
            "fermi": lambda r: np.exp(-r * r) / (1.0 + np.exp(-r * r))}
for name, prof in profiles.items():
    for rho in (0.0, 0.5, 3.0, 10.0):
        show(f"radial_transform {name} {rho}",
             lambda: _radial_transform(prof, rho))
for m in (1, 2, 5):
    for lam in (0.0, 1.0, 4.0, 10.0):
        show(f"gaussian_term_identity {m} {lam}",
             lambda: _gaussian_term_identity(m, lam))
for lam in (8.0, 10.0, 30.0, 300.0, 500.0):
    show(f"saddle_lhs_numeric {lam}", lambda: _saddle_lhs_numeric(lam))
"""

# the series route, each result printed by repr; SERIES_JOBS names which
# part of it one process prints
SERIES = """
import math
import sys
from altseries import ToleranceSpec, lambda_of_t
from altseries.acceptance import SeriesParams, derivative_residuals
from altseries.harness import evaluate
from altseries.series import sum_alternating_s


def show(label, call):
    try:
        print(label, call())
    except Exception as exc:
        print(label, type(exc).__name__, exc)


def outcome(r):
    return (repr(r.value), repr(r.error_estimate), r.work,
            repr(r.cancellation))


TS = (0.0, 0.1, 1.0, 9.0, 25.0, 36.0, 50.0, 67.0, 68.0, 69.0, 100.0,
      150.0, 225.0, 400.0, 2500.0, 1e4, 1e5)
part = sys.argv[1]
if part == "default":
    for t in TS:
        show(f"sum_alternating_s {t}", lambda: outcome(sum_alternating_s(t)))
elif part == "huge":
    for t in (1e7, 1e300, math.inf):
        show(f"sum_alternating_s {t}", lambda: outcome(sum_alternating_s(t)))
elif part == "tolerances":
    tols = (None, ToleranceSpec(1e-6, 0.0), ToleranceSpec(1e-300, 1e-300))
    for t in TS:
        for tol in tols:
            show(f"evaluate series {t} {tol}", lambda: outcome(
                evaluate("series", lambda_of_t(t), tol, t=t)))
    tol = ToleranceSpec(max_work=21)
    show(f"evaluate series 50.0 {tol}", lambda: outcome(
        evaluate("series", lambda_of_t(50.0), tol, t=50.0)))
else:
    for h in (1e-3, 1e-4):
        show(f"derivative_residuals {h}", lambda: tuple(
            map(repr, derivative_residuals(SeriesParams(0.5, 1.0, 1.0), h))))
"""
SERIES_JOBS = (("default", "series outcomes"),
               ("huge", "series at huge t and its refusal of an infinite t"),
               ("tolerances", "series through evaluate under tolerances"),
               ("derivatives", "derivative_residuals"))


# the crossval workload's inputs, formed as perfbench/workloads.py forms them
CROSSVAL = """
from altseries import fourier2d_s_star
from altseries.harness import cross_validate
for k in range(4, 49):
    lam = k / 4.0
    r = fourier2d_s_star(lam)
    print(lam, repr(r.value), repr(r.error_estimate), r.work)
    for c in cross_validate([lam * lam / 4.0]).checks:
        print(" ", c.name, c.passed, repr(c.measured), repr(c.threshold))
"""

# cross_validate where the residue route itself refuses, or its refusal
CROSSVAL_FAR = """
from altseries.harness import cross_validate
try:
    for c in cross_validate([2e10]).checks:
        print(c.name, c.passed, repr(c.measured), repr(c.threshold))
except Exception as exc:
    print(type(exc).__name__, exc)
"""

# bessel_j0 directly: a point's value may not depend on the rest of its
# call, so the same points are hashed whole, chunked and one at a time
J0 = """
import hashlib
import math
import numpy as np
from altseries.bessel import bessel_j0
u = np.concatenate([np.linspace(0.0, 250.0, 200_001),
                    [16.0, math.nextafter(16.0, 0.0),
                     math.nextafter(16.0, 17.0), 17.0,
                     30.0, math.nextafter(30.0, 0.0),
                     math.nextafter(30.0, 31.0), 31.0]])
whole = bessel_j0(u)
chunked = np.concatenate([bessel_j0(u[i:i + 37])
                          for i in range(0, len(u), 37)])
scalar = np.array([bessel_j0(x) for x in u.tolist()])
for label, vals in (("whole", whole), ("chunked", chunked),
                    ("scalar", scalar)):
    print(label, hashlib.sha256(vals.tobytes()).hexdigest())
"""


def _run(argv, cwd: str, csv: str | None = None) -> tuple[str, bytes]:
    """The digest of one fresh process, and its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True)
    h = hashlib.sha256()
    h.update(f"exit {proc.returncode}\n".encode())
    h.update(proc.stdout)
    h.update(b"\0stderr\0")
    h.update(proc.stderr)
    if csv is not None:
        h.update(b"\0csv\0")
        path = Path(cwd, csv)
        h.update(path.read_bytes() if path.exists() else b"missing")
    return h.hexdigest(), proc.stdout


def main() -> int:
    jobs = [
        ("verify", ["verify"], None),
        ("verify --quick", ["verify", "--quick"], None),
        ("figure 5..25 x200", ["figure", "--lambda-min", "5", "--lambda-max",
                               "25", "--points", "200", "--csv",
                               "figure.csv"], "figure.csv"),
        ("sweep 1..30 x59", ["sweep", "--lambda-min", "1", "--lambda-max",
                             "30", "--points", "59", "--out", "sweep.csv"],
         "sweep.csv"),
        ("sweep 2e5..3e5 x3", ["sweep", "--lambda-min", "2e5", "--lambda-max",
                               "3e5", "--points", "3", "--out", "far.csv"],
         "far.csv"),
        ("sweep 1..1e200 x3", ["sweep", "--lambda-min", "1", "--lambda-max",
                               "1e200", "--points", "3", "--out",
                               "huge.csv"], "huge.csv"),
        ("poles --y 1.0", ["poles", "--y", "1.0"], None),
        ("poles --grid 50", ["poles", "--grid", "50"], None),
    ]
    for lam in EVAL_LAMBDAS:
        for method in EVAL_METHODS:
            args = ["eval", "--lambda", lam, "--method", method, "--json"]
            jobs.append((" ".join(args), args, None))
    for args in (["eval", "--t", "2", "--method", "series"],
                 ["eval", "--t", "2.5"],
                 ["eval", "--lambda", "600", "--method", "asym"],
                 ["eval", "--lambda", "1e200", "--method", "asym"],
                 ["eval", "--t", "1e300", "--method", "series"],
                 ["eval", "--t", "1e9"],
                 ["eval", "--t", "1e9", "--json"],
                 ["eval", "--lambda", "1e10", "--method", "asym"],
                 ["eval", "--lambda", "1e10", "--method", "asym", "--json"]):
        jobs.append((" ".join(args), args, None))
    refusals = [["eval", "--lambda", "nan", "--method", method]
                for method in EVAL_METHODS]
    refusals += [["eval", "--lambda", "3", "--method", "residue"],
                 ["eval", "--t", "-1"],
                 ["eval", "--t", "inf"],
                 ["eval", "--lambda", "1e308", "--method", "hankel"],
                 ["eval", "--lambda", "-1", "--method", "series"],
                 ["eval", "--lambda", "235.1", "--method", "hankel"],
                 ["eval", "--lambda", "2.52e5", "--method", "residue"],
                 ["eval", "--lambda", "0", "--method", "residue"],
                 ["eval", "--lambda", "inf", "--method", "fourier2d"],
                 ["poles", "--y", "1e200"],
                 ["poles", "--y", "1e154"]]
    refusals += [["eval", "--lambda", "10", "--method", method, "--abs-tol",
                  "1e-30", "--rel-tol", "1e-30"] for method in EVAL_METHODS]
    refusals += [["eval", "--lambda", "10", "--max-work", "1e3"],
                 ["eval", "--lambda", "10", "--method", "hankel",
                  "--abs-tol", "1e-3", "--max-work", "100"],
                 ["figure", "--lambda-min", "5", "--lambda-max", "25",
                  "--points", "10001", "--csv", "big.csv"],
                 ["poles", "--grid", "10001"]]
    jobs += [(" ".join(args), args, None) for args in refusals]
    # relative paths, so the temporary directory's name reaches no output
    with tempfile.TemporaryDirectory() as tmp:
        for label, args, csv in jobs:
            digest, _ = _run(["-m", "altseries.cli", *args], tmp, csv)
            print(f"{digest}  {label}", flush=True)
        digest, _ = _run(["-c", OUTCOMES], tmp)
        print(f"{digest}  route outcomes with work", flush=True)
        digest, _ = _run(["-c", CALLERS], tmp)
        print(f"{digest}  other panel_quadrature callers", flush=True)
        for part, label in SERIES_JOBS:
            digest, _ = _run(["-c", SERIES, part], tmp)
            print(f"{digest}  {label}", flush=True)
        digest, _ = _run(["-c", CROSSVAL], tmp)
        print(f"{digest}  crossval lattice: fourier2d and cross_validate",
              flush=True)
        digest, _ = _run(["-c", CROSSVAL_FAR], tmp)
        print(f"{digest}  cross_validate at t = 2e10", flush=True)
        digest, out = _run(["-c", J0], tmp)
        print(f"{digest}  bessel_j0 whole, chunked and scalar", flush=True)
        hashes = {line.split()[-1] for line in out.decode().splitlines()}
        print(f"bessel_j0 whole, chunked and scalar agree: "
              f"{len(hashes) == 1}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

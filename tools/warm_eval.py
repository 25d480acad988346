"""Time warm route calls at a fixed lambda or t in one or more checkouts.

Each sample is one fresh process for one row, started in the benchmark's
environment (``PYTHONDONTWRITEBYTECODE=1`` and one BLAS/OpenMP thread, as
in ``cold_eval.py``).  It makes one untimed call, so imports and the J0
zero table are filled, then CALLS = 15 timed calls,
and reports their median in milliseconds.  The processes are interleaved:
every round runs each row once in each checkout, back to back, and the
checkout that goes first alternates between rounds, so a drift in the
machine's speed falls on all of them alike.

The rows:

* ``fourier2d_s_star`` at lambda in {1, 4, 8, 12};
* one ``cross_validate`` pass over the crossval benchmark's lattice,
  t = lambda^2/4 at lambda = k/4, k = 4..48 (45 points, one call each);
* ``hankel_s_star`` at lambda in {5, 24} and ``s_star_via_residue`` at
  lambda in {30, 169.42};
* ``sum_alternating_s`` at t in {0, 25, 144, 1e4} (its argument is t,
  not lambda).

For each row and checkout it reports the quartiles of the per-process
medians and, for a route, the value and error estimate it returned; for
the ``cross_validate`` pass, the number of checks and of failed checks.
Every process must return the same ones, or the run stops.

Usage, from any directory:

    python3 tools/warm_eval.py [--runs N] [--out FILE.json] [LABEL=CHECKOUT ...]

Without a LABEL=CHECKOUT argument it times the checkout this file sits in.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# this file's own directory is on sys.path when it runs as a script
from cold_eval import (BENCH_ENV, child_env, cpu_model, git_rev, parse_cli,
                       quartiles)

CALLS = 15
CROSSVAL_LAMBDAS = [k / 4.0 for k in range(4, 49)]
ROWS = (*(f"fourier2d_s_star@{lam:g}" for lam in (1.0, 4.0, 8.0, 12.0)),
        "cross_validate@crossval",
        *(f"hankel_s_star@{lam:g}" for lam in (5.0, 24.0)),
        *(f"s_star_via_residue@{lam:g}" for lam in (30.0, 169.42)),
        *(f"sum_alternating_s@{t:g}" for t in (0.0, 25.0, 144.0, 1e4)))

# one sample: argv is (calls, row, crossval lambdas as JSON); prints
# [ms, result]
WARM = """
import json, statistics, sys, time
import altseries
from altseries.harness import cross_validate

calls, row = int(sys.argv[1]), sys.argv[2]
crossval_t = [lam * lam / 4.0 for lam in json.loads(sys.argv[3])]
name, _, arg = row.partition("@")
if name == "cross_validate":
    def run():
        checks = cross_validate(crossval_t).checks
        return {"checks": len(checks),
                "failed": sum(not c.passed for c in checks)}
else:
    route, x = getattr(altseries, name), float(arg)
    def run():
        r = route(x)
        return {"value": r.value, "error_estimate": r.error_estimate}
result = run()
times = []
for _ in range(calls):
    start = time.perf_counter()
    run()
    times.append(time.perf_counter() - start)
print(json.dumps([1e3 * statistics.median(times), result]))
"""


def sample(checkout: Path, row: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-c", WARM, str(CALLS), row,
         json.dumps(CROSSVAL_LAMBDAS)],
        env=child_env(checkout), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{row} in {checkout} failed:\n"
                           f"{proc.stdout}{proc.stderr}")
    return tuple(json.loads(proc.stdout))


def main(argv=None) -> int:
    args, checkouts = parse_cli(__doc__, 21, "row", argv)

    labels = list(checkouts)
    ms = {(r, c): [] for r in ROWS for c in labels}
    results = {}
    for i in range(args.runs):
        for row in ROWS:
            for label in (labels if i % 2 == 0 else labels[::-1]):
                t, result = sample(checkouts[label], row)
                ms[row, label].append(t)
                first = results.setdefault((row, label), result)
                if result != first:
                    raise RuntimeError(f"{row} in {label} returned {result}, "
                                       f"then {first}")

    report = {
        "what": "warm route calls at a fixed lambda or t: the median of `calls` "
                "timed calls after one untimed call, in one fresh process "
                "per row and sample, interleaved across checkouts",
        "env": BENCH_ENV,
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "runs": args.runs,
        "calls": CALLS,
        "crossval_lambdas": "k/4, k = 4..48",
        "checkouts": {label: git_rev(path) for label, path in checkouts.items()},
        "rows": {row: {label: {"ms": quartiles(ms[row, label]),
                               **results[row, label]}
                       for label in labels}
                 for row in ROWS},
    }

    width = max(map(len, ROWS))
    print(f"{'median ms':<{width}}" + "".join(f"{label:>12}"
                                              for label in labels))
    for row in ROWS:
        print(f"{row:<{width}}" + "".join(
            f"{report['rows'][row][label]['ms']['median']:>12.4g}"
            for label in labels))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

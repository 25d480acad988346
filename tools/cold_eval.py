"""Time cold ``altseries eval`` processes, route by route, in one or more
checkouts.

Each sample is one fresh ``python -m altseries.cli eval --lambda 10
--method M --json`` process, or for the ``auto@30`` row the default
``eval --lambda 30 --json`` (auto runs residue there, as the benchmark's
tail workload does in its set-up), started in the benchmark's environment:
``PYTHONDONTWRITEBYTECODE=1`` (so every process compiles what it imports)
and one BLAS/OpenMP thread.  The samples are interleaved: every round runs
each route once in each checkout, and the checkout that goes first
alternates between rounds, so a drift in the machine's speed falls on all
of them alike.  A bare ``python -c pass`` row gives the interpreter's own
start-up.

For each route and checkout it reports the median wall time and its
quartiles, the median CPU time of the child (user + system, from
``os.wait4``), the value and error estimate printed, and the modules the
process loaded (those of altseries and whether numpy was among them, from
one more process that lists ``sys.modules`` after the same call).

Usage, from any directory:

    python3 tools/cold_eval.py [--runs N] [--out FILE.json] [LABEL=CHECKOUT ...]

Without a LABEL=CHECKOUT argument it times the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUTES = ("series", "hankel", "fourier2d", "residue", "asym")
BARE = "python -c pass"
# each row's eval arguments.  lambda = 10 lies inside all five routes'
# windows: residue and asym refuse below 8, and past about 24 the series
# and hankel values sink below their own error estimates.  The last row
# is the default call past auto's switch to residue.
EVALS = {**{route: ["--lambda", "10.0", "--method", route]
            for route in ROUTES},
         "auto@30": ["--lambda", "30.0"]}
# the benchmark's child environment
BENCH_ENV = {"PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# prints, after the eval, the altseries modules loaded and numpy if it was
MODULES = """
import json, sys
from altseries.cli import main
main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules
                        if m == "numpy" or m.split(".")[0] == "altseries")))
"""


def child_env(checkout: Path) -> dict:
    return {**os.environ, **BENCH_ENV, "PYTHONPATH": str(checkout / "src")}


def eval_argv(row: str) -> list:
    return ["eval", *EVALS[row], "--json"]


def timed(cmd: list, env: dict) -> tuple:
    """(wall s, child CPU s, output) of one process, which must exit 0."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.decode()}")
    return wall, usage.ru_utime + usage.ru_stime, out.decode()


def quartiles(xs: list) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 2), "median": round(q2, 2), "q3": round(q3, 2)}


def git_rev(checkout: Path):
    """The checkout's commit, marked -dirty when its tree differs; None
    outside git."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always",
                           "--dirty"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=25,
                   help="processes per route and checkout (default 25)")
    p.add_argument("--out", metavar="FILE.json",
                   help="also write the report here as JSON")
    p.add_argument("checkouts", nargs="*", metavar="LABEL=CHECKOUT")
    args = p.parse_args(argv)
    if args.runs < 4:
        p.error("--runs must be at least 4 for quartiles")
    checkouts = {}
    for spec in args.checkouts or [f"this={Path(__file__).resolve().parents[1]}"]:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "src" / "altseries").is_dir():
            p.error(f"{spec!r} is not LABEL=CHECKOUT with a src/altseries")
        checkouts[label] = Path(path).resolve()

    rows = (BARE, *EVALS)
    walls = {(r, c): [] for r in rows for c in checkouts}
    cpus = {(r, c): [] for r in rows for c in checkouts}
    printed = {}
    labels = list(checkouts)
    for i in range(args.runs):
        for row in rows:
            for label in (labels if i % 2 == 0 else labels[::-1]):
                env = child_env(checkouts[label])
                cmd = ([sys.executable, "-c", "pass"] if row == BARE else
                       [sys.executable, "-m", "altseries.cli",
                        *eval_argv(row)])
                wall, cpu, out = timed(cmd, env)
                walls[row, label].append(1e3 * wall)
                cpus[row, label].append(1e3 * cpu)
                if row != BARE:
                    printed.setdefault((row, label), json.loads(out))

    report = {
        "what": "cold `altseries eval ... --json`, one fresh process per "
                "sample, interleaved across checkouts",
        "env": BENCH_ENV,
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "runs": args.runs,
        "evals": {row: eval_argv(row) for row in EVALS},
        "checkouts": {label: git_rev(path) for label, path in checkouts.items()},
        "rows": {},
    }
    for row in rows:
        report["rows"][row] = {}
        for label, path in checkouts.items():
            entry = {"wall_ms": quartiles(walls[row, label]),
                     "cpu_ms": quartiles(cpus[row, label])}
            if row != BARE:
                result, = printed[row, label]["methods"].values()
                entry["value"] = result["value"]
                entry["error_estimate"] = result["error_estimate"]
                listed = subprocess.run(
                    [sys.executable, "-c", MODULES, *eval_argv(row)],
                    env=child_env(path), capture_output=True, text=True,
                    check=True)
                entry["modules"] = json.loads(listed.stdout.splitlines()[-1])
            report["rows"][row][label] = entry

    width = max(map(len, rows))
    print(f"{'median ms':<{width}}" + "".join(
        f"{label + ' wall / cpu':>26}" for label in labels))
    for row in rows:
        entries = report["rows"][row]
        print(f"{row:<{width}}" + "".join(
            f"{entries[label]['wall_ms']['median']:>17.1f} / "
            f"{entries[label]['cpu_ms']['median']:>6.1f}" for label in labels))
        for label in labels:
            if "modules" in entries[label]:
                print(f"    {label} loads: " + " ".join(
                    m.removeprefix("altseries.")
                    for m in entries[label]["modules"]))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

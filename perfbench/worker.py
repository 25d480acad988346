"""One workload process: set-up, then a timed or a traced closed loop.

Usage: python3 perfbench/worker.py JOB_JSON

JOB_JSON holds ``mode`` ("setup" or "run"), ``workload``, ``seed``,
``seconds``, ``trace`` and, for a traced run, ``spans_path``.  The process
prints one JSON line with what it measured and what the program returned;
the load generator (run.py) checks the answers.  A setup job imports
altseries, finishes the workload's warm-up request and reports the time
taken and the times of a few probes; with ``fingerprint`` set it then
records the accuracy fingerprint.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
from time import perf_counter

import workloads

_C = math.sqrt(math.pi / 2.0)

# lambda points of the accuracy fingerprint
FINGERPRINT_LAMBDAS = (0.0, 3.0, 10.0, 24.0, 30.0, 100.0)


def route_windows(harness) -> dict:
    """Where cross_validate admits each route; series is taken as far as
    hankel is still compared with it."""
    return {
        "series": (0.0, harness.HANKEL_COMPARE_WALL),
        "hankel": (0.0, harness.HANKEL_COMPARE_WALL),
        "fourier2d": (0.0, harness.FOURIER_WALL),
        "residue": (8.0, math.inf),
        "asym": (8.0, math.inf),
    }


def _figure(harness, request):
    table = harness.figure_data(request["lambda_min"], request["lambda_max"],
                                request["n"])
    return [[r.lam, m, v, e, r.scaled_numeric, r.scaled_asym]
            for r in table.rows for m, (v, e) in sorted(r.methods.items())]


def _tail(harness, request):
    out = harness.evaluate("auto", request["lambda"])
    return [out.method, out.value, out.error_estimate, out.work]


class RouteCapture:
    """Each route's (value, error estimate) as cross_validate obtains them.

    cross_validate returns only pairwise checks, so thin wrappers on its
    harness bindings keep the route results for the reference check.  They
    time nothing and add microseconds to a request of tenths of a second.
    """

    ROUTES = {"sum_alternating_s": "series", "hankel_s_star": "hankel",
              "fourier2d_s_star": "fourier2d",
              "s_star_via_residue": "residue", "asym_s_star": "asym",
              "error_envelope": "asym_error"}

    def __init__(self, harness):
        self.seen = {}
        for attr in self.ROUTES:
            setattr(harness, attr, self._wrap(attr, getattr(harness, attr)))

    def _wrap(self, attr, original):
        def captured(*args, **kwargs):
            result = original(*args, **kwargs)
            self.seen.setdefault(self.ROUTES[attr], (args[0], result))
            return result
        return captured

    def take(self) -> dict:
        seen, self.seen = self.seen, {}
        routes = {}
        for route in ("series", "hankel", "fourier2d"):
            if route in seen:
                out = seen[route][1]
                routes[route] = [out.value, out.error_estimate]
        if "residue" in seen:
            lam, out = seen["residue"]
            routes["residue"] = [out.unscaled_value,
                                 out.neglected_bound * math.exp(-lam * _C)]
        if "asym" in seen and "asym_error" in seen:
            routes["asym"] = [seen["asym"][1].value, seen["asym_error"][1]]
        return routes


def _crossval_call(harness, capture):
    def call(request):
        report = harness.cross_validate([request["t"]])
        return {"checks": [[c.name, c.passed, c.measured, c.threshold]
                           for c in report.checks],
                "routes": capture.take()}
    return call


def warm_up(workload: str):
    """Import the program and finish the workload's first request."""
    request = workloads.WARM_UP[workload]
    if workload == "cli_cold":
        from altseries import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(workloads.cli_argv(request))
        if code != 0:
            raise RuntimeError(f"warm-up eval exited with {code}")
        return
    from altseries import harness
    if workload == "figure":
        _figure(harness, request)
    elif workload == "crossval":
        harness.cross_validate([request["t"]])
    else:
        _tail(harness, request)


def fingerprint() -> list:
    """value, error_estimate and work of every admitted route at fixed
    lambda."""
    from altseries import harness
    rows = []
    for lam in FINGERPRINT_LAMBDAS:
        for route, (lo, hi) in route_windows(harness).items():
            if lo <= lam <= hi:
                out = harness.evaluate(route, lam)
                rows.append([lam, route, out.value, out.error_estimate,
                             out.work])
    return rows


def _run(job):
    workload = job["workload"]
    tracer = None
    if job["trace"]:
        from tracer import Tracer, aggregate
        tracer = Tracer()
        tracer.install()  # sees the warm-up fill the J0 zero cache
    warm_up(workload)
    if tracer:
        tracer.uninstall()

    from altseries import harness
    if workload == "figure":
        def call(request):
            return _figure(harness, request)
    elif workload == "tail":
        def call(request):
            return _tail(harness, request)
    else:
        call = _crossval_call(harness, RouteCapture(harness))

    stream = workloads.requests(workload, job["seed"])
    if not tracer:
        records, wall, probes = workloads.closed_loop(
            call, stream, job["seconds"], workloads.min_requests(workload),
            workloads.BLOCK.get(workload, 1))
        return {"records": records, "wall_s": wall, "probes_s": probes,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    tracer.reset()
    records, traced = workloads.paired_loop(
        call, call, stream, job["seconds"], 1, tracer.install,
        tracer.uninstall)
    with open(job["spans_path"], "w") as fh:
        json.dump(tracer.dump(), fh)
    return dict(workloads.replay_summary(records, traced), records=records,
                totals=aggregate([tracer.dump()]))


def main() -> int:
    start = perf_counter()
    job = json.loads(sys.argv[1])
    if job["mode"] == "setup":
        warm_up(job["workload"])
        result = {"setup_s": perf_counter() - start,
                  "probes_s": [workloads.cpu_probe() for _ in range(5)]}
        if job.get("fingerprint"):
            result["fingerprint"] = fingerprint()
    else:
        result = _run(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

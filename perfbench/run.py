"""altseries benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout that holds ``src/altseries``:

    python3 perfbench/run.py --workload figure --seed 1 --seconds 20 --trace 0

Workloads (workloads.py builds their requests; BENCHMARK.json says why
each exists): ``figure``, ``crossval``, ``tail`` and ``cli_cold``.

This process generates the load and checks the answers; it never imports
altseries.  The program runs in child processes started one at a time:
SETUP_REPEATS set-up processes (import plus the warm-up request, timed;
the last also records the accuracy fingerprint), then either one workload
process (worker.py) running the closed loop, or for ``cli_cold`` one
``python -m altseries.cli eval`` process per request.  Every answer is
checked against reference.py after the loop.

With ``--trace 0`` the loop runs for ``--seconds`` untraced (longer if
workloads.min_requests asks for more requests) and the end-to-end metrics
are reported; each time is scaled by the probes taken next to it (see
workloads.py), and the unscaled times are printed and reported next to
them.  With ``--trace 1`` each request is sent twice, untraced and then
with the tracer installed; the per-layer metrics come from the traced
sends, per lambda point (per process on cli_cold), their answers must be
bit-identical to the untraced ones, and the time of the two sends gives
the tracer's overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric with its unit and sample count, the fingerprint and the
machine.  The full report, and the spans of a traced run, are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import workloads
from tracer import aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0

# Known defect of the program: for lambda in this band the residue route's
# error estimate is below its true error, by up to 2.84 times.  The
# estimate's constant kappa is fitted on lambda in [10, 16] and extrapolated
# below.  cross_validate fails the residue pairs there, so crossval requests
# in the band pass the gate as flagged (see check_answers), and
# err_ratio_max on crossval reads the miss on every run.
KNOWN_DEFECT = ("residue", (7.5, 9.25))

END_TO_END = {
    "points_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_ratio_max": "ratio",
    "digits_certified_median": "digits",
}

# Per lambda point of the traced replay (per process on cli_cold).
PER_LAYER = {
    "bessel.j0.calls": "1/point",
    "bessel.j0.points": "1/point",
    "bessel.j0.series_points": "1/point",
    "bessel.j0.points_per_call": "1/call",
    "bessel.j0.self_s": "s/point",
    "bessel.j0.errors": "1/point",
    "bessel.j0_zeros.calls": "1/point",
    "bessel.j0_zeros.fills": "1/point",
    "bessel.j0_zeros.self_s": "s/point",
    "bessel.j0_zeros.errors": "1/point",
    "hankel.hankel_s_star.calls": "1/point",
    "hankel.hankel_s_star.work": "1/point",
    "hankel.hankel_s_star.self_s": "s/point",
    "hankel.hankel_s_star.errors": "1/point",
    "hankel.panel_quadrature.calls": "1/point",
    "hankel.panel_quadrature.panels": "1/point",
    "hankel.panel_quadrature.nodes": "1/point",
    "hankel.panel_quadrature.self_s": "s/point",
    "hankel.panel_quadrature.errors": "1/point",
    "fourier2d.fourier2d_s_star.calls": "1/point",
    "fourier2d.fourier2d_s_star.self_s": "s/point",
    "fourier2d.fourier2d_s_star.errors": "1/point",
    "fourier2d.inner_quadratures": "1/point",
    "residue.s_star_via_residue.calls": "1/point",
    "residue.s_star_via_residue.work": "1/point",
    "residue.s_star_via_residue.self_s": "s/point",
    "residue.s_star_via_residue.errors": "1/point",
    "residue.calibrated_kappa.calls": "1/point",
    "residue.calibrated_kappa.misses": "1/point",
    "residue.calibrated_kappa.self_s": "s/point",
    "residue.calibrated_kappa.errors": "1/point",
    "series.sum_alternating_s.calls": "1/point",
    "series.sum_alternating_s.work": "1/point",
    "series.sum_alternating_s.self_s": "s/point",
    "series.sum_alternating_s.errors": "1/point",
    "asymptotic.asym_s_star.calls": "1/point",
    "asymptotic.asym_s_star.self_s": "s/point",
    "asymptotic.asym_s_star.errors": "1/point",
    "harness.self_s": "s/point",
    "harness.errors": "1/point",
    "harness.residue_calls_per_point": "1/point",
    "cli.import_s": "s/point",
    "cli.main.self_s": "s/point",
    "cli.main.errors": "1/point",
    "trace.overhead_frac": "ratio",
}

# Route layers cli_cold reaches through each --method, besides cli, harness
# and the asymptotic term every process forms for its scaled output.
_CLI_LAYERS = {
    "series": {"series.sum_alternating_s"},
    "hankel": {"hankel.hankel_s_star", "hankel.panel_quadrature",
               "bessel.j0", "bessel.j0_zeros"},
    "fourier2d": {"fourier2d.fourier2d_s_star", "hankel.panel_quadrature"},
    "residue": {"residue.s_star_via_residue", "residue.calibrated_kappa",
                "hankel.hankel_s_star", "hankel.panel_quadrature",
                "bessel.j0", "bessel.j0_zeros"},
    "asym": set(),
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(env: dict, job: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {job['mode']} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CliClient:
    """One ``altseries.cli eval`` process per request, one at a time."""

    def __init__(self, env: dict, traced: bool):
        self.env = env
        self.traced = traced
        self.peak_rss_mb = 0.0
        self.dumps = []

    def __call__(self, request: dict) -> str:
        argv = workloads.cli_argv(request)
        spans = OUT / "cli-process-spans.json"
        if self.traced:
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "altseries.cli", *argv]
        with open(OUT / "cli-stderr.log", "ab") as err:
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                                    stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}")
        if self.traced:
            self.dumps.append(json.loads(spans.read_text()))
            spans.unlink()
        return out.decode()


def run_cli(env: dict, seed: int, seconds: float, trace: bool,
            spans_path: Path) -> dict:
    client = CliClient(env, traced=False)
    stream = workloads.requests("cli_cold", seed)
    if not trace:
        records, wall, probes = workloads.closed_loop(
            client, stream, seconds, workloads.min_requests("cli_cold"),
            workloads.BLOCK["cli_cold"], lambda: workloads.process_probe(env),
            workloads.PROCESS_PROBE[1])
        return {"records": records, "wall_s": wall, "probes_s": probes,
                "peak_rss_mb": client.peak_rss_mb}
    traced_client = CliClient(env, traced=True)
    records, traced = workloads.paired_loop(
        client, traced_client, stream, seconds, len(workloads.CLI_WINDOWS))
    spans_path.write_text(json.dumps({"processes": traced_client.dumps}))
    return dict(workloads.replay_summary(records, traced), records=records,
                totals=aggregate(traced_client.dumps),
                import_s=sum(d["import_s"] for d in traced_client.dumps))


def answers(workload: str, record: dict):
    """(route, lambda, value, error_estimate) of each answer in one request,
    and whether the request's own consistency checks hold."""
    request, out = record["request"], record["output"]
    if workload == "figure":
        rows = [(row[1], row[0], row[2], row[3]) for row in out]
        return rows, [row[1] for row in rows] == workloads.lambdas(request)
    lam = workloads.lambdas(request)[0]
    if workload == "tail":
        return [(out[0], lam, out[1], out[2])], True
    if workload == "crossval":
        routes = out["routes"]
        expected = {"series", "hankel", "fourier2d"}
        if lam >= 8.0:
            expected |= {"residue", "asym"}
        return ([(route, lam, v, e) for route, (v, e) in routes.items()],
                set(routes) == expected)
    obj = json.loads(out)
    ((method, answer),) = obj["methods"].items()
    named = {"asym": "asymptotic"}.get(request["method"], request["method"])
    return ([(method, lam, float(answer["value"]),
              float(answer["error_estimate"]))],
            float(obj["lambda"]) == lam and method == named)


def failed_verdicts(out: dict) -> list:
    """The routes each failed check of a cross_validate report compares,
    as sets of route names ("t=4:hankel-vs-residue" names hankel and
    residue; "t=16:residue-vs-asym-scaled" residue and asym)."""
    verdicts = []
    for name, passed, _, _ in out["checks"]:
        if not passed:
            pair = name.split(":", 1)[1].removesuffix("-scaled")
            verdicts.append({{"asymptotic": "asym"}.get(r, r)
                             for r in pair.split("-vs-")})
    return verdicts


def check_answers(workload: str, records: list, ref) -> dict:
    """The correctness gate: a request fails if it raised, returned a
    non-finite value, broke its own consistency checks or gave an answer
    that misses its reference.

    A crossval request returns cross_validate's report: each route's answer
    and the program's verdict on every pair of routes.  It also fails if a
    check failed without cause: every failed check must name a route that
    misses its reference (two routes inside their estimates always pass
    their pair check).  The one miss that does not fail a request is
    KNOWN_DEFECT, and only where the report itself fails that route's
    checks; such requests are counted as ``flagged``, and the miss shows in
    err_ratio_max.

    The accuracy metrics are properties of the inputs, so they are taken
    once per distinct (route, lambda), however often the stream repeats it.
    """
    failed, failed_lambdas, first_failure, distinct = 0, [], None, {}
    flagged, flagged_lambdas = 0, []
    known_route, (band_lo, band_hi) = KNOWN_DEFECT
    for record in records:
        ok = record["error"] is None
        if ok:
            try:
                points, ok = answers(workload, record)
                verdicts = (failed_verdicts(record["output"])
                            if workload == "crossval" else [])
            except (KeyError, TypeError, ValueError) as exc:
                points, ok, verdicts = [], False, []
                record = dict(record, error=f"unreadable output: {exc}")
            ok = ok and bool(points)
            missed, excused = set(), set()
            for route, lam, value, err in points:
                ratio = ref.ratio(lam, value, err)
                if not ratio <= 1.0:
                    missed.add(route)
                    if (workload == "crossval" and route == known_route
                            and band_lo <= lam <= band_hi):
                        excused.add(route)
                digits = (ref.digits_certified(lam, err)
                          if lam > 0 and 0 < err < math.inf else None)
                distinct[route, lam] = (ratio, digits)
            caught = set().union(*verdicts)
            ok = (ok and missed <= excused & caught
                  and all(pair & missed for pair in verdicts))
            if ok and missed:
                flagged += 1
                flagged_lambdas += workloads.lambdas(record["request"])
        if not ok:
            failed += 1
            failed_lambdas += workloads.lambdas(record["request"])
            first_failure = first_failure or record
    return {"failed": failed, "failed_lambdas": sorted(set(failed_lambdas)),
            "first_failure": first_failure, "flagged": flagged,
            "flagged_lambdas": sorted(set(flagged_lambdas)),
            "ratios": [r for r, _ in distinct.values()],
            "digits": [d for _, d in distinct.values() if d is not None]}


def check_fingerprint(rows: list, ref) -> dict:
    ratios = [ref.ratio(lam, value, err) for lam, _, value, err, _ in rows]
    return {"digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
            "rows": rows, "ratio_max": max(ratios),
            "ok": all(r <= 1.0 for r in ratios)}


def tail_latency(latencies: list, level: int):
    """The sorted ``latencies`` at ``level`` percent, and the number of
    samples beyond it."""
    rank = workloads.tail_rank(level, len(latencies))
    beyond = len(latencies) - rank
    if beyond < workloads.TAIL_SAMPLES:
        raise RuntimeError(f"{len(latencies)} requests leave only {beyond} "
                           f"samples beyond p{level}")
    return latencies[rank - 1], beyond


def busy_idle_layers(workload: str, totals: dict) -> dict:
    """Counts that must read 0 after set-up on this workload and do not:
    tail never reaches J0 or fourier2d, and the warm workloads never
    recalibrate kappa."""
    counts = {}
    if workload == "tail":
        for layer in ("bessel.j0", "fourier2d.fourier2d_s_star"):
            counts[f"{layer}.calls"] = totals[layer]["calls"]
    if workload != "cli_cold":
        counts["residue.calibrated_kappa.misses"] = totals[
            "residue.calibrated_kappa"]["misses"]
    return {name: n for name, n in counts.items() if n}


def expected_layers(workload: str, requests: list) -> set:
    """Layers the traced replay of these requests must have entered."""
    if workload == "cli_cold":
        layers = {"cli.main", "harness", "asymptotic.asym_s_star"}
        for request in requests:
            layers |= _CLI_LAYERS[request["method"]]
        return layers
    layers = {"harness", "hankel.panel_quadrature"}
    if workload == "figure":
        layers |= {"hankel.hankel_s_star", "bessel.j0", "bessel.j0_zeros",
                   "asymptotic.asym_s_star"}
    elif workload == "crossval":
        layers |= {"series.sum_alternating_s", "hankel.hankel_s_star",
                   "bessel.j0", "bessel.j0_zeros", "fourier2d.fourier2d_s_star",
                   "residue.calibrated_kappa"}
        if any(workloads.lambdas(r)[0] >= 8.0 for r in requests):
            layers |= {"residue.s_star_via_residue", "asymptotic.asym_s_star"}
    else:
        layers |= {"residue.s_star_via_residue", "residue.calibrated_kappa"}
    return layers


def per_layer(totals: dict, points: int, lam8_points: int, import_s: float,
              overhead: float) -> dict:
    j0 = totals["bessel.j0"]
    special = {
        "bessel.j0.points_per_call":
            j0.get("points", 0) / j0["calls"] if j0["calls"] else 0.0,
        "fourier2d.inner_quadratures":
            totals["fourier2d.fourier2d_s_star"]["inner_quadratures"] / points,
        "harness.residue_calls_per_point":
            (totals["residue.s_star_via_residue"]["calls"] / lam8_points
             if lam8_points else 0.0),
        "cli.import_s": import_s / points,
        "trace.overhead_frac": overhead,
    }
    values = {}
    for metric in PER_LAYER:
        if metric in special:
            values[metric] = special[metric]
        else:
            span, _, key = metric.rpartition(".")
            values[metric] = totals[span].get(key, 0) / points
    return values


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "mpmath": importlib.metadata.version("mpmath"),
            "platform": platform.platform()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps its child on the
    # way out, and CliClient waits for its process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "altseries" / "__init__.py").is_file():
        print(f"error: no altseries sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload, trace = args.workload, bool(args.trace)
    OUT.mkdir(exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{name}.json"
    env = child_env()

    # Byte-code caches are written once here, so set-up times never
    # include compiling the package.
    subprocess.run([sys.executable, "-c", "import altseries.cli"], env=env,
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    setups = []
    for i in range(SETUP_REPEATS):
        setups.append(run_worker(env, {"mode": "setup", "workload": workload,
                                       "fingerprint": i == SETUP_REPEATS - 1},
                                 CHILD_TIMEOUT_S))
        if workload == "cli_cold":  # its set-up is mostly a process start
            setups[-1]["probes_s"] = [workloads.process_probe(env)]
    if workload == "cli_cold":
        result = run_cli(env, args.seed, args.seconds, trace, spans_path)
    else:
        result = run_worker(env, {"mode": "run", "workload": workload,
                                  "seed": args.seed, "seconds": args.seconds,
                                  "trace": trace,
                                  "spans_path": str(spans_path)},
                            CHILD_TIMEOUT_S + 2 * args.seconds)

    # Imported only now: a cli_cold child's peak memory as the kernel
    # reports it includes this process's memory at the fork, so this
    # process stays small while the load runs.
    from reference import Reference

    ref = Reference()
    records = result["records"]
    gate = check_answers(workload, records, ref)
    fingerprint = check_fingerprint(setups[-1]["fingerprint"], ref)
    lams = [lam for r in records for lam in workloads.lambdas(r["request"])]
    points = len(lams)
    report = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "requests": len(records), "points": points,
        "wall_s": result["wall_s"],
        "failed": gate["failed"],
        "failed_frac": gate["failed"] / len(records),
        "failed_lambdas": gate["failed_lambdas"],
        "first_failure": gate["first_failure"],
        "flagged": gate["flagged"],
        "flagged_lambdas": gate["flagged_lambdas"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_probes_s": [p for s in setups for p in s["probes_s"]],
        "fingerprint": fingerprint,
    }
    correct = gate["failed"] == 0 and fingerprint["ok"]
    if trace:
        requests = [r["request"] for r in records]
        missing = sorted(layer for layer in expected_layers(workload, requests)
                         if result["totals"][layer]["calls"] == 0)
        busy = busy_idle_layers(workload, result["totals"])
        values = per_layer(result["totals"], points,
                           sum(lam >= 8.0 for lam in lams),
                           result.get("import_s", 0.0), result["overhead_frac"])
        units = PER_LAYER
        report.update(identical=result["identical"], layers_not_entered=missing,
                      expected_zeros_broken=busy,
                      spans=str(spans_path.relative_to(ROOT)))
        correct = correct and result["identical"] and not missing and not busy
    else:
        tail_level = workloads.TAIL_LEVEL[workload]
        # scale each time to the nominal machine (see workloads.py)
        nominal = (workloads.PROCESS_PROBE if workload == "cli_cold"
                   else workloads.CPU_PROBE)[0]
        scales = workloads.request_scales(len(records), result["probes_s"],
                                          nominal)
        setup_scales = [nominal / statistics.median(s["probes_s"])
                        for s in setups]
        raw = [r["latency_s"] for r in records]
        timed = {}
        for label, latencies, setup in (
                ("unscaled", raw, report["setup_samples_s"]),
                ("scaled", [t * k for t, k in zip(raw, scales)],
                 [t * k for t, k in zip(report["setup_samples_s"],
                                        setup_scales)])):
            latencies = sorted(latencies)
            tail_s, beyond = tail_latency(latencies, tail_level)
            timed[label] = {
                "points_per_s": points / sum(latencies),
                "latency_p50_ms": 1e3 * statistics.median(latencies),
                "latency_tail_ms": 1e3 * tail_s,
                "setup_s": statistics.median(setup),
            }
        unscaled = timed["unscaled"]
        report.update(latency_tail_level=tail_level,
                      latency_tail_beyond=beyond, unscaled=unscaled,
                      loop_probes_s=result["probes_s"],
                      scale_median=statistics.median(scales),
                      setup_scales=setup_scales)
        values = dict(timed["scaled"],
                      peak_rss_mb=result["peak_rss_mb"],
                      err_ratio_max=max(gate["ratios"], default=math.inf),
                      digits_certified_median=statistics.median(
                          gate["digits"]) if gate["digits"] else 0.0)
        units = END_TO_END
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    report.update(correct=correct, metrics=metrics)
    (OUT / f"report-{name}.json").write_text(json.dumps(report, indent=1))

    print(f"{name}: {len(records)} requests, {points} points in "
          f"{result['wall_s']:.2f} s, failed {gate['failed']} "
          f"(failed_frac {report['failed_frac']:.4g})")
    for m, v in metrics.items():
        note = ""
        if m in ("points_per_s", "latency_p50_ms"):
            note = f"  (n={len(records)}; unscaled {unscaled[m]:.6g})"
        elif m == "latency_tail_ms":
            note = (f"  (p{tail_level}, {beyond} samples beyond, "
                    f"n={len(records)}; unscaled {unscaled[m]:.6g})")
        elif m == "setup_s":
            note = (f"  (median of {len(setups)}; unscaled "
                    f"{unscaled[m]:.6g})")
        elif m in ("err_ratio_max", "digits_certified_median"):
            note = f"  (over {len(gate['ratios'])} distinct route, lambda)"
        print(f"  {m:<36} {v['value']:.6g} {v['unit']}{note}")
    if trace:
        print(f"  replay bit-identical: {result['identical']}; "
              f"layers not entered: {missing or 'none'}; "
              f"expected zeros broken: {busy or 'none'}")
    if gate["flagged"]:
        print(f"  {gate['flagged']} requests flagged: known defect, "
              f"{KNOWN_DEFECT[0]} missed its reference and cross_validate "
              f"failed it, at lambda {gate['flagged_lambdas']}")
    if gate["failed"]:
        print(f"  failed at lambda {gate['failed_lambdas']}; first: "
              f"{json.dumps(gate['first_failure'])[:400]}")
    print(f"  fingerprint {fingerprint['digest'][:16]} "
          f"(max ratio {fingerprint['ratio_max']:.3g})")
    print(f"  machine: {json.dumps(report['provenance'])}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": gate["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

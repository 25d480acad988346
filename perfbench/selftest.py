"""Self-test of the benchmark.

Usage, from the root of a checkout: python3 perfbench/selftest.py

1. The reference reproduces the suite's 40-digit oracle
   (tests/oracle_values.py) at every shared point with lambda <= 25.
2. A short run of every workload, untraced and traced, prints every metric
   BENCHMARK.json names, with its unit, and fails no request.
3. The gate catches a bad answer: when harness.evaluate shifts each value
   by 1e-6, requests fail (see check_gate_catches_perturbation).
4. The crossval gate catches a wrong report: an error every route shares,
   which no pair check can see; an error of one route that the pair checks
   catch, outside run.KNOWN_DEFECT; and a pair check failed without cause
   (see check_crossval_gate).
5. In a directory holding only BENCHMARK.json and perfbench, run.py exits
   non-zero without printing a result.

Exits 0 when every part holds.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import json
import math
import shutil
import subprocess
import sys

import run
import worker
import workloads
from reference import Reference

SECONDS = "3"
SEED = 7


def check_oracle(ref: Reference) -> None:
    spec = importlib.util.spec_from_file_location(
        "oracle_values", run.ROOT / "tests" / "oracle_values.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    shared = [(lam, v) for lam, v in oracle.S_STAR.items() if lam <= 25.0]
    shared += [(2.0 * math.sqrt(t), v) for t, v in oracle.S_T.items()
               if t <= 156.25 and math.sqrt(t) == int(math.sqrt(t))]
    for lam, value in shared:
        got = float(ref.series(lam))
        assert abs(got - value) <= 2 * math.ulp(value), (lam, got, value)
    print(f"reference matches the oracle at {len(shared)} points")


def check_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 workload, "--seed", str(SEED), "--seconds", SECONDS,
                 "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            report = json.loads((run.OUT / f"report-{workload}-seed{SEED}-"
                                 f"trace{trace}.json").read_text())
            assert result["failed"] == 0, (workload, trace,
                                           report["first_failure"])
            assert report["fingerprint"]["ok"], report["fingerprint"]
            if trace:
                assert report["identical"], (workload, "replay differs")
                assert not report["layers_not_entered"], report
                assert not report["expected_zeros_broken"], report
            assert result["correct"], result
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            assert got == expected, (workload, trace, got)
            for name in expected:
                assert name in proc.stdout.split("\n", 1)[1], name
            print(f"{workload} trace {trace}: {result['attempted']} requests, "
                  f"none failed, flagged at lambda "
                  f"{report['flagged_lambdas'] or 'none'}, "
                  f"{len(got)} metrics with units")


def check_gate_catches_perturbation(ref: Reference) -> None:
    """Sends the same requests with harness.evaluate answering correctly and
    then shifted: by 1e-6 absolute on the tail workload, and by a relative
    1e-6 at lambda in [5, 25], where the series reference resolves it.
    (Beyond lambda = 25 the gate is the asymptotic law, whose allowance is
    0.1-10% of |S*|, so a relative shift of 1e-6 passes there.)"""
    sys.path.insert(0, str(run.ROOT / "src"))
    from altseries import harness

    def call(request):
        out = harness.evaluate("auto", request["lambda"])
        return [out.method, out.value, out.error_estimate, out.work]

    near = ({"lambda": 5.0 + 0.5 * k} for k in itertools.cycle(range(41)))
    evaluate = harness.evaluate
    for label, stream, shift in (
            ("tail, +1e-6", workloads.requests("tail", 7), lambda v: v + 1e-6),
            ("lambda in [5, 25], *(1+1e-6)", near, lambda v: v * (1 + 1e-6))):
        clean, _, _ = workloads.closed_loop(call, stream, 0.5, 10)
        assert run.check_answers("tail", clean, ref)["failed"] == 0

        def shifted(*args, **kwargs):
            out = evaluate(*args, **kwargs)
            return type(out)(shift(out.value), out.error_estimate, out.work,
                             out.method)

        harness.evaluate = shifted
        try:
            bad, _, _ = workloads.closed_loop(
                call, (r["request"] for r in clean), math.inf)
        finally:
            harness.evaluate = evaluate
        failed = run.check_answers("tail", bad, ref)["failed"]
        assert failed > 0, label
        print(f"perturbed evaluate ({label}): failed_frac "
              f"{failed / len(bad):.3g} over {len(bad)} requests")


def check_crossval_gate(ref: Reference) -> None:
    """Sends crossval requests at lambda in [1, 4] with cross_validate
    answering correctly, then with every route's value shifted by a
    relative 1e-6 (the pairs still agree, so only the reference sees it),
    then with hankel's alone shifted (its pair checks fail), then with every
    pair check failed although the routes agree."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from altseries import harness

    stream = [{"t": lam * lam / 4.0} for lam in (1.0, 2.0, 3.0, 4.0)]
    routes = ("sum_alternating_s", "hankel_s_star", "fourier2d_s_star")
    originals = {attr: getattr(harness, attr)
                 for attr in (*routes, "_pair_check")}

    def shifted(original):
        def call(*args, **kwargs):
            out = original(*args, **kwargs)
            return dataclasses.replace(out, value=out.value * (1 + 1e-6))
        return call

    def false_alarm(*args, **kwargs):
        return dataclasses.replace(originals["_pair_check"](*args, **kwargs),
                                   passed=False)

    def send(patches):
        for attr, fn in patches.items():
            setattr(harness, attr, fn)
        try:
            call = worker._crossval_call(harness, worker.RouteCapture(harness))
            records, _, _ = workloads.closed_loop(call, iter(stream), math.inf)
        finally:
            for attr, fn in originals.items():
                setattr(harness, attr, fn)
        return run.check_answers("crossval", records, ref)

    clean = send({})
    assert clean["failed"] == 0 and clean["flagged"] == 0, clean
    for label, patches in (
            ("every route *(1+1e-6)",
             {attr: shifted(originals[attr]) for attr in routes}),
            ("hankel *(1+1e-6)",
             {"hankel_s_star": shifted(originals["hankel_s_star"])}),
            ("every pair check failed", {"_pair_check": false_alarm})):
        gate = send(patches)
        assert gate["failed"] == len(stream), (label, gate)
        print(f"crossval gate ({label}): {gate['failed']} of {len(stream)} "
              f"requests failed")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "tail",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"bare directory: exit code {proc.returncode}, no result")


def main() -> int:
    ref = Reference()
    check_oracle(ref)
    check_gate_catches_perturbation(ref)
    check_crossval_gate(ref)
    check_bare_directory()
    check_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

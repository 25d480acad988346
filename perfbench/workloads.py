"""Seeded request streams and warm-up requests of the four workloads.

Each workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Inputs come from additive recurrences
with a seeded start (Roberts' R_d sequences) or from seeded permutations of
a lattice, so any prefix of a stream covers its input range evenly.  The
mix of cheap and costly requests, and with it every median, then depends
little on the seed, while the inputs themselves do.

On a machine whose cores are shared with other tenants, the same work can
take half again as long in one second as in the next.  A run therefore
times a fixed probe between requests, and run.py scales each request's
latency by the probe's nominal time over the median of the three probes
taken nearest to it: times are reported for a machine that runs the probe
in its nominal time.  The probe is work of the kind the requests do:
interpreter and floating-point work (cpu_probe) for the workloads that run
in one process, and starting an interpreter that imports numpy
(process_probe) for cli_cold.  Set-up times are scaled the same way, each
by the probes its own process took.

This module imports nothing from altseries; the benchmark's load generator
and its workload processes share it.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
from time import perf_counter

WORKLOADS = ("figure", "crossval", "tail", "cli_cold")

# figure: lambda grids on the 1/4 lattice of [5, 25].  Binary fractions keep
# every grid point figure_data forms exact, so requests share references.
FIGURE_LO = 5.0
FIGURE_STEP = 0.25
FIGURE_CELLS = 80
FIGURE_POINTS = (4, 10)

# crossval: lambda = k/4 on [1, 12], sent in passes over all of them; a pass
# is sent as three strata, k mod 3, each of which spans [1, 12] evenly
CROSSVAL_KS = tuple(range(4, 49))
CROSSVAL_STRATA = 3

TAIL_LAMBDA = (25.0, 400.0)

# cli_cold: each route at CLI_POINTS lambdas spread over its own window, in
# seeded order.  residue and asym start where cross_validate admits them;
# asym stays where the series reference checks it.
CLI_POINTS = 7

CLI_WINDOWS = {
    "series": (1.0, 24.0),
    "hankel": (1.0, 24.0),
    "fourier2d": (1.0, 12.0),
    "residue": (8.0, 100.0),
    "asym": (8.0, 25.0),
}

# Tail percentile per workload, in percent.  Every timed run sends at least
# min_requests(workload) requests, so TAIL_SAMPLES samples lie beyond it.
# A level falls among like requests, not on the edge between two kinds: a
# figure block holds one grid of each size 4-10, so p70 would read the
# slowest 8-point grid of the run, while p78 reads a middling 9-point one.
TAIL_LEVEL = {"figure": 78, "crossval": 75, "tail": 99, "cli_cold": 70}
TAIL_SAMPLES = 10
# A timed run ends only after a whole block of requests: one request per
# grid size on figure, one stratum of crossval's lambdas, one request per
# route on cli_cold.  Every run then sends nearly the same mix of cheap and
# costly requests.  Runs also send at least one whole pass over crossval's
# lambdas, so its accuracy metrics see every input, and over every route's
# lambdas on cli_cold.
BLOCK = {"figure": FIGURE_POINTS[1] - FIGURE_POINTS[0] + 1,
         "crossval": len(CROSSVAL_KS) // CROSSVAL_STRATA,
         "cli_cold": len(CLI_WINDOWS)}
FLOOR = {"crossval": len(CROSSVAL_KS),
         "cli_cold": CLI_POINTS * len(CLI_WINDOWS)}

# (nominal seconds, seconds between probes in a loop) of each probe
CPU_PROBE = (5e-3, 0.1)
PROCESS_PROBE = (0.2, 1.0)

WARM_UP = {
    "figure": {"lambda_min": 5.0, "lambda_max": 25.0, "n": 2},
    "crossval": {"t": 36.0},
    "tail": {"lambda": 30.0},
    "cli_cold": {"method": "residue", "lambda": 30.0},
}


def _recurrence(rng: random.Random, dims: int):
    """x_i = frac(x_0 + i * alpha) with Roberts' alpha for ``dims`` axes."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(k + 1) for k in range(dims)]
    start = [rng.random() for _ in range(dims)]
    i = 0
    while True:
        yield [(s + i * a) % 1.0 for s, a in zip(start, alpha)]
        i += 1


def _figure(rng):
    # every block sends each grid size once, in seeded order
    lo, hi = FIGURE_POINTS
    sizes = list(range(lo, hi + 1))
    cells = _recurrence(rng, 2)
    while True:
        rng.shuffle(sizes)
        for n in sizes:
            v, w = next(cells)
            stride = 1 + int(v * (FIGURE_CELLS // (n - 1)))
            first = int(w * (FIGURE_CELLS - (n - 1) * stride + 1))
            a = FIGURE_LO + FIGURE_STEP * first
            b = a + FIGURE_STEP * (n - 1) * stride
            yield {"lambda_min": a, "lambda_max": b, "n": n}


def _crossval(rng):
    strata = [[k for k in CROSSVAL_KS if k % CROSSVAL_STRATA == r]
              for r in range(CROSSVAL_STRATA)]
    while True:
        rng.shuffle(strata)
        for ks in strata:
            rng.shuffle(ks)
            for k in ks:
                lam = k / 4.0
                yield {"t": lam * lam / 4.0}


def _tail(rng):
    lo, hi = TAIL_LAMBDA
    for (u,) in _recurrence(rng, 1):
        yield {"lambda": lo * (hi / lo) ** u}


def _cli_cold(rng):
    # every block of five requests sends each route once, so any prefix
    # holds the routes in equal shares; each route cycles through its own
    # lambdas in seeded order
    lams = {route: [lo + (hi - lo) * (i + 0.5) / CLI_POINTS
                    for i in range(CLI_POINTS)]
            for route, (lo, hi) in CLI_WINDOWS.items()}
    for route in lams:
        rng.shuffle(lams[route])
    routes = list(CLI_WINDOWS)
    for block in itertools.count():
        rng.shuffle(routes)
        for route in routes:
            yield {"method": route,
                   "lambda": lams[route][block % CLI_POINTS]}


_STREAMS = {"figure": _figure, "crossval": _crossval, "tail": _tail,
            "cli_cold": _cli_cold}


def requests(workload: str, seed: int):
    """Endless request stream of ``workload``; equal seeds, equal streams."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def lambdas(request: dict) -> list:
    """The lambda points one request asks for, as the program forms them."""
    if "n" in request:
        a, b, n = request["lambda_min"], request["lambda_max"], request["n"]
        step = (b - a) / (n - 1)
        return [a + step * i for i in range(n - 1)] + [b]
    if "t" in request:
        return [2.0 * math.sqrt(request["t"])]
    return [request["lambda"]]


def tail_rank(level: int, n: int) -> int:
    """1-based rank of the ``level`` percentile among ``n`` sorted samples."""
    return max(1, -(-level * n // 100))


def min_requests(workload: str) -> int:
    level, block = TAIL_LEVEL[workload], BLOCK.get(workload, 1)
    n = max(TAIL_SAMPLES, FLOOR.get(workload, 1))
    while n - tail_rank(level, n) < TAIL_SAMPLES or n % block:
        n += 1
    return n


def cli_argv(request: dict) -> list:
    return ["eval", "--lambda", repr(request["lambda"]),
            "--method", request["method"], "--json"]


def cpu_probe() -> float:
    """Seconds for a fixed piece of interpreter and floating-point work."""
    xs = [0.04 * i for i in range(24)]
    t0 = perf_counter()
    acc = 0.0
    for k in range(800):
        acc += sum(math.cos(x * k) * math.exp(-x) for x in xs) + math.sqrt(k)
    return perf_counter() - t0


def process_probe(env: dict) -> float:
    """Seconds for a fresh interpreter to start and import numpy, the
    program's compiled dependency: what a CLI process does before it
    reaches altseries."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                   check=True, capture_output=True, timeout=60)
    return perf_counter() - t0


def _send(call, request) -> dict:
    t0 = perf_counter()
    try:
        output, error = call(request), None
    except Exception as exc:  # a failed request is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    return {"request": request, "latency_s": perf_counter() - t0,
            "output": output, "error": error}


def closed_loop(call, stream, seconds: float, min_requests: int = 1,
                block: int = 1, probe=cpu_probe,
                probe_every_s: float = CPU_PROBE[1]):
    """Send requests from ``stream`` one after another until ``seconds``
    have passed, at least ``min_requests`` were sent and the count is a
    multiple of ``block``; between requests, run ``probe`` every
    ``probe_every_s``.  Returns the per-request records, the loop's wall
    time and the probes as [requests sent before it, seconds]."""
    records, probes = [], []
    start = next_probe = perf_counter()
    deadline = start + seconds
    for request in stream:
        records.append(_send(call, request))
        now = perf_counter()
        if now >= next_probe:
            probes.append([len(records), probe()])
            next_probe = now + probe_every_s
        if (now >= deadline and len(records) >= min_requests
                and len(records) % block == 0):
            break
    return records, perf_counter() - start, probes


def request_scales(n: int, probes: list, nominal: float) -> list:
    """Scale of each of ``n`` requests: ``nominal`` over the median of the
    first probe taken after the request and that probe's two neighbours.  Requests
    after the last probe take the last one's."""
    times = [seconds for _, seconds in probes]
    scales, j = [], 0
    for i in range(1, n + 1):
        while j < len(probes) - 1 and probes[j][0] < i:
            j += 1
        near = times[max(0, j - 1):j + 2]
        scales.append(nominal / sorted(near)[len(near) // 2])
    return scales


def paired_loop(call, traced_call, stream, seconds: float, min_requests: int,
                trace_on=None, trace_off=None):
    """Send each request twice, untraced and then traced, until ``seconds``
    have passed and at least ``min_requests`` were sent.  ``trace_on`` and
    ``trace_off`` run around each traced request, outside its timing.
    Returns the untraced and the traced records."""
    plain, traced = [], []
    deadline = perf_counter() + seconds
    for request in stream:
        plain.append(_send(call, request))
        if trace_on:
            trace_on()
        try:
            traced.append(_send(traced_call, request))
        finally:
            if trace_off:
                trace_off()
        if perf_counter() >= deadline and len(plain) >= min_requests:
            break
    return plain, traced


def replay_summary(plain: list, traced: list) -> dict:
    """Whether the traced answers equal the untraced ones bit for bit, the
    tracer's cost as traced over untraced time less one, and the untraced
    time."""
    plain_s = sum(r["latency_s"] for r in plain)
    return {"identical": [(r["output"], r["error"]) for r in plain]
            == [(r["output"], r["error"]) for r in traced],
            "overhead_frac": sum(r["latency_s"] for r in traced) / plain_s - 1.0,
            "wall_s": plain_s}

"""Outside-in tracer: spans around the calls into each altseries layer.

Every module attribute a layer function is reached through is replaced by
a wrapper, so a call is seen whichever binding its caller looked up
(several modules import a function at call time from its home module).
A span records its name, start, end, parent span and a few counts taken
from the arguments or the result.  Spans stay in memory until the caller
writes them out.  ``_dd`` and ``poles`` are not wrapped: they run per
element inside J0, the series and the residue route, and are measured
through those callers.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

HARNESS_ENTRY_POINTS = ("evaluate", "cross_validate", "figure_data")

# span name -> the (module, attribute) bindings wrapped under that name
BINDINGS = {
    "bessel.j0": (("bessel", "bessel_j0"), ("hankel", "bessel_j0")),
    "bessel.j0_zeros": (("bessel", "j0_zeros"), ("fourier2d", "j0_zeros")),
    "hankel.panel_quadrature": (("hankel", "panel_quadrature"),
                                ("fourier2d", "panel_quadrature")),
    "hankel.hankel_s_star": (("hankel", "hankel_s_star"),
                             ("harness", "hankel_s_star")),
    "residue.s_star_via_residue": (("residue", "s_star_via_residue"),
                                   ("harness", "s_star_via_residue")),
    "residue.calibrated_kappa": (("residue", "calibrated_kappa"),
                                 ("harness", "calibrated_kappa")),
    "fourier2d.fourier2d_s_star": (("harness", "fourier2d_s_star"),),
    "series.sum_alternating_s": (("harness", "sum_alternating_s"),),
    "asymptotic.asym_s_star": (("harness", "asym_s_star"),),
    "harness": tuple(("harness", f) for f in HARNESS_ENTRY_POINTS),
}

SPAN_NAMES = tuple(BINDINGS) + ("cli.main",)


class Tracer:
    """Collects spans from wrappers it installs; one thread only."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, counts]
        self.errors = dict.fromkeys(SPAN_NAMES, 0)
        self.zeros_seen = 0  # largest k_max asked of j0_zeros so far
        self._stack = []
        self._saved = []

    def reset(self):
        """Drop spans and error counts; keep what the zero cache has seen."""
        self.spans = []
        self.errors = dict.fromkeys(SPAN_NAMES, 0)

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        span[4] = self._counts(name, args, kwargs, result)
        return result

    def _counts(self, name, args, kwargs, result):
        if name == "bessel.j0":
            import numpy as np
            from altseries import bessel
            u = np.abs(np.asarray(args[0] if args else kwargs["u"],
                                  dtype=float))
            # the |u| up to which bessel_j0 sums its double-double series
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
            cutoff = (cfg or bessel._DEFAULT_CFG).series_cutoff
            return {"points": u.size,
                    "series_points": int(np.count_nonzero(u <= cutoff))}
        if name == "bessel.j0_zeros":
            k_max = args[0] if args else kwargs["k_max"]
            fill = k_max > self.zeros_seen
            self.zeros_seen = max(self.zeros_seen, k_max)
            return {"fills": int(fill)}
        if name == "hankel.panel_quadrature":
            edges = args[1] if len(args) > 1 else kwargs["edges"]
            return {"panels": len(edges) - 1, "nodes": result[4]}
        if name in ("hankel.hankel_s_star", "residue.s_star_via_residue",
                    "series.sum_alternating_s"):
            return {"work": result.work}
        return None

    def install(self):
        """Wrap every binding; undo with :meth:`uninstall`."""
        for name, bindings in BINDINGS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(f"altseries.{module_name}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))

    def _wrapper(self, name, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)
        return traced

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "errors": self.errors}


def aggregate(dumps) -> dict:
    """Per-span-name totals over the dumps of one or more processes.

    Self time is a span's duration minus the durations of its child spans
    (one thread, so children never overlap).  Two derived counts: a
    ``calibrated_kappa`` call that ran Hankel evaluations is a miss of its
    cache, and a ``panel_quadrature`` nested inside the outer quadrature of
    ``fourier2d_s_star`` is one inner transform.
    """
    totals = {name: {"calls": 0, "self_s": 0.0, "errors": 0}
              for name in SPAN_NAMES}
    totals["fourier2d.fourier2d_s_star"]["inner_quadratures"] = 0
    totals["residue.calibrated_kappa"]["misses"] = 0
    for dump in dumps:
        spans = dump["spans"]
        child_s = [0.0] * len(spans)
        missed = set()
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                if (name == "hankel.hankel_s_star"
                        and spans[parent][0] == "residue.calibrated_kappa"):
                    missed.add(parent)
        for i, (name, start, end, parent, counts) in enumerate(spans):
            layer = totals[name]
            layer["calls"] += 1
            layer["self_s"] += (end - start) - child_s[i]
            for key, value in (counts or {}).items():
                layer[key] = layer.get(key, 0) + value
            if name == "hankel.panel_quadrature" and parent >= 0:
                outer = spans[parent]
                if (outer[0] == "hankel.panel_quadrature" and outer[3] >= 0
                        and spans[outer[3]][0] == "fourier2d.fourier2d_s_star"):
                    totals["fourier2d.fourier2d_s_star"]["inner_quadratures"] += 1
        totals["residue.calibrated_kappa"]["misses"] += len(missed)
        for name, count in dump["errors"].items():
            totals[name]["errors"] += count
    return totals

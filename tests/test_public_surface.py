"""Names other code reaches into: the package's ``__all__`` lists and the
attributes the benchmark in ``perfbench/`` wraps or reads.

The benchmark's own self-test takes minutes; these checks take well under
a second, so a deletion that would break a traced benchmark run fails the
unit suite first.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import altseries
from altseries import bessel, harness
from altseries.core import WINDOWS
from altseries.residue import ResidueResult

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(altseries.__path__))


def _load(name, monkeypatch):
    """Import perfbench/<name>.py by path, its siblings importable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [None] + MODULES)
def test_every_all_entry_resolves(name):
    module = altseries if name is None else importlib.import_module(
        f"altseries.{name}")
    missing = [a for a in getattr(module, "__all__", ())
               if not hasattr(module, a)]
    assert missing == []


def test_tracer_bindings_exist(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    missing = [(m, a) for bindings in tracer.BINDINGS.values()
               for m, a in bindings
               if not hasattr(importlib.import_module(f"altseries.{m}"), a)]
    assert missing == []


def test_worker_reaches_only_existing_names(monkeypatch):
    worker = _load("worker", monkeypatch)
    missing = [a for a in worker.RouteCapture.ROUTES if not hasattr(harness, a)]
    assert missing == []
    # reads harness.HANKEL_COMPARE_WALL and harness.FOURIER_WALL
    assert set(worker.route_windows(harness)) >= {"series", "hankel",
                                                  "fourier2d"}
    assert {"unscaled_value", "neglected_bound"} <= set(dir(ResidueResult))


def test_worker_window_edges_match_the_table():
    # perfbench's worker writes the residue and asym lower edges as a
    # literal 8.0, and reads two more edges under harness's names
    assert WINDOWS["residue"].lo == WINDOWS["asymptotic"].lo == 8.0
    assert harness.HANKEL_COMPARE_WALL == WINDOWS["hankel"].compare_hi
    assert harness.FOURIER_WALL == WINDOWS["fourier2d"].hi


def test_tracer_reads_the_j0_cutoff():
    # the tracer's bessel.j0.series_points counts |u| <= this cutoff, so it
    # must be the switch bessel_j0 uses
    assert bessel._DEFAULT_CFG.series_cutoff == bessel.SERIES_CUTOFF


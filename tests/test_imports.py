"""What a cold process imports: only the routes it runs.

Each check runs in a fresh interpreter, since this one has long since
imported every module, and reads ``sys.modules`` there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ROUTE_MODULES = {"altseries.series", "altseries.bessel", "altseries._j0_table",
                 "altseries.hankel", "altseries.fourier2d",
                 "altseries.residue", "altseries.poles"}


def _fresh(code: str) -> str:
    """Last line of stdout of ``code``, run in a new interpreter on this
    checkout's ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded_after(code: str) -> set:
    return set(json.loads(_fresh(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")))


def _loaded_after_eval(method: str) -> set:
    # lambda = 10 lies inside every route's window
    return _loaded_after(
        "from altseries.cli import main\n"
        f"assert main(['eval', '--lambda', '10', '--method', '{method}']) == 0")


def test_cli_import_loads_no_route_and_no_numpy():
    loaded = _loaded_after("import altseries.cli")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("altseries")} == {
        "altseries", "altseries.core", "altseries.asymptotic",
        "altseries.harness", "altseries.cli"}


def test_asym_eval_loads_no_numpy():
    loaded = _loaded_after_eval("asym")
    assert "numpy" not in loaded
    assert not loaded & ROUTE_MODULES


def test_series_eval_loads_no_other_route():
    loaded = _loaded_after_eval("series")
    assert "numpy" not in loaded
    assert loaded & ROUTE_MODULES == {"altseries.series"}


@pytest.mark.parametrize("method", ["series", "hankel", "fourier2d",
                                    "residue", "asym", "auto"])
def test_eval_leaves_the_acceptance_checklist_unloaded(method):
    assert "altseries.acceptance" not in _loaded_after_eval(method)


def test_verify_loads_the_acceptance_checklist():
    loaded = _loaded_after(
        "from altseries.cli import main\n"
        "assert main(['verify', '--quick']) == 0")
    assert "altseries.acceptance" in loaded


def test_spies_set_before_any_route_are_called():
    calls = json.loads(_fresh("""
import json
from altseries import harness

calls = []


def spy(name):
    original = getattr(harness, name)  # binds it: no route has run yet

    def call(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    setattr(harness, name, call)


spy("sum_alternating_s")
spy("hankel_s_star")
harness.evaluate("series", 2.0)
harness.evaluate("hankel", 2.0)
harness.cross_validate([1.0])
print(json.dumps(calls))
"""))
    assert calls == ["sum_alternating_s", "hankel_s_star"] * 2

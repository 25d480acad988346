"""The three scripts in ``demos/`` run end to end."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_demo_main_runs(tmp_path, monkeypatch, capsys):
    # each demo writes what it writes below the working directory
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for name in ("figure_decay", "precision_wall", "cross_validation_walk"):
        _load(name).main()
        outputs[name] = capsys.readouterr().out
    assert all(outputs.values())
    assert (tmp_path / "demo_out" / "figure_decay.csv").is_file()
    assert (tmp_path / "demo_out" / "figure_decay.svg").is_file()
    assert "all passed: True" in outputs["cross_validation_walk"]

"""No module in ``src/altseries`` imports a name it never uses.

A stdlib ``ast`` scan, so no linter has to be installed.  A name counts
as used when the module loads it anywhere, as a bare name or as the root
of an attribute chain, or lists it in ``__all__``.  An import on a line
marked ``# noqa: F401`` is kept on purpose and skipped: fourier2d's
``j0_zeros``, which only the benchmark's tracer reaches.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "altseries"


def _unused_imports(source: str) -> list[str]:
    """``"<line>: <name>"`` for every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    return sorted(f"{line}: {name}" for name, line in imported.items()
                  if name not in used | exported)


def test_scan_flags_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from a import (b,\n"
              "               c)\n"
              "from d import e  # noqa: F401\n"
              "from f import g\n"
              "__all__ = ['g']\n"
              "x = np.pi + b\n")
    assert _unused_imports(source) == ["2: os", "5: c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []

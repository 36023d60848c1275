"""Every ``repro`` name the entry points import must exist.

No test imports ``examples/`` or ``perfbench/``, and collection only sees
the module-level imports of ``benchmarks/``.  So a renamed or deleted
``repro`` name that a script still imports would ship unnoticed.  This
test parses every script with ``ast`` (nothing is run) and resolves each
``from repro... import name``, including imports inside functions.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    path
    for folder in ("examples", "benchmarks", "perfbench")
    for path in (ROOT / folder).glob("*.py")
)


def _repro_imports(path: Path) -> list[tuple[int, str, str]]:
    """``(line, module, name)`` for each ``from repro... import name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_scripts_were_found():
    assert {path.parent.name for path in SCRIPTS} == {
        "examples", "benchmarks", "perfbench"}
    assert sum(len(_repro_imports(path)) for path in SCRIPTS) > 100


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_repro_import_resolves(path):
    missing = [f"{path.parent.name}/{path.name}:{line}: "
               f"from {module} import {name}"
               for line, module, name in _repro_imports(path)
               if not _resolves(module, name)]
    assert not missing, "\n".join(missing)

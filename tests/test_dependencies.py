"""numpy is the only third-party runtime dependency, and ``core`` sits
below ``jobs``.

Every ``repro`` module must import in a fresh interpreter whose import
system refuses ``networkx`` and ``scipy``, and ``pyproject.toml`` must
declare numpy alone.  No module under ``repro.core`` may import
``repro.jobs``: the job handlers are built on the core, not the other
way round.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

IMPORT_ALL = """
import importlib, importlib.abc, pkgutil, sys

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("networkx", "scipy"):
            raise ImportError(f"{name} is not a runtime dependency")
        return None

def fail(name):
    raise

sys.meta_path.insert(0, Refuse())
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
    importlib.import_module(info.name)
    print(info.name)
"""


def test_every_module_imports_without_networkx_or_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    imported = set(result.stdout.split())
    on_disk = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        .removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")
    } - {"repro"}
    assert imported == on_disk


def test_pyproject_declares_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy"]


def _imported_modules(path: Path) -> set[str]:
    """Every module ``path`` imports, relative imports resolved."""
    package = list(path.relative_to(SRC).parent.parts)
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package[:len(package) - node.level + 1]
                base = ".".join(parent + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_core_does_not_import_jobs():
    offenders = {
        str(path.relative_to(SRC)): sorted(
            name for name in _imported_modules(path)
            if name == "repro.jobs" or name.startswith("repro.jobs.")
        )
        for path in (SRC / "repro" / "core").rglob("*.py")
    }
    assert {k: v for k, v in offenders.items() if v} == {}

"""numpy is the only third-party runtime dependency.

Every ``repro`` module must import in a fresh interpreter whose import
system refuses ``networkx`` and ``scipy``, and ``pyproject.toml`` must
declare numpy alone.
"""

from __future__ import annotations

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

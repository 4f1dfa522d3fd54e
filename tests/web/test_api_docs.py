"""The checked-in API reference must match the live route table."""

import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_generator():
    path = REPO_ROOT / "scripts" / "gen_api_docs.py"
    spec = importlib.util.spec_from_file_location("gen_api_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_api_md_is_in_sync_with_route_table():
    gen = _load_generator()
    on_disk = (REPO_ROOT / "docs" / "api.md").read_text()
    assert on_disk == gen.render(), (
        "docs/api.md is stale — regenerate with: "
        "PYTHONPATH=src python scripts/gen_api_docs.py"
    )


def test_every_canonical_route_is_documented():
    from repro.core.repository import Repository
    from repro.web.api import API_V2_PREFIX, CarCsApi

    text = (REPO_ROOT / "docs" / "api.md").read_text()
    documented = set(re.findall(r"^### `(\w+) ([^`]+)`", text, re.MULTILINE))
    api = CarCsApi(Repository())
    live = {
        (r.method, r.pattern) for r in api.router.routes()
        if r.pattern.startswith(API_V2_PREFIX)
    }
    assert documented == live


def test_migration_table_covers_every_v1_route():
    from repro.core.repository import Repository
    from repro.web.api import API_PREFIX, CarCsApi

    text = (REPO_ROOT / "docs" / "api.md").read_text()
    migrated = set(re.findall(
        r"^\| `(\w+) (/api/v1[^`]*)` \|", text, re.MULTILINE
    ))
    api = CarCsApi(Repository())
    live_v1 = {
        (r.method, r.pattern) for r in api.router.routes()
        if r.pattern.startswith(API_PREFIX)
    }
    assert migrated == live_v1


def test_check_mode_detects_drift(tmp_path, capsys):
    gen = _load_generator()
    original = gen.OUTPUT
    try:
        gen.OUTPUT = tmp_path / "api.md"
        assert gen.main(["--check"]) == 1          # missing file -> drift
        gen.OUTPUT.write_text(gen.render())
        assert gen.main(["--check"]) == 0          # fresh copy -> in sync
        gen.OUTPUT.write_text("stale")
        assert gen.main(["--check"]) == 1
    finally:
        gen.OUTPUT = original

"""Shared fixtures for the benchmark harness.

Each bench regenerates one paper artifact (DESIGN.md §4), printing the
reproduced rows/series (run with ``-s`` to see them) and asserting the
claim's *shape* before timing the underlying computation.
"""

from __future__ import annotations

import pytest

from repro.core import cache as cache_mod
from repro.corpus.seed import seed_all
from repro.corpus import collection_ids


def pytest_report_header(config):
    # Every cache reads CARCS_CACHE when it is built:
    # `CARCS_CACHE=off pytest benchmarks/` measures every analysis cold.
    state = "on" if cache_mod.env_enabled() else "off"
    return f"analytics cache: {state} (set {cache_mod.ENV_FLAG}=off to disable)"


@pytest.fixture(scope="session")
def cache_enabled() -> bool:
    return cache_mod.env_enabled()


@pytest.fixture(scope="session")
def repo():
    return seed_all()


@pytest.fixture(scope="session")
def nifty_ids(repo):
    return collection_ids(repo, "nifty")


@pytest.fixture(scope="session")
def peachy_ids(repo):
    return collection_ids(repo, "peachy")


@pytest.fixture(scope="session")
def itcs_ids(repo):
    return collection_ids(repo, "itcs3145")

"""Shared fixtures.

The seeded repository and the two ontologies are expensive to build
(CS13 alone has ~3000 entries), so they are session-scoped; tests that
mutate state request the function-scoped ``fresh_repo`` instead.
"""

from __future__ import annotations

import os

import pytest

from repro.core.repository import Repository
from repro.corpus.seed import seed_all, seed_ontologies
from repro.ontologies import load


#: Opt-in test tiers: tier-1 (the default run) must stay fast, so tests
#: that boot interpreters, build 10^5-row corpora, or chew through 10^6
#: rows each sit behind an environment flag CI enables stage by stage.
_OPT_IN_MARKERS = (
    ("multiproc", "CARCS_MULTIPROC",
     "spawns real server subprocesses"),
    ("slow", "CARCS_SLOW", "builds 10^5-row corpora"),
    ("scale", "CARCS_SCALE", "builds 10^6-row corpora"),
)


def pytest_addoption(parser):
    parser.addoption(
        "--record", action="store_true", default=False,
        help="rewrite golden files (tests/web/test_api_transcript.py) "
             "instead of comparing against them",
    )


def pytest_collection_modifyitems(config, items):
    """Each opt-in marker is skipped unless its env flag is ``1``
    (``scripts/ci.sh`` flips them per stage)."""
    skips = {
        marker: pytest.mark.skip(reason=f"set {env}=1 to run ({why})")
        for marker, env, why in _OPT_IN_MARKERS
        if os.environ.get(env) != "1"
    }
    if not skips:
        return
    for item in items:
        for marker, skip in skips.items():
            if marker in item.keywords:
                item.add_marker(skip)


@pytest.fixture(scope="session")
def cs13():
    return load("CS13")


@pytest.fixture(scope="session")
def pdc12():
    return load("PDC12")


@pytest.fixture(scope="session")
def seeded_repo():
    """The paper's prototype state: both ontologies + all three corpora.

    Treat as read-only; mutating tests must use ``fresh_repo``.
    """
    return seed_all()


@pytest.fixture()
def fresh_repo():
    """An empty repository with both ontologies loaded."""
    repo = Repository()
    seed_ontologies(repo)
    return repo


@pytest.fixture()
def bare_repo():
    """An empty repository with no ontologies."""
    return Repository()

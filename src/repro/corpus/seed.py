"""One-call seeding of a repository with the paper's prototype state.

"The system has been seeded using the Nifty assignments ... We have also
included all 11 Peachy Assignments.  And we have entered all of the
learning materials from the class ITCS 3145." (Section III-B.)
"""

from __future__ import annotations

from repro.core.repository import Repository
from repro.ontologies import load

from . import itcs3145, nifty, peachy
from .base import load_into


def seed_ontologies(repo: Repository) -> None:
    """Load CS13 and PDC12 into the repository."""
    repo.add_ontology(load("CS13"))
    repo.add_ontology(load("PDC12"))


def seed_all(repo: Repository | None = None) -> Repository:
    """Build (or extend) a repository with both ontologies and all three
    corpora; returns it.  Material ids are assigned in corpus order
    (Nifty, then Peachy, then ITCS 3145)."""
    repo = repo if repo is not None else Repository()
    seed_ontologies(repo)
    load_into(repo, nifty.SPECS, nifty.COLLECTION)
    load_into(repo, peachy.SPECS, peachy.COLLECTION)
    load_into(repo, itcs3145.SPECS, itcs3145.COLLECTION)
    return repo


def collection_ids(repo: Repository, collection: str) -> list[int]:
    """Material ids of one collection, in insertion order."""
    return repo.material_ids(collection)

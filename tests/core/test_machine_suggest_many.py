"""``Repository.machine_suggest_many`` against the per-row loop it replaced.

Twin repositories are set up identically: classified keys, pending and
rejected human suggestions, machine suggestions an editor rejected,
and sometimes an existing machine user.  One twin then files each
call's pairs through ``machine_suggest_many``; the other runs a
verbatim copy of the old per-suggestion ``machine_suggest`` once per
pair.  Returned ids, every suggestion and user row (ids and order
included) and the database version must be equal.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.material import Material
from repro.core.ontology import NodeKind, Ontology
from repro.core.repository import (
    MACHINE_USER,
    Repository,
    Role,
    SubmissionStatus,
)
from repro.db.errors import RowNotFound

KEYS = tuple(f"T/A/u/t{i}" for i in range(6))
N_MATERIALS = 2


def _ontology() -> Ontology:
    onto = Ontology("T")
    onto.add("T/A", "A", NodeKind.AREA)
    onto.add("T/A/u", "u", NodeKind.UNIT, "T/A")
    for key in KEYS:
        onto.add(key, key.rsplit("/", 1)[1], NodeKind.TOPIC, "T/A/u")
    onto.validate()
    return onto


ONTOLOGY = _ontology()


def _repo() -> tuple[Repository, list[int]]:
    repo = Repository()
    repo.add_ontology(ONTOLOGY)
    ids = [
        repo.add_material(Material(title=f"m{i}", description="text")).id
        for i in range(N_MATERIALS)
    ]
    return repo, ids


def per_row_machine_suggest(
    repo: Repository, material_id: int, key: str, *, confidence: float,
) -> int | None:
    """The per-suggestion write path ``machine_suggest_many`` replaced,
    copied verbatim (less its unused ``source=`` parameter)."""
    entry_id = repo.entry_id(key)  # must exist
    repo.db.table("materials").get(material_id)
    with repo.db.transaction():
        if repo.material_classifications.has(material_id, entry_id):
            return None
        for row in repo.db.table("suggestions").find(
            material_id=material_id, ontology_key=key,
        ):
            if row["action"] != "add":
                continue
            if (row["status"] == SubmissionStatus.PENDING.value
                    or row.get("origin") == "machine"):
                return None
        suggested_by = repo.ensure_user(MACHINE_USER, Role.USER)
        return repo.db.insert(
            "suggestions",
            material_id=material_id,
            suggested_by=suggested_by,
            ontology_key=key,
            action="add",
            confidence=float(confidence),
            origin="machine",
        )["id"]


def _prepare(repo: Repository, mids: list[int], setup) -> None:
    """Apply the drawn starting state (the same on both twins)."""
    human = repo.add_user("curator", Role.SUBMITTER)
    for kind, m, k in setup:
        mid, key = mids[m], KEYS[k]
        if kind == "classified":
            repo.classify(mid, "T", key)
        elif kind in ("pending", "rejected", "remove"):
            sid = repo.suggest_classification(
                mid, key, action="remove" if kind == "remove" else "add",
                suggested_by=human,
            )
            if kind == "rejected":
                repo.reject_suggestion(sid)
        else:
            sid = per_row_machine_suggest(repo, mid, key, confidence=0.3)
            if sid is not None and kind == "machine-rejected":
                repo.reject_suggestion(sid)


def _state(repo: Repository) -> tuple:
    def rows(name):
        return [dict(r) for r in sorted(repo.db.table(name),
                                        key=lambda r: r["id"])]
    return rows("suggestions"), rows("users"), repo.db.version


SETUP = st.lists(st.tuples(
    st.sampled_from(("classified", "pending", "rejected", "remove",
                     "machine", "machine-rejected")),
    st.integers(0, N_MATERIALS - 1),
    st.integers(0, len(KEYS) - 1),
), max_size=8)
CALLS = st.lists(st.tuples(
    st.integers(0, N_MATERIALS - 1),
    st.lists(st.tuples(
        st.integers(0, len(KEYS) - 1),
        st.floats(0.0, 1.0, allow_nan=False),
    ), max_size=8),
), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(setup=SETUP, calls=CALLS)
def test_batch_equals_per_row_loop(setup, calls):
    batched, mids = _repo()
    per_row, same = _repo()
    assert mids == same
    _prepare(batched, mids, setup)
    _prepare(per_row, mids, setup)
    assert _state(batched) == _state(per_row)
    for m, drawn in calls:
        pairs = [(KEYS[k], confidence) for k, confidence in drawn]
        got = batched.machine_suggest_many(mids[m], pairs)
        want = [
            per_row_machine_suggest(per_row, mids[m], key,
                                    confidence=confidence)
            for key, confidence in pairs
        ]
        assert got == want
        assert _state(batched) == _state(per_row)


@pytest.fixture()
def target():
    repo, mids = _repo()
    return repo, mids[0]


def test_unknown_key_raises_and_writes_nothing(target):
    repo, mid = target
    before = _state(repo)
    with pytest.raises(KeyError):
        repo.machine_suggest_many(mid, [(KEYS[0], 0.9), ("T/A/u/nope", 0.5)])
    assert _state(repo) == before


def test_unknown_material_raises(target):
    repo, mid = target
    with pytest.raises(RowNotFound):
        repo.machine_suggest_many(mid + 100, [(KEYS[0], 0.9)])


def test_all_skipped_call_creates_no_machine_user(target):
    repo, mid = target
    repo.classify(mid, "T", KEYS[0])
    before = _state(repo)
    assert repo.machine_suggest_many(
        mid, [(KEYS[0], 0.9), (KEYS[0], 0.8)]) == [None, None]
    assert repo.machine_suggest_many(mid, []) == []
    assert _state(repo) == before
    assert repo.db.table("users").find_one(name=MACHINE_USER) is None


def test_repeated_key_files_once(target):
    repo, mid = target
    first, again, other = repo.machine_suggest_many(
        mid, [(KEYS[1], 0.9), (KEYS[1], 0.4), (KEYS[2], 0.5)])
    assert first is not None and again is None and other == first + 1
    assert [r["confidence"] for r in repo.suggestions(material_id=mid)] == [
        0.9, 0.5]

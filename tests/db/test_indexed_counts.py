"""Single-column counts and collection id lists read the hash index.

``Table.count`` and ``TableSnapshot.count`` on one hash-indexed column,
and ``Repository.material_ids``/``material_count``, answer from the
column's hash index instead of copying every matching row.  Their
results must equal a plain scan of the rows and the query path, on the
live table (under the write lock) and on a pinned snapshot, across
inserts, updates that move a row between values, deletes and ``None``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.material import Material
from repro.core.repository import Repository
from repro.db import Column, Database, TableSchema
from repro.db import query as db_query

GROUPS = ["a", "b", "c", None]


def make_db() -> Database:
    db = Database("counts")
    db.create_table(TableSchema(
        "items",
        columns=(
            Column("id", int),
            Column("grp", str, nullable=True),
            Column("tag", str, default=""),
        ),
    ))
    db.table("items").create_index("grp")
    return db


def _expected(rows, column, value) -> int:
    return sum(1 for row in rows if row[column] == value)


def _check_counts(db: Database) -> None:
    # Under the write lock ``table()`` is the live table; otherwise the
    # pinned snapshot.
    with db.lock.write():
        live = db.table("items")
        rows = list(live)
        views = [("live", live, rows)]
        with db.pinned() as snap:
            assert snap is None
    with db.pinned():
        pinned = db.table("items")
        views.append(("pinned", pinned, list(pinned)))
        for name, table, rows in views:
            for value in GROUPS + ["missing"]:
                assert table.count(grp=value) == _expected(rows, "grp", value), \
                    (name, value)
                assert table.count(grp=value) == len(table.find(grp=value))
            # Unindexed and multi-column counts keep the find path.
            assert table.count(tag="x") == _expected(rows, "tag", "x")
            assert table.count(grp="a", tag="x") == sum(
                1 for row in rows if row["grp"] == "a" and row["tag"] == "x")


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(GROUPS),
                  st.sampled_from(["", "x"])),
        st.tuples(st.just("update"), st.integers(0, 30),
                  st.sampled_from(GROUPS)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops)
def test_indexed_count_equals_scan_live_and_pinned(steps):
    db = make_db()
    _check_counts(db)
    for step in steps:
        ids = [row["id"] for row in db.table("items")]
        if step[0] == "insert":
            db.insert("items", grp=step[1], tag=step[2])
        elif ids and step[0] == "update":
            db.update("items", ids[step[1] % len(ids)], grp=step[2])
        elif ids and step[0] == "delete":
            db.delete("items", ids[step[1] % len(ids)])
        _check_counts(db)


def _query_ids(repo: Repository, collection: str) -> list[int]:
    return sorted(db_query(repo.db, "materials").filter(
        collection=collection).values("id"))


def test_material_ids_and_count_equal_the_query_path(seeded_repo):
    repo = seeded_repo
    collections = repo.collections() + ["", "no-such-collection"]
    with repo.db.pinned():
        for collection in collections:
            ids = repo.material_ids(collection)
            assert ids == _query_ids(repo, collection)
            assert repo.material_count(collection) == len(ids)


def test_material_ids_follow_writes(fresh_repo):
    repo = fresh_repo
    first, second, _ = (
        repo.add_material(Material(title=title, description="",
                                   collection=collection))
        for title, collection in (("one", "x"), ("two", "x"), ("three", "y"))
    )
    with repo.db.pinned():
        before = repo.material_ids("x")
        repo.update_material(first.id, collection="y")
        # The pin keeps its version; the id list is the pinned one.
        assert repo.material_ids("x") == before == _query_ids(repo, "x")
    assert repo.material_ids("x") == [second.id] == _query_ids(repo, "x")
    assert repo.material_count("y") == 2
    repo.delete_material(second.id)
    assert repo.material_ids("x") == [] == _query_ids(repo, "x")
    assert repo.material_count("x") == 0

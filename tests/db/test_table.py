"""One table through the engine: inserts, updates, deletes, indexes,
uniqueness, and the read API of its handle."""

import pytest

from repro.db import Column, Database, TableSchema
from repro.db.errors import RowNotFound, SchemaError, UniqueViolation


def make_db(**kwargs) -> Database:
    schema = TableSchema(
        "things",
        columns=(
            Column("id", int),
            Column("name", str),
            Column("group", str, default="a"),
            Column("note", str, nullable=True, default=None),
        ),
        unique=(("name",),),
        **kwargs,
    )
    db = Database("test")
    db.create_table(schema)
    return db


class TestInsert:
    def test_auto_increment_ids(self):
        db = make_db()
        r1 = db.insert("things", name="x")
        r2 = db.insert("things", name="y")
        assert (r1["id"], r2["id"]) == (1, 2)

    def test_explicit_id_respected_and_sequence_advances(self):
        db = make_db()
        db.insert("things", id=10, name="x")
        r = db.insert("things", name="y")
        assert r["id"] == 11

    def test_duplicate_pk_rejected(self):
        db = make_db()
        db.insert("things", id=1, name="x")
        with pytest.raises(UniqueViolation):
            db.insert("things", id=1, name="y")

    def test_unique_constraint_enforced(self):
        db = make_db()
        db.insert("things", name="x")
        with pytest.raises(UniqueViolation):
            db.insert("things", name="x")

    def test_defaults_applied(self):
        db = make_db()
        row = db.insert("things", name="x")
        assert row["group"] == "a"
        assert row["note"] is None

    def test_unknown_column_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.insert("things", name="x", bogus=1)

    def test_failed_insert_leaves_no_trace(self):
        db = make_db()
        t = db.table("things")
        db.insert("things", name="x")
        with pytest.raises(UniqueViolation):
            db.insert("things", name="x")
        assert len(t) == 1
        # the unique index must not have been corrupted
        db.insert("things", name="y")
        assert len(t) == 2


class TestUpdate:
    def test_update_changes_columns(self):
        db = make_db()
        t = db.table("things")
        row = db.insert("things", name="x")
        updated = db.update("things", row["id"], note="hello")
        assert updated["note"] == "hello"
        assert t.get(row["id"])["note"] == "hello"

    def test_update_missing_row(self):
        db = make_db()
        with pytest.raises(RowNotFound):
            db.update("things", 99, note="x")

    def test_update_cannot_touch_pk(self):
        db = make_db()
        row = db.insert("things", name="x")
        with pytest.raises(Exception):
            db.update("things", row["id"], id=42)

    def test_update_unique_collision(self):
        db = make_db()
        db.insert("things", name="x")
        row = db.insert("things", name="y")
        with pytest.raises(UniqueViolation):
            db.update("things", row["id"], name="x")

    def test_update_to_same_unique_value_allowed(self):
        db = make_db()
        row = db.insert("things", name="x")
        db.update("things", row["id"], name="x")  # no-op rename onto itself

    def test_unique_index_follows_rename(self):
        db = make_db()
        row = db.insert("things", name="x")
        db.update("things", row["id"], name="z")
        db.insert("things", name="x")  # old name is free again


class TestDelete:
    def test_delete_removes_row(self):
        db = make_db()
        t = db.table("things")
        row = db.insert("things", name="x")
        db.delete("things", row["id"])
        assert len(t) == 0
        with pytest.raises(RowNotFound):
            t.get(row["id"])

    def test_delete_missing_row(self):
        db = make_db()
        with pytest.raises(RowNotFound):
            db.delete("things", 1)

    def test_delete_frees_unique_value(self):
        db = make_db()
        row = db.insert("things", name="x")
        db.delete("things", row["id"])
        db.insert("things", name="x")


class TestFindAndIndexes:
    def test_find_all(self):
        db = make_db()
        t = db.table("things")
        db.insert("things", name="x")
        db.insert("things", name="y", group="b")
        assert len(t.find()) == 2

    def test_find_equality(self):
        db = make_db()
        t = db.table("things")
        db.insert("things", name="x")
        db.insert("things", name="y", group="b")
        assert [r["name"] for r in t.find(group="b")] == ["y"]

    def test_find_conjunction(self):
        db = make_db()
        t = db.table("things")
        db.insert("things", name="x", group="b")
        db.insert("things", name="y", group="b")
        rows = t.find(group="b", name="y")
        assert len(rows) == 1

    def test_find_unknown_column(self):
        db = make_db()
        t = db.table("things")
        with pytest.raises(SchemaError):
            t.find(bogus=1)

    def test_indexed_find_matches_scan(self):
        db = make_db()
        t = db.table("things")
        for i in range(20):
            db.insert("things", name=f"n{i}", group="g" + str(i % 3))
        expected = sorted(r["id"] for r in t.find(group="g1"))
        t.create_index("group")
        actual = sorted(r["id"] for r in t.find(group="g1"))
        assert actual == expected

    def test_index_maintained_across_mutation(self):
        db = make_db()
        t = db.table("things")
        t.create_index("group")
        row = db.insert("things", name="x", group="g1")
        db.update("things", row["id"], group="g2")
        assert t.find(group="g1") == []
        assert [r["id"] for r in t.find(group="g2")] == [row["id"]]
        db.delete("things", row["id"])
        assert t.find(group="g2") == []

    def test_find_one_and_count(self):
        db = make_db()
        t = db.table("things")
        db.insert("things", name="x")
        assert t.find_one(name="x")["id"] == 1
        assert t.find_one(name="nope") is None
        assert t.count() == 1
        assert t.count(name="x") == 1
        assert t.count(name="nope") == 0

    def test_rows_returned_are_copies(self):
        db = make_db()
        t = db.table("things")
        row = db.insert("things", name="x")
        row["name"] = "mutated"
        assert t.get(row["id"])["name"] == "x"

    def test_iterated_rows_are_copies(self):
        db = make_db()
        t = db.table("things")
        t.create_index("group")
        db.insert("things", name="x", group="a")
        for row in t:
            row["group"] = "zzz"
        assert t.get(1)["group"] == "a"
        assert [r["id"] for r in t.find(group="a")] == [1]

    def test_iteration_and_contains(self):
        db = make_db()
        t = db.table("things")
        r = db.insert("things", name="x")
        assert [row["name"] for row in t] == ["x"]
        assert r["id"] in t
        assert 999 not in t

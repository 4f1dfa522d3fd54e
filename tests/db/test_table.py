"""Table storage: inserts, updates, deletes, indexes, uniqueness."""

import pytest

from repro.db import Column, TableSchema
from repro.db.errors import RowNotFound, SchemaError, UniqueViolation
from repro.db.table import Table


def make_table(**kwargs) -> Table:
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
    return Table(schema)


class TestInsert:
    def test_auto_increment_ids(self):
        t = make_table()
        r1 = t.insert(name="x")
        r2 = t.insert(name="y")
        assert (r1["id"], r2["id"]) == (1, 2)

    def test_explicit_id_respected_and_sequence_advances(self):
        t = make_table()
        t.insert(id=10, name="x")
        r = t.insert(name="y")
        assert r["id"] == 11

    def test_duplicate_pk_rejected(self):
        t = make_table()
        t.insert(id=1, name="x")
        with pytest.raises(UniqueViolation):
            t.insert(id=1, name="y")

    def test_unique_constraint_enforced(self):
        t = make_table()
        t.insert(name="x")
        with pytest.raises(UniqueViolation):
            t.insert(name="x")

    def test_defaults_applied(self):
        t = make_table()
        row = t.insert(name="x")
        assert row["group"] == "a"
        assert row["note"] is None

    def test_unknown_column_rejected(self):
        t = make_table()
        with pytest.raises(SchemaError):
            t.insert(name="x", bogus=1)

    def test_failed_insert_leaves_no_trace(self):
        t = make_table()
        t.insert(name="x")
        with pytest.raises(UniqueViolation):
            t.insert(name="x")
        assert len(t) == 1
        # the unique index must not have been corrupted
        t.insert(name="y")
        assert len(t) == 2


class TestUpdate:
    def test_update_changes_columns(self):
        t = make_table()
        row = t.insert(name="x")
        updated = t.update(row["id"], note="hello")
        assert updated["note"] == "hello"
        assert t.get(row["id"])["note"] == "hello"

    def test_update_missing_row(self):
        t = make_table()
        with pytest.raises(RowNotFound):
            t.update(99, note="x")

    def test_update_cannot_touch_pk(self):
        t = make_table()
        row = t.insert(name="x")
        with pytest.raises(Exception):
            t.update(row["id"], id=42)

    def test_update_unique_collision(self):
        t = make_table()
        t.insert(name="x")
        row = t.insert(name="y")
        with pytest.raises(UniqueViolation):
            t.update(row["id"], name="x")

    def test_update_to_same_unique_value_allowed(self):
        t = make_table()
        row = t.insert(name="x")
        t.update(row["id"], name="x")  # no-op rename onto itself

    def test_unique_index_follows_rename(self):
        t = make_table()
        row = t.insert(name="x")
        t.update(row["id"], name="z")
        t.insert(name="x")  # old name is free again


class TestDelete:
    def test_delete_removes_row(self):
        t = make_table()
        row = t.insert(name="x")
        t.delete(row["id"])
        assert len(t) == 0
        with pytest.raises(RowNotFound):
            t.get(row["id"])

    def test_delete_missing_row(self):
        t = make_table()
        with pytest.raises(RowNotFound):
            t.delete(1)

    def test_delete_frees_unique_value(self):
        t = make_table()
        row = t.insert(name="x")
        t.delete(row["id"])
        t.insert(name="x")


class TestFindAndIndexes:
    def test_find_all(self):
        t = make_table()
        t.insert(name="x")
        t.insert(name="y", group="b")
        assert len(t.find()) == 2

    def test_find_equality(self):
        t = make_table()
        t.insert(name="x")
        t.insert(name="y", group="b")
        assert [r["name"] for r in t.find(group="b")] == ["y"]

    def test_find_conjunction(self):
        t = make_table()
        t.insert(name="x", group="b")
        t.insert(name="y", group="b")
        rows = t.find(group="b", name="y")
        assert len(rows) == 1

    def test_find_unknown_column(self):
        t = make_table()
        with pytest.raises(SchemaError):
            t.find(bogus=1)

    def test_indexed_find_matches_scan(self):
        t = make_table()
        for i in range(20):
            t.insert(name=f"n{i}", group="g" + str(i % 3))
        expected = sorted(r["id"] for r in t.find(group="g1"))
        t.create_index("group")
        actual = sorted(r["id"] for r in t.find(group="g1"))
        assert actual == expected

    def test_index_maintained_across_mutation(self):
        t = make_table()
        t.create_index("group")
        row = t.insert(name="x", group="g1")
        t.update(row["id"], group="g2")
        assert t.find(group="g1") == []
        assert [r["id"] for r in t.find(group="g2")] == [row["id"]]
        t.delete(row["id"])
        assert t.find(group="g2") == []

    def test_find_one_and_count(self):
        t = make_table()
        t.insert(name="x")
        assert t.find_one(name="x")["id"] == 1
        assert t.find_one(name="nope") is None
        assert t.count() == 1
        assert t.count(name="x") == 1
        assert t.count(name="nope") == 0

    def test_rows_returned_are_copies(self):
        t = make_table()
        row = t.insert(name="x")
        row["name"] = "mutated"
        assert t.get(row["id"])["name"] == "x"

    def test_iterated_rows_are_copies(self):
        t = make_table()
        t.create_index("group")
        t.insert(name="x", group="a")
        for row in t:
            row["group"] = "zzz"
        assert t.get(1)["group"] == "a"
        assert [r["id"] for r in t.find(group="a")] == [1]

    def test_iteration_and_contains(self):
        t = make_table()
        r = t.insert(name="x")
        assert [row["name"] for row in t] == ["x"]
        assert r["id"] in t
        assert 999 not in t

"""Database-level behaviour: DDL, foreign keys, transactions."""

import threading

import pytest

from repro.db import Column, Database, ForeignKey, TableSchema
from repro.db.table import Table
from repro.db.errors import (
    ForeignKeyError,
    SchemaError,
    TransactionError,
    UniqueViolation,
)


def make_db() -> Database:
    db = Database("test")
    db.create_table(TableSchema(
        "parents", columns=(Column("id", int), Column("name", str)),
    ))
    db.create_table(TableSchema(
        "children",
        columns=(
            Column("id", int),
            Column("parent_id", int),
            Column("label", str, default=""),
        ),
        foreign_keys=(ForeignKey("parent_id", "parents"),),
    ))
    db.create_table(TableSchema(
        "cascading",
        columns=(Column("id", int), Column("parent_id", int)),
        foreign_keys=(ForeignKey("parent_id", "parents", on_delete="cascade"),),
    ))
    return db


class TestDdl:
    def test_duplicate_table_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.create_table(TableSchema("parents", columns=(Column("id", int),)))

    def test_fk_to_unknown_table_rejected(self):
        db = Database()
        with pytest.raises(SchemaError):
            db.create_table(TableSchema(
                "t",
                columns=(Column("id", int), Column("x_id", int)),
                foreign_keys=(ForeignKey("x_id", "missing"),),
            ))

    def test_drop_referenced_table_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.drop_table("parents")

    def test_drop_leaf_table(self):
        db = make_db()
        db.drop_table("children")
        assert "children" not in db

    def test_table_names_sorted(self):
        db = make_db()
        assert db.table_names() == ["cascading", "children", "parents"]

    def test_unknown_table_lookup(self):
        db = Database()
        with pytest.raises(SchemaError):
            db.table("nope")


class TestForeignKeys:
    def test_insert_with_valid_fk(self):
        db = make_db()
        p = db.insert("parents", name="p")
        c = db.insert("children", parent_id=p["id"])
        assert c["parent_id"] == p["id"]

    def test_insert_with_dangling_fk_rejected(self):
        db = make_db()
        with pytest.raises(ForeignKeyError):
            db.insert("children", parent_id=99)

    def test_update_to_dangling_fk_rejected(self):
        db = make_db()
        p = db.insert("parents", name="p")
        c = db.insert("children", parent_id=p["id"])
        with pytest.raises(ForeignKeyError):
            db.update("children", c["id"], parent_id=12345)

    def test_restrict_delete_blocked(self):
        db = make_db()
        p = db.insert("parents", name="p")
        db.insert("children", parent_id=p["id"])
        with pytest.raises(ForeignKeyError):
            db.delete("parents", p["id"])

    def test_cascade_delete_propagates(self):
        db = make_db()
        p = db.insert("parents", name="p")
        db.insert("cascading", parent_id=p["id"])
        db.insert("cascading", parent_id=p["id"])
        db.delete("parents", p["id"])
        assert len(db.table("cascading")) == 0

    def test_delete_unreferenced_parent_ok(self):
        db = make_db()
        p = db.insert("parents", name="p")
        db.delete("parents", p["id"])
        assert len(db.table("parents")) == 0

    def test_null_fk_allowed_when_nullable(self):
        db = Database()
        db.create_table(TableSchema(
            "targets", columns=(Column("id", int),),
        ))
        db.create_table(TableSchema(
            "sources",
            columns=(Column("id", int), Column("t_id", int, nullable=True, default=None)),
            foreign_keys=(ForeignKey("t_id", "targets"),),
        ))
        row = db.insert("sources")
        assert row["t_id"] is None


class TestTransactions:
    def test_commit_keeps_changes(self):
        db = make_db()
        with db.transaction():
            db.insert("parents", name="p")
        assert len(db.table("parents")) == 1

    def test_rollback_on_exception(self):
        db = make_db()
        db.insert("parents", name="before")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("parents", name="inside")
                raise RuntimeError("boom")
        names = db.table("parents").column_values("name")
        assert names == ["before"]

    def test_rollback_restores_indexes(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("parents", name="ghost")
                raise RuntimeError
        # unique index must not remember the ghost
        db.insert("parents", name="ghost")

    def test_nested_transactions_partial_rollback(self):
        db = make_db()
        with db.transaction():
            db.insert("parents", name="outer")
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.insert("parents", name="inner")
                    raise RuntimeError
            assert db.table("parents").column_values("name") == ["outer"]
        assert db.table("parents").column_values("name") == ["outer"]

    def test_id_sequence_rewinds_on_rollback(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("parents", name="x")
                raise RuntimeError
        row = db.insert("parents", name="y")
        assert row["id"] == 1

    def test_commit_without_begin(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db._commit()

    def test_rollback_without_begin(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db._rollback()

    def test_in_transaction_flag(self):
        db = make_db()
        assert not db.in_transaction
        with db.transaction():
            assert db.in_transaction
        assert not db.in_transaction

    def test_in_transaction_is_per_thread(self):
        # Another thread's open transaction is not the reader's: only
        # the thread inside its own transaction sees the flag.
        db = make_db()
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def writer():
            with db.transaction():
                seen["writer"] = db.in_transaction
                inside.set()
                release.wait(10)

        t = threading.Thread(target=writer)
        t.start()
        try:
            assert inside.wait(10)
            seen["reader"] = db.in_transaction
        finally:
            release.set()
            t.join(10)
        assert seen == {"writer": True, "reader": False}

    def test_table_created_inside_rolled_back_transaction_vanishes(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.create_table(TableSchema("temp", columns=(Column("id", int),)))
                raise RuntimeError
        assert "temp" not in db


class TestInsert:
    def test_each_insert_completes_its_row_once(self, monkeypatch):
        """The engine builds and validates the row for its FK check; the
        table then stores that row without completing it again."""
        completed: list[str] = []
        complete_row = Table._complete_row

        def counting(self, values):
            completed.append(self.name)
            return complete_row(self, values)

        monkeypatch.setattr(Table, "_complete_row", counting)
        db = make_db()
        pid = db.insert("parents", name="a")["id"]
        child = db.insert("children", parent_id=pid)
        assert completed == ["parents", "children"]
        assert child == {"id": 1, "parent_id": pid, "label": ""}
        assert db.table("children").get(1) == child


class TestStats:
    def test_stats_counts_rows(self):
        db = make_db()
        db.insert("parents", name="a")
        db.insert("parents", name="b")
        assert db.stats()["parents"] == 2
        assert db.stats()["children"] == 0


class TestVersions:
    def test_new_database_starts_at_zero(self):
        db = make_db()
        assert db.version == 3  # one bump per created table
        assert set(db.table_versions()) == {"parents", "children", "cascading"}
        assert all(v == 0 for v in db.table_versions().values())

    def test_each_committed_mutation_bumps_exactly_once(self):
        db = make_db()
        v_db, v_tbl = db.version, db.table("parents").version
        pid = db.insert("parents", name="a")["id"]
        assert (db.version, db.table("parents").version) == (v_db + 1, v_tbl + 1)
        db.update("parents", pid, name="b")
        assert (db.version, db.table("parents").version) == (v_db + 2, v_tbl + 2)
        db.delete("parents", pid)
        assert (db.version, db.table("parents").version) == (v_db + 3, v_tbl + 3)

    def test_mutation_bumps_only_its_own_table(self):
        db = make_db()
        before = db.table("children").version
        db.insert("parents", name="a")
        assert db.table("children").version == before

    def test_cascade_delete_bumps_every_touched_table(self):
        db = make_db()
        pid = db.insert("parents", name="a")["id"]
        db.insert("cascading", parent_id=pid)
        v_parents = db.table("parents").version
        v_casc = db.table("cascading").version
        db.delete("parents", pid)
        assert db.table("parents").version == v_parents + 1
        assert db.table("cascading").version == v_casc + 1

    def test_rollback_restores_versions(self):
        db = make_db()
        db.insert("parents", name="keep")
        v_db, v_tbl = db.version, db.table("parents").version
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("parents", name="gone")
                db.insert("parents", name="gone too")
                assert db.version == v_db + 2
                raise RuntimeError
        assert db.version == v_db
        assert db.table("parents").version == v_tbl

    def test_commit_keeps_versions(self):
        db = make_db()
        v = db.version
        with db.transaction():
            db.insert("parents", name="a")
        assert db.version == v + 1

    def test_nested_commit_then_outer_rollback_restores(self):
        db = make_db()
        v = db.version
        with pytest.raises(RuntimeError):
            with db.transaction():
                with db.transaction():
                    db.insert("parents", name="inner")
                db.insert("parents", name="outer")
                raise RuntimeError
        assert db.version == v
        assert db.stats()["parents"] == 0

    def test_ddl_bumps_database_version(self):
        db = make_db()
        v = db.version
        db.create_table(TableSchema("extra", columns=(Column("id", int),)))
        assert db.version == v + 1
        db.drop_table("extra")
        assert db.version == v + 2

    def test_drop_table_inside_aborted_transaction_restores_table(self):
        """Regression: rollback used to KeyError after an in-tx drop,
        losing both the table and the pre-transaction state."""
        db = make_db()
        pid = db.insert("parents", name="a")["id"]
        v = db.version
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.drop_table("children")
                raise RuntimeError
        assert "children" in db
        assert db.version == v
        # The restored table is fully usable, FK wiring intact.
        db.insert("children", parent_id=pid)
        with pytest.raises(ForeignKeyError):
            db.insert("children", parent_id=999)

    def test_table_versions_snapshot_is_detached(self):
        db = make_db()
        snapshot = db.table_versions()
        db.insert("parents", name="a")
        assert db.table_versions()["parents"] == snapshot["parents"] + 1

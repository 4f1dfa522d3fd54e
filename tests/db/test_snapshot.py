"""MVCC snapshots: lock-free pinned reads over immutable versions."""

import threading

import pytest

from repro.db import (
    Column,
    Database,
    TableSchema,
    current_pin,
    database_to_dict,
    restore_database,
)
from repro.db.errors import RowNotFound
from repro.db.snapshot import TableSnapshot

WAIT = 10.0


def make_db() -> Database:
    db = Database("snaptest")
    db.create_table(TableSchema(
        "items",
        columns=(
            Column("id", int),
            Column("name", str),
            Column("group", str, default=""),
        ),
        unique=(("name",),),
    ))
    return db


class TestPinning:
    def test_pin_freezes_reads_across_commits(self):
        db = make_db()
        db.insert("items", name="a")
        with db.pinned() as snap:
            assert snap is not None
            db.insert("items", name="b")  # commits while we are pinned
            # The pinned scope keeps serving the version it captured...
            assert db.table("items").count() == 1
            assert db.version == snap.version
        # ...and leaving the scope reveals the newer committed version.
        assert db.table("items").count() == 2

    def test_pin_is_per_context_not_global(self):
        db = make_db()
        db.insert("items", name="a")
        inside = threading.Event()
        release = threading.Event()
        observed = {}

        def pinned_reader():
            with db.pinned():
                inside.set()
                assert release.wait(WAIT)
                observed["pinned"] = db.table("items").count()

        t = threading.Thread(target=pinned_reader)
        t.start()
        assert inside.wait(WAIT)
        db.insert("items", name="b")
        # An unpinned thread sees live state immediately.
        assert db.table("items").count() == 2
        release.set()
        t.join(WAIT)
        assert observed["pinned"] == 1

    def test_nested_pin_reuses_the_outer_pin(self):
        db = make_db()
        db.insert("items", name="a")
        with db.pinned() as outer:
            db.insert("items", name="b")
            with db.pinned() as inner:
                assert inner is outer
                assert db.table("items").count() == 1

    def test_writers_read_their_own_uncommitted_state(self):
        # Under the write lock a pin is a no-op: read-your-writes must
        # hold inside transactions.
        db = make_db()
        db.insert("items", name="a")
        with db.transaction():
            db.insert("items", name="b")
            with db.pinned() as snap:
                assert snap is None
                assert db.table("items").count() == 2

    def test_pin_does_not_take_the_write_lock(self):
        db = make_db()
        db.insert("items", name="a")
        acquires = []
        original_acquire, original_write = db.lock.acquire_write, db.lock.write

        def counting_acquire():
            acquires.append("acquire_write")
            original_acquire()

        def counting_write():
            acquires.append("write")
            return original_write()

        db.lock.acquire_write = counting_acquire
        db.lock.write = counting_write
        try:
            with db.pinned():
                db.table("items").get(1)
                db.table("items").find(name="a")
                assert db.version >= 1
            assert acquires == []
            # The probe itself counts: a committed insert is seen.
            db.insert("items", name="b")
            assert acquires
        finally:
            del db.lock.acquire_write, db.lock.write

    def test_current_pin_resets_on_exit(self):
        db = make_db()
        assert current_pin() is None
        with db.pinned():
            assert current_pin() is not None
        assert current_pin() is None


class TestSnapshotReads:
    def test_read_api_matches_live_table(self):
        db = make_db()
        db.insert("items", name="a", group="g1")
        db.insert("items", name="b", group="g1")
        db.insert("items", name="c", group="g2")
        db.table("items").create_index("group")
        db.delete("items", 2)
        with db.pinned():
            t = db.table("items")
            assert len(t) == 2
            assert t.count(group="g1") == 1
            assert t.get(1)["name"] == "a"
            assert t.get_or_none(2) is None
            with pytest.raises(RowNotFound):
                t.get(2)
            assert t.find_one(name="c")["group"] == "g2"
            assert sorted(t.pks()) == [1, 3]
            assert sorted(t.column_values("name")) == ["a", "c"]
            assert 1 in t and 2 not in t
            assert {row["name"] for row in t} == {"a", "c"}

    def test_snapshot_rows_are_private_copies(self):
        db = make_db()
        db.insert("items", name="a")
        with db.pinned():
            row = db.table("items").get(1)
            row["name"] = "mutated"
            assert db.table("items").get(1)["name"] == "a"

    def test_dropped_table_still_readable_through_pin(self):
        db = make_db()
        db.insert("items", name="a")
        with db.pinned():
            db.drop_table("items")
            assert db.table("items").count() == 1
        assert "items" not in db


class TestDeltaConsolidation:
    def test_many_small_commits_consolidate(self):
        db = make_db()
        for i in range(300):
            db.insert("items", name=f"n{i}")
        snap = db.snapshot().table("items")
        assert isinstance(snap, TableSnapshot)
        # The overlay must stay bounded relative to the base — unbounded
        # delta chains would make every read O(history).
        assert len(snap._delta) <= max(64, len(snap._base) // 4)
        assert len(snap) == 300

    def test_interleaved_updates_and_deletes_stay_consistent(self):
        db = make_db()
        for i in range(50):
            db.insert("items", name=f"n{i}")
        for i in range(1, 51, 2):
            db.update("items", i, group="odd")
        for i in range(2, 51, 10):
            db.delete("items", i)
        live = {r["name"]: r["group"] for r in db._tables["items"]}
        snap = {r["name"]: r["group"] for r in db.snapshot().table("items")}
        assert snap == live


class TestSerialization:
    def test_database_roundtrip_is_exact(self):
        db = make_db()
        db.insert("items", name="a", group="g1")
        db.insert("items", name="b", group="g2")
        db.table("items").create_index("group")
        db.delete("items", 1)
        restored = restore_database(database_to_dict(db))
        assert restored.version == db.version
        assert restored.table_versions() == db.table_versions()
        assert restored.table("items").find(group="g2") == \
            db.table("items").find(group="g2")
        assert restored.table("items").has_index("group")
        # The id sequence survives: the next insert does not collide.
        row = restored.insert("items", name="c")
        assert row["id"] == 3

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError):
            restore_database({"format": 99, "tables": []})

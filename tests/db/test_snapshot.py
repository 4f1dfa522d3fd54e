"""MVCC snapshots: lock-free pinned reads over immutable versions."""

import os
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.db import (
    Column,
    Database,
    TableSchema,
    current_pin,
    database_to_dict,
    restore_database,
)
from repro.db.errors import RowNotFound, UniqueViolation
from repro.db.relations import ManyToMany
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
            assert sorted(row["id"] for row in t) == [1, 3]
            assert sorted(row["name"] for row in t) == ["a", "c"]
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


# -- hash indexes across publishes -------------------------------------------

_GROUPS = ("a", "b", "c")
_INDEX_COLUMNS = ("grp", "val", "note")
#: How many pinned snapshots an example keeps re-checking.
_KEEP_PINS = 4


class _Abort(Exception):
    pass


def _cold_index(snap: TableSnapshot, column: str) -> dict:
    """The index a from-scratch build over ``snap`` gives."""
    index: dict = {}
    for pk, row in snap._items():
        index.setdefault(row[column], []).append(pk)
    return index


def _assert_indexes_exact(snap: TableSnapshot) -> None:
    """Every hash index ``snap`` holds equals a cold build: same keys,
    same pk lists in the same order (nothing iterates an index's keys,
    so their order is not observable)."""
    assert len(snap) == sum(1 for _ in snap._items())
    for column, index in list(snap._lazy.items()):
        cold = _cold_index(snap, column)
        assert index == cold, column
        for value, pks in cold.items():
            assert snap.eq_count(column, value) == len(pks)
        assert snap.eq_count(column, "absent") == 0


def _answers(snap: TableSnapshot) -> dict:
    """What a reader gets from ``snap`` through its hash indexes."""
    out: dict = {"len": len(snap), "pks": [pk for pk, _ in snap._items()]}
    for column in _INDEX_COLUMNS:
        for value in (*_GROUPS, 0, 1, 2, ""):
            out[column, value] = (list(snap.eq_pks(column, value)),
                                  snap.eq_count(column, value))
        out["find", column] = [snap.find(**{column: v}) for v in _GROUPS]
    return out


_pick = st.integers(0, 10**6)
_row = st.tuples(st.sampled_from(_GROUPS), st.integers(0, 2))
_update = st.tuples(
    st.just("update"), _pick,
    st.one_of(st.none(), st.sampled_from(_GROUPS)),
    st.one_of(st.none(), st.integers(0, 2)),
    st.sampled_from(("", "x", "y")),
)
_row_step = st.one_of(
    st.tuples(st.just("insert"), _row),
    _update,
    st.tuples(st.just("delete"), _pick),
    st.tuples(st.just("reinsert"), _pick, _row),
)
_step = st.one_of(
    _row_step,
    st.tuples(st.just("insert_many"), st.lists(_row, min_size=1, max_size=4)),
    st.tuples(st.just("tx"), st.lists(_row_step, min_size=1, max_size=5),
              st.sampled_from(("commit", "caught", "abort"))),
    st.tuples(st.just("bulk"), st.integers(60, 80)),
    st.tuples(st.just("create_index"), st.sampled_from(_INDEX_COLUMNS)),
    st.tuples(st.just("checkpoint"), st.booleans()),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("read"), st.sampled_from(_INDEX_COLUMNS),
              st.sampled_from(_GROUPS)),
    st.tuples(st.just("pin")),
)


def _open_items(path) -> Database:
    db = Database.open(path, wal_sync="off")
    if "items" not in db:
        db.create_table(TableSchema("items", columns=(
            Column("id", int),
            Column("grp", str),
            Column("val", int),
            Column("note", str, default=""),
        )))
        db.table("items").create_index("grp")
        db.insert_many("items", [{"grp": g, "val": v}
                                 for g, v in zip(_GROUPS * 2, range(6))])
    return db


class TestInheritedIndexes:
    """A published snapshot's hash indexes always equal a cold build over
    its own rows, and a pinned snapshot keeps answering as it did."""

    @staticmethod
    def _apply_row_step(db: Database, step: tuple, ever: set) -> None:
        live = sorted(r["id"] for r in db.table("items"))
        kind = step[0]
        if kind == "insert":
            grp, val = step[1]
            ever.add(db.insert("items", grp=grp, val=val)["id"])
        elif kind == "update" and live:
            _, pick, grp, val, note = step
            changes = {"note": note}
            if grp is not None:
                changes["grp"] = grp
            if val is not None:
                changes["val"] = val
            db.update("items", live[pick % len(live)], **changes)
        elif kind == "delete" and live:
            db.delete("items", live[step[1] % len(live)])
        elif kind == "reinsert":
            gone = sorted(ever - set(live))
            if gone:
                grp, val = step[2]
                db.insert("items", id=gone[step[1] % len(gone)],
                          grp=grp, val=val)

    def _apply(self, db: Database, step: tuple, ever: set,
               path, opener=_open_items) -> Database:
        kind = step[0]
        if kind == "insert_many":
            rows = db.insert_many("items", [{"grp": g, "val": v}
                                            for g, v in step[1]])
            ever.update(r["id"] for r in rows)
        elif kind == "tx":
            _, inner, mode = step
            half = len(inner) // 2
            try:
                with db.transaction():
                    for s in inner[:half]:
                        self._apply_row_step(db, s, ever)
                    if mode == "caught":
                        try:
                            with db.transaction():
                                self._apply_row_step(db, inner[half], ever)
                                raise _Abort
                        except _Abort:
                            pass
                        # A failing statement rolls back alone, too.
                        first = min(ever)
                        if first in db.table("items"):
                            with pytest.raises(UniqueViolation):
                                db.insert("items", id=first, grp="a", val=0)
                        else:
                            with pytest.raises(RowNotFound):
                                db.update("items", first, val=0)
                    for s in inner[half:]:
                        self._apply_row_step(db, s, ever)
                    if mode == "abort":
                        raise _Abort
            except _Abort:
                pass
        elif kind == "bulk":
            for i in range(step[1]):
                ever.add(db.insert("items", grp=_GROUPS[i % 3], val=i % 3)["id"])
        elif kind == "create_index":
            db.table("items").create_index(step[1])
        elif kind == "checkpoint":
            env = {"CARCS_SNAPSHOT_INLINE_ROWS": "0" if step[1] else "100000"}
            with mock.patch.dict(os.environ, env):
                db.checkpoint()
        elif kind == "reopen":
            # The old handle stays open: pins taken on it read on.
            db = opener(path)
        elif kind == "read":
            with db.pinned():
                items = db.table("items")
                items.eq_pks(step[1], step[2])
                items.find(grp=step[2])
        elif kind != "pin":
            self._apply_row_step(db, step, ever)
        return db

    @given(steps=st.lists(_step, max_size=25))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_indexes_equal_a_cold_build_after_every_step(self, steps):
        with tempfile.TemporaryDirectory() as path:
            db = _open_items(path)
            handles = [db]
            ever = {r["id"] for r in db.table("items")}
            pins: list[tuple[TableSnapshot, dict]] = []
            try:
                for step in steps:
                    if step[0] == "pin":
                        with db.pinned():
                            snap = db.table("items")
                            pins.append((snap, _answers(snap)))
                            del pins[:-_KEEP_PINS]
                    db = self._apply(db, step, ever, path)
                    if db is not handles[-1]:
                        handles.append(db)
                    _assert_indexes_exact(db.snapshot().table("items"))
                    for snap, answers in pins:
                        _assert_indexes_exact(snap)
                        assert _answers(snap) == answers
            finally:
                for handle in handles:
                    handle.close()


# -- the live table and a pin answer alike -----------------------------------

#: Values each column is probed with: every value a step writes, plus
#: one that no row holds.
_PROBES = {
    "grp": (*_GROUPS, "z"),
    "val": (0, 1, 2, 9),
    "note": ("", "x", "y", "z"),
}
#: Multi-column conjunctions (hash seed + sorted, sorted + unindexed).
_CONJUNCTIONS = tuple(
    {"grp": g, "val": v} for g in _GROUPS for v in (0, 1)
) + tuple({"val": v, "note": n} for v in (0, 2) for n in ("", "x"))


def _open_sorted_items(path) -> Database:
    """``items`` with ``grp`` hash-indexed, ``val`` sorted-only and
    ``note`` unindexed, until a ``create_index`` step adds a hash index."""
    db = _open_items(path)
    db.table("items").create_sorted_index("val")
    return db


def _by_pk(rows) -> list:
    return sorted(rows, key=lambda row: row["id"])


def _reads(table, pks) -> dict:
    """Every read of the table API, keyed by call.  Rows from ``find``
    and iteration are sorted by pk, and ``eq_pks`` is sorted: the live
    table's hash buckets are sets.  ``find_one`` must be one of the
    ``find`` rows."""
    out: dict = {
        "len": len(table),
        "count": table.count(),
        "indexes": table.indexes(),
        "iter": _by_pk(table),
        "find": _by_pk(table.find()),
    }
    for pk in pks:
        out["get_or_none", pk] = table.get_or_none(pk)
        out["in", pk] = pk in table
        try:
            out["get", pk] = table.get(pk)
        except RowNotFound:
            out["get", pk] = RowNotFound
    probes = [{c: v} for c, values in _PROBES.items() for v in values]
    for equals in probes + list(_CONJUNCTIONS):
        key = tuple(sorted(equals.items()))
        found = table.find(**equals)
        one = table.find_one(**equals)
        assert (one is None) if not found else (one in found)
        out["find", key] = _by_pk(found)
        out["count", key] = table.count(**equals)
        if len(equals) == 1:
            [(column, value)] = equals.items()
            if table.has_index(column):
                out["eq_pks", key] = sorted(table.eq_pks(column, value))
                out["eq_count", key] = table.eq_count(column, value)
    return out


def _assert_find_in_items_order(snap: TableSnapshot) -> None:
    """A pinned ``find`` lists its rows in ``_items()`` order."""
    position = {pk: i for i, (pk, _) in enumerate(snap._items())}
    assert [row["id"] for row in snap.find()] == list(position)
    probes = [{c: v} for c, values in _PROBES.items() for v in values]
    for equals in probes + list(_CONJUNCTIONS):
        found = snap.find(**equals)
        order = [position[row["id"]] for row in found]
        assert order == sorted(order), equals
        assert snap.find_one(**equals) == (found[0] if found else None)


class TestLiveMatchesPinned:
    """After every step, each read of the live table equals the same read
    on a pin taken at that state: hash-indexed, sorted-only and
    unindexed columns, through writes, caught failures inside
    ``transaction()``, index creation, checkpoints and reopens."""

    @given(steps=st.lists(_step, max_size=25))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_read_agrees_after_every_step(self, steps):
        apply = TestInheritedIndexes()._apply
        with tempfile.TemporaryDirectory() as path:
            db = _open_sorted_items(path)
            handles = [db]
            ever = {r["id"] for r in db.table("items")}
            try:
                for step in steps:
                    db = apply(db, step, ever, path, _open_sorted_items)
                    if db is not handles[-1]:
                        handles.append(db)
                    pks = sorted(ever | {0, max(ever) + 1})
                    live = _reads(db.table("items"), pks)
                    with db.pinned():
                        snap = db.table("items")
                        assert isinstance(snap, TableSnapshot)
                        assert _reads(snap, pks) == live
                        _assert_find_in_items_order(snap)
            finally:
                for handle in handles:
                    handle.close()


def _link_db(db: Database) -> ManyToMany:
    """Materials, ontology entries and the link table between them."""
    db.create_table(TableSchema("materials", columns=(
        Column("id", int), Column("title", str))))
    db.create_table(TableSchema("ontology_entries", columns=(
        Column("id", int), Column("key", str))))
    links = ManyToMany(db, "material_classifications", "materials",
                       "ontology_entries")
    db.insert_many("materials", [{"title": f"m{i}"} for i in range(20)])
    db.insert_many("ontology_entries", [{"key": f"k{i}"} for i in range(10)])
    for mid in range(1, 21):
        for eid in range(1, 4):
            links.add(mid, eid)
    return links


def _curate(links: ManyToMany, read) -> None:
    """50 link writes, alternately inserts and deletes, each followed by
    ``read(material_id)``."""
    for i in range(50):
        mid = i % 20 + 1
        if i % 2 == 0:
            links.add(mid, 4 + i % 7)
        else:
            links.remove(mid, 1 + i % 3)
        read(mid)


class TestIndexInheritanceCost:
    """After the first read, pinned reads of a written table build no
    hash index: every published snapshot inherits the built one."""

    @pytest.fixture
    def scanned(self, monkeypatch):
        rows = [0]
        items = TableSnapshot._items

        def counting(snap):
            for item in items(snap):
                rows[0] += 1
                yield item

        monkeypatch.setattr(TableSnapshot, "_items", counting)
        return rows

    @staticmethod
    def _reader(db: Database, log: list):
        def read(mid: int) -> None:
            with db.pinned():
                pks = db.table("material_classifications").eq_pks(
                    "materials_id", mid)
                log.append(list(pks))
            live = db.table("material_classifications").find(materials_id=mid)
            assert sorted(pks) == sorted(r["id"] for r in live)
        return read

    def test_pinned_reads_after_writes_scan_no_rows(self, tmp_path, scanned):
        db = Database.open(tmp_path, wal_sync="off")
        try:
            links = _link_db(db)
            read = self._reader(db, [])
            read(1)
            assert scanned[0] > 0  # the first read builds cold
            scanned[0] = 0
            _curate(links, read)
            assert scanned[0] == 0
        finally:
            db.close()

    def test_replica_inherits_like_the_primary(self, tmp_path, scanned):
        primary = Database.open(tmp_path, wal_sync="off")
        replica = Database("replica")
        primary.add_commit_listener(replica.apply_frame)
        try:
            links = _link_db(primary)
            seen_primary: list = []
            seen_replica: list = []
            read_primary = self._reader(primary, seen_primary)
            read_replica = self._reader(replica, seen_replica)

            def read(mid: int) -> None:
                read_primary(mid)
                read_replica(mid)

            read(1)
            scanned[0] = 0
            _curate(links, read)
            assert scanned[0] == 0
            assert seen_replica == seen_primary
            ours = replica.snapshot().table("material_classifications")
            theirs = primary.snapshot().table("material_classifications")
            assert ours._lazy == theirs._lazy
            assert list(ours._lazy) == ["materials_id"]
        finally:
            primary.close()

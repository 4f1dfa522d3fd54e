"""The bounded change journal behind incremental index maintenance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, TableSchema


@pytest.fixture()
def db():
    database = Database("journal-test")
    database.create_table(TableSchema(
        "things",
        columns=(Column("id", int), Column("name", str)),
    ))
    return database


class TestRecords:
    def test_mutations_append_versioned_records(self, db):
        base = db.version
        row = db.insert("things", name="a")
        db.update("things", row["id"], name="b")
        db.delete("things", row["id"])
        changes = db.changes_since(base)
        assert [c.op for c in changes] == ["insert", "update", "delete"]
        assert [c.version for c in changes] == [base + 1, base + 2, base + 3]
        assert all(c.table == "things" for c in changes)
        assert all(c.pk == row["id"] for c in changes)

    def test_row_snapshots(self, db):
        base = db.version
        row = db.insert("things", name="a")
        db.update("things", row["id"], name="b")
        db.delete("things", row["id"])
        ins, upd, dele = db.changes_since(base)
        assert ins.row["name"] == "a"
        assert upd.row["name"] == "b"
        assert dele.row["name"] == "b"  # the removed row

    def test_ddl_is_logged(self, db):
        base = db.version
        db.create_table(TableSchema(
            "extra", columns=(Column("id", int),),
        ))
        db.drop_table("extra")
        assert [c.op for c in db.changes_since(base)] == [
            "create_table", "drop_table",
        ]

    def test_journal_is_contiguous_in_version(self, db):
        for i in range(20):
            db.insert("things", name=f"n{i}")
        changes = db.changes_since(db.version - 20)
        versions = [c.version for c in changes]
        assert versions == list(range(db.version - 19, db.version + 1))


class TestChangesSince:
    def test_current_version_yields_empty(self, db):
        assert db.changes_since(db.version) == []

    def test_future_version_yields_none(self, db):
        # A version observed inside a since-aborted transaction.
        assert db.changes_since(db.version + 5) is None

    def test_truncated_journal_yields_none(self):
        db = Database("tiny", changelog_size=4)
        db.create_table(TableSchema(
            "things", columns=(Column("id", int), Column("name", str)),
        ))
        base = db.version
        for i in range(10):
            db.insert("things", name=f"n{i}")
        assert db.changes_since(base) is None          # outran the bound
        assert db.changes_since(db.version - 4) is not None
        assert len(db.changes_since(db.version - 4)) == 4

    def test_exact_horizon_still_served(self):
        db = Database("tiny", changelog_size=4)
        db.create_table(TableSchema(
            "things", columns=(Column("id", int), Column("name", str)),
        ))
        for i in range(10):
            db.insert("things", name=f"n{i}")
        # The oldest retained record is version `db.version - 3`; asking
        # for everything after `db.version - 4` is exactly reachable.
        changes = db.changes_since(db.version - 4)
        assert [c.row["name"] for c in changes] == ["n6", "n7", "n8", "n9"]


class TestTransactions:
    def test_committed_transaction_keeps_records(self, db):
        base = db.version
        with db.transaction():
            db.insert("things", name="a")
            db.insert("things", name="b")
        assert [c.row["name"] for c in db.changes_since(base)] == ["a", "b"]

    def test_aborted_transaction_pops_records(self, db):
        db.insert("things", name="keep")
        base = db.version
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("things", name="phantom")
                raise RuntimeError("abort")
        assert db.changes_since(base) == []
        # The journal never mentions the phantom row again.
        assert all(
            c.row is None or c.row.get("name") != "phantom"
            for c in db.changes_since(0) or []
        )

    def test_outer_rollback_undoes_inner_commit(self, db):
        base = db.version
        with pytest.raises(RuntimeError):
            with db.transaction():
                with db.transaction():
                    db.insert("things", name="inner")
                raise RuntimeError("abort outer")
        assert db.changes_since(base) == []

    def test_rollback_restores_contiguity(self, db):
        base = db.version
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("things", name="phantom")
                raise RuntimeError("abort")
        db.insert("things", name="real")
        changes = db.changes_since(base)
        assert [c.row["name"] for c in changes] == ["real"]
        assert changes[0].version == base + 1


def _journal_filter(db, since, upto=None):
    """``changes_since`` as it read before the tail walk: the same
    guards, then a filter over the whole journal."""
    with db._changes_lock:
        target = db._version if upto is None else min(upto, db._version)
        if since == target:
            return []
        if since > target:
            return None
        if not db._changes or db._changes[0].version > since + 1:
            return None
        return [c for c in db._changes if since < c.version <= target]


def _check_tail_read(db):
    """The journal is contiguous and ascending in version, ending at the
    current version, and the tail read equals the whole-journal filter
    for every ``since`` and several ``upto``."""
    versions = [c.version for c in db._changes]
    assert versions == list(
        range(db.version - len(versions) + 1, db.version + 1)
    )
    for since in range(-1, db.version + 2):
        for upto in (None, since, since + 1, db.version - 1, db.version + 3):
            assert db.changes_since(since, upto=upto) == _journal_filter(
                db, since, upto
            )


class _Abort(Exception):
    pass


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 3)),
        st.tuples(st.just("update"), st.integers(0, 50)),
        st.tuples(st.just("delete"), st.integers(0, 50)),
        st.tuples(st.just("rollback"), st.integers(1, 3)),
        st.tuples(st.just("savepoint"), st.integers(1, 3)),
        st.tuples(st.just("ddl"), st.just(0)),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, bound=st.sampled_from((3, 8, 1024)))
def test_tail_read_equals_journal_filter(ops, bound):
    """Drawn writes, aborted transactions, savepoints rolled back inside
    committed transactions, DDL, and journal bounds small enough to
    truncate."""
    db = Database("tail", changelog_size=bound)
    db.create_table(TableSchema(
        "things", columns=(Column("id", int), Column("name", str)),
    ))

    def insert(n):
        for i in range(n):
            db.insert("things", name=f"n{i}")

    for op, arg in ops:
        ids = sorted(row["id"] for row in db.table("things"))
        if op == "insert":
            insert(arg)
        elif op == "update" and ids:
            db.update("things", ids[arg % len(ids)], name=f"u{arg}")
        elif op == "delete" and ids:
            db.delete("things", ids[arg % len(ids)])
        elif op == "rollback":
            with pytest.raises(_Abort):
                with db.transaction():
                    insert(arg)
                    _check_tail_read(db)
                    raise _Abort
        elif op == "savepoint":
            with db.transaction():
                insert(1)
                with pytest.raises(_Abort):
                    with db.transaction():
                        insert(arg)
                        raise _Abort
                insert(1)
        elif op == "ddl":
            db.create_table(TableSchema("extra", columns=(Column("id", int),)))
            db.drop_table("extra")
        _check_tail_read(db)

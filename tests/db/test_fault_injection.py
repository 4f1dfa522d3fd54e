"""Fault-injection suite for the durable storage path.

Where ``test_recovery_property`` truncates *copies* of a finished WAL,
this suite kills the **live writer**: a byte-budgeted file proxy tears a
real ``write(2)`` mid-record, the workload dies with ``CrashError``,
and recovery must restore exactly the frames whose records fully
reached disk — at every frame boundary and at every tear position
inside the fatal record.  It also covers the failure modes around the
WAL proper: fsync raising at the durability barrier, a checkpoint
crashing before/at its atomic publish, and the degenerate torn-magic-
header file.
"""

import random

import pytest

from repro.db import Column, Database, ForeignKey, TableSchema, database_to_dict
from repro.db.errors import UniqueViolation
from repro.db.wal import MAGIC, encode_record, read_wal
from tests.faults import (
    CrashError,
    crash_wal_writes,
    failing_fsync,
    failing_replace,
    tear,
)


def _schema():
    return [
        TableSchema(
            "materials",
            columns=(
                Column("id", int),
                Column("title", str),
                Column("collection", str, default=""),
            ),
            unique=(("title",),),
        ),
        TableSchema(
            "tags", columns=(Column("id", int), Column("name", str)),
            unique=(("name",),),
        ),
        TableSchema(
            "material_tags",
            columns=(
                Column("id", int),
                Column("materials_id", int),
                Column("tags_id", int),
            ),
            foreign_keys=(
                ForeignKey("materials_id", "materials", on_delete="cascade"),
                ForeignKey("tags_id", "tags", on_delete="cascade"),
            ),
        ),
    ]


def _workload(db, rng: random.Random, commit):
    """A mixed write stream: DML, DDL, batches, transactions, cascades.
    Calls ``commit`` after every committed frame (oracle capture point)."""
    for schema in _schema():
        commit(lambda s=schema: db.create_table(s))
    for i in range(6):
        commit(lambda i=i: db.insert(
            "materials", title=f"m-{i}", collection=rng.choice("ab"),
        ))
    commit(lambda: db.table("materials").create_index("collection"))
    for i in range(4):
        commit(lambda i=i: db.insert("tags", name=f"t-{i}"))
    commit(lambda: db.insert_many(
        "tags", [{"name": f"t-{i}"} for i in range(4, 8)],
    ))
    # A batch whose last row breaks uniqueness commits nothing and
    # appends no WAL record.
    version, appends = db.version, db.wal_stats()["appends"]
    with pytest.raises(UniqueViolation):
        db.insert_many("tags", [{"name": "t-8"}, {"name": "t-0"}])
    assert (db.version, db.wal_stats()["appends"]) == (version, appends)
    assert db.table("tags").find_one(name="t-8") is None

    def link_batch():
        with db.transaction():
            for t in range(1, 5):
                db.insert("material_tags", materials_id=1, tags_id=t)

    commit(link_batch)
    commit(lambda: db.update("materials", 2, collection="renamed"))
    commit(lambda: db.delete("materials", 1))  # cascades into links

    def mixed_tx():
        with db.transaction():
            row = db.insert("materials", title="tx-made")
            db.insert("material_tags", materials_id=row["id"], tags_id=2)
            db.delete("tags", 4)

    commit(mixed_tx)


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    """One uninterrupted run: per-frame oracle dumps + record sizes.

    ``record_sizes[i]`` is the encoded byte length of frame ``i``'s WAL
    record; ``oracle[i]`` is the engine dump after ``i`` frames;
    ``batches`` are the indexes of the multi-row insert records (an
    ``insert_many`` call or a transaction of inserts into one table).
    """
    store = tmp_path_factory.mktemp("oracle") / "store"
    db = Database.open(store, wal_sync="off")
    oracle = [database_to_dict(db)]
    rng = random.Random(0x5EED)

    def commit(fn):
        fn()
        oracle.append(database_to_dict(db))

    _workload(db, rng, commit)
    db.close()
    frames, _, torn = read_wal(store / "wal.log")
    assert not torn and len(frames) == len(oracle) - 1
    record_sizes = [len(encode_record(f)) for f in frames]
    batches = {
        i for i, f in enumerate(frames)
        if len(f["ops"]) > 1 and len({op["t"] for op in f["ops"]}) == 1
        and all(op["o"] == "insert" for op in f["ops"])
    }
    assert len(batches) == 2
    return oracle, record_sizes, batches


class TestCrashAtEveryFrameBoundary:
    def test_prefix_consistent_recovery(self, oracle_run, tmp_path):
        """Kill the live writer at every frame boundary (budget = exact
        bytes for k whole records): recovery must land on oracle[k]."""
        oracle, record_sizes, _ = oracle_run
        for k in range(len(record_sizes)):
            budget = sum(record_sizes[:k])
            store = tmp_path / f"crash-{k}"
            db = Database.open(store, wal_sync="off")
            crash_wal_writes(db, budget)
            rng = random.Random(0x5EED)
            with pytest.raises(CrashError):
                _workload(db, rng, lambda fn: fn())
            # The "process" is dead; only the files matter now.
            recovered = Database.open(store, wal_sync="off")
            report = recovered.recovery_report
            assert report["frames_replayed"] == k
            assert not report["torn"], (
                f"boundary crash at frame {k} must not leave a tear"
            )
            assert database_to_dict(recovered) == oracle[k], (
                f"state diverged after crash at frame boundary {k}"
            )
            recovered.close()

    def test_mid_record_tears_recover_the_prefix(self, oracle_run, tmp_path):
        """Tear *inside* a record (every offset of a short record or a
        batch record, a seeded sample of any other long one): the torn
        frame never applies, the prefix always does, and the tail is
        truncated on reopen."""
        oracle, record_sizes, batches = oracle_run
        rng = random.Random(0xBAD5EED)
        cases = []
        for k, size in enumerate(record_sizes):
            offsets = range(1, size) if size <= 24 or k in batches else sorted(
                rng.sample(range(1, size), 12)
            )
            cases.extend((k, off) for off in offsets)
        assert len(cases) >= 100
        for k, off in cases:
            budget = sum(record_sizes[:k]) + off
            store = tmp_path / f"tear-{k}-{off}"
            db = Database.open(store, wal_sync="off")
            crash_wal_writes(db, budget)
            with pytest.raises(CrashError):
                _workload(db, random.Random(0x5EED), lambda fn: fn())
            recovered = Database.open(store, wal_sync="off")
            report = recovered.recovery_report
            assert report["frames_replayed"] == k, (k, off)
            assert report["torn"] and report["truncated_bytes"] == off
            assert database_to_dict(recovered) == oracle[k], (k, off)
            recovered.close()
            # Recovery converges: the second open sees a clean log.
            again = Database.open(store, wal_sync="off")
            assert not again.recovery_report["torn"]
            assert database_to_dict(again) == oracle[k]
            again.close()


class TestFsyncFailure:
    def test_fsync_error_surfaces_and_log_stays_readable(self, tmp_path):
        db = Database.open(tmp_path / "store", wal_sync="always")
        db.create_table(_schema()[0])
        db.insert("materials", title="before")
        committed = database_to_dict(db)
        with failing_fsync():
            with pytest.raises(OSError):
                db.insert("materials", title="during")
        # The barrier failed *after* the bytes were written: recovery
        # may keep that frame or not, but every frame before it must
        # survive and the log must parse cleanly.
        recovered = Database.open(tmp_path / "store", wal_sync="off")
        state = database_to_dict(recovered)
        titles = {r["title"] for r in recovered.table("materials")}
        assert "before" in titles
        assert state["version"] >= committed["version"]
        recovered.close()
        db.close()


class TestCheckpointCrash:
    def test_replace_failure_keeps_old_snapshot_and_wal(self, tmp_path):
        db = Database.open(tmp_path / "store", wal_sync="off")
        db.create_table(_schema()[0])
        db.insert("materials", title="a")
        db.checkpoint()
        db.insert("materials", title="b")
        before = database_to_dict(db)
        with failing_replace():
            with pytest.raises(OSError):
                db.checkpoint()
        db.close()
        # Crash before the atomic publish: old snapshot + full WAL still
        # reconstruct everything.
        recovered = Database.open(tmp_path / "store", wal_sync="off")
        assert database_to_dict(recovered) == before
        recovered.close()

    def test_snapshot_write_fsync_failure_keeps_wal_authoritative(
        self, tmp_path
    ):
        db = Database.open(tmp_path / "store", wal_sync="off")
        db.create_table(_schema()[0])
        db.insert("materials", title="a")
        before = database_to_dict(db)
        with failing_fsync():
            with pytest.raises(OSError):
                db.checkpoint()
        db.close()
        recovered = Database.open(tmp_path / "store", wal_sync="off")
        assert database_to_dict(recovered) == before
        recovered.close()


class TestTornMagicHeader:
    """A crash during the very first write tears the 8-byte header."""

    @pytest.mark.parametrize("keep", range(8))
    def test_every_header_prefix_recovers_empty(self, tmp_path, keep):
        store = tmp_path / "store"
        db = Database.open(store, wal_sync="off")
        db.create_table(_schema()[1])
        db.insert("tags", name="doomed")
        db.close()
        tear(store / "wal.log", keep)

        frames, valid, torn = read_wal(store / "wal.log")
        assert (frames, valid) == ([], len(MAGIC))
        # keep == 0 reads as a missing/empty log, not a tear.
        assert torn == (keep > 0)

        recovered = Database.open(store, wal_sync="off")
        assert recovered.recovery_report["frames_replayed"] == 0
        assert recovered.recovery_report["truncated_bytes"] >= 0
        assert "tags" not in recovered
        # The writer healed the header: committing now must produce a
        # fully valid log (no zero-extension garbage).
        recovered.create_table(_schema()[1])
        recovered.insert("tags", name="alive")
        recovered.close()
        frames, _, torn = read_wal(store / "wal.log")
        assert not torn and len(frames) == 2

    def test_foreign_garbage_still_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTWAL\x00\x00following bytes")
        with pytest.raises(ValueError, match="bad magic"):
            read_wal(path)
        path.write_bytes(b"XYZ")  # short AND not a MAGIC prefix
        with pytest.raises(ValueError, match="bad magic"):
            read_wal(path)

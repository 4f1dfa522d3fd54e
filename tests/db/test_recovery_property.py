"""Crash-recovery property: for *any* WAL truncation point, ``open``
recovers exactly the last fully committed version.

The harness builds a durable database through a mixed workload (single
writes, multi-op transactions, cascades, DDL, one mid-stream checkpoint),
recording an oracle dump of the engine state after every committed frame.
It then simulates crashes by truncating a copy of the WAL at >= 100
randomized byte offsets — mid-header, mid-payload, at record boundaries —
reopens each copy, and asserts byte-for-byte state equality with the
oracle for however many frames survived intact.
"""

import json
import random
import shutil

import pytest

from repro.db import (
    Column,
    Database,
    ForeignKey,
    TableSchema,
    database_to_dict,
    read_wal,
)
from repro.db.wal import MAGIC

N_OFFSETS = 120


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A durable store + per-frame oracle dumps.

    Returns ``(store_dir, oracle)`` where ``oracle[i]`` is the engine
    dump after the i-th post-checkpoint WAL frame (``oracle[0]`` is the
    checkpointed base state).
    """
    store = tmp_path_factory.mktemp("recovery") / "store"
    db = Database.open(store, wal_sync="off")
    db.create_table(TableSchema(
        "materials",
        columns=(
            Column("id", int),
            Column("title", str),
            Column("collection", str, default=""),
        ),
        unique=(("title",),),
    ))
    db.create_table(TableSchema(
        "tags",
        columns=(Column("id", int), Column("name", str)),
        unique=(("name",),),
    ))
    db.create_table(TableSchema(
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
    ))
    for i in range(8):
        db.insert("materials", title=f"seed-{i}", collection="seed")
    # Everything up to here lands in the checkpoint; the workload
    # below becomes the WAL tail whose truncations we crash-test.
    db.checkpoint()

    oracle = [database_to_dict(db)]
    rng = random.Random(0xC0FFEE)

    def commit(fn):
        fn()
        oracle.append(database_to_dict(db))

    for i in range(10):
        commit(lambda i=i: db.insert(
            "materials", title=f"wal-{i}", collection=rng.choice("abc"),
        ))
    commit(lambda: db.table("materials").create_index("collection"))
    for i in range(6):
        commit(lambda i=i: db.insert("tags", name=f"tag-{i}"))

    def link_batch():
        with db.transaction():
            for t in range(1, 7):
                db.insert("material_tags", materials_id=1, tags_id=t)
                db.insert("material_tags", materials_id=2, tags_id=t)
    commit(link_batch)

    for pk in (3, 5, 7):
        commit(lambda pk=pk: db.update(
            "materials", pk, collection="renamed",
        ))
    commit(lambda: db.delete("materials", 1))   # cascades into links

    def mixed_tx():
        with db.transaction():
            row = db.insert("materials", title="tx-made")
            db.insert("material_tags", materials_id=row["id"], tags_id=2)
            db.update("materials", 4, collection="tx")
            db.delete("tags", 6)                # cascades into links
    commit(mixed_tx)

    db.close()
    return store, oracle


def copy_checkpoint(store, crashed) -> None:
    """Copy the checkpoint: its manifest and the rows file it names."""
    manifest = store / "snapshot.json"
    rows_file = json.loads(manifest.read_text())["rows_file"]
    for name in ("snapshot.json", rows_file):
        shutil.copy(store / name, crashed / name)


def crash_offsets(wal_bytes: bytes) -> list[int]:
    """>= N_OFFSETS truncation points, randomized plus boundary cases."""
    rng = random.Random(0xDEADBEEF)
    lo, hi = len(MAGIC), len(wal_bytes)
    offsets = {lo, hi, hi - 1, lo + 1, lo + 4, lo + 8}
    while len(offsets) < N_OFFSETS:
        offsets.add(rng.randint(lo, hi))
    return sorted(offsets)


class TestTornWalRecovery:
    def test_every_truncation_recovers_last_committed_version(
        self, corpus, tmp_path
    ):
        store, oracle = corpus
        wal_bytes = (store / "wal.log").read_bytes()
        full_frames, _, torn = read_wal(store / "wal.log")
        assert not torn
        assert len(full_frames) == len(oracle) - 1

        offsets = crash_offsets(wal_bytes)
        assert len(offsets) >= 100
        for offset in offsets:
            crashed = tmp_path / f"crash-{offset}"
            crashed.mkdir()
            copy_checkpoint(store, crashed)
            (crashed / "wal.log").write_bytes(wal_bytes[:offset])

            # How many frames survived is decided by the codec alone —
            # the replay path must agree with it exactly.
            survived, _, _ = read_wal(crashed / "wal.log")
            expected = oracle[len(survived)]

            db = Database.open(crashed, wal_sync="off")
            report = db.recovery_report
            assert report["frames_replayed"] == len(survived), offset
            recovered = database_to_dict(db)
            db.close()
            assert recovered == expected, (
                f"state diverged after truncation at byte {offset} "
                f"({len(survived)} frames survived)"
            )

    def test_truncation_then_reopen_is_stable(self, corpus, tmp_path):
        # Recovery must converge: opening a recovered store again replays
        # nothing new and reports no tear.
        store, oracle = corpus
        wal_bytes = (store / "wal.log").read_bytes()
        offset = (len(MAGIC) + len(wal_bytes)) // 2
        crashed = tmp_path / "crash"
        crashed.mkdir()
        copy_checkpoint(store, crashed)
        (crashed / "wal.log").write_bytes(wal_bytes[:offset])

        first = Database.open(crashed, wal_sync="off")
        state = database_to_dict(first)
        first.close()
        second = Database.open(crashed, wal_sync="off")
        assert not second.recovery_report["torn"]
        assert database_to_dict(second) == state
        second.close()

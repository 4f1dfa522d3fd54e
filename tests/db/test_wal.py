"""WAL durability: record codec, fsync policy, open/replay, checkpoints."""

import json
import os
import struct

import pytest

from repro.db import (
    Column,
    Database,
    ForeignKey,
    TableSchema,
    read_wal,
    truncate_wal,
)
from repro.db.pager import ENV_BLOCK_ROWS, ROWS_PREFIX
from repro.db.snapshot import database_to_dict
from repro.db.wal import (
    DEFAULT_BATCH_EVERY,
    MAGIC,
    WalWriter,
    encode_record,
    env_sync_mode,
)


def schema() -> TableSchema:
    return TableSchema(
        "items",
        columns=(Column("id", int), Column("name", str)),
        unique=(("name",),),
    )


def open_db(tmp_path, **kwargs) -> Database:
    kwargs.setdefault("wal_sync", "off")
    return Database.open(tmp_path / "store", **kwargs)


class TestRecordCodec:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        w = WalWriter(path, sync="off")
        w.append({"v": 1, "ops": [{"t": "items", "o": "insert", "pk": 1}]})
        w.append({"v": 2, "ops": []})
        w.close()
        frames, valid, torn = read_wal(path)
        assert [f["v"] for f in frames] == [1, 2]
        assert not torn
        assert valid == path.stat().st_size

    def test_missing_file_reads_empty(self, tmp_path):
        frames, valid, torn = read_wal(tmp_path / "absent.log")
        assert frames == [] and not torn

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL\x00" + b"garbage")
        with pytest.raises(ValueError):
            read_wal(path)

    def test_crc_flip_marks_tail_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        w = WalWriter(path, sync="off")
        w.append({"v": 1, "ops": []})
        w.append({"v": 2, "ops": []})
        w.close()
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # corrupt the last record's payload
        path.write_bytes(bytes(blob))
        frames, valid, torn = read_wal(path)
        assert [f["v"] for f in frames] == [1]
        assert torn
        truncate_wal(path, valid)
        frames2, _, torn2 = read_wal(path)
        assert [f["v"] for f in frames2] == [1] and not torn2

    def test_absurd_length_prefix_is_torn_not_allocated(self, tmp_path):
        path = tmp_path / "wal.log"
        record = encode_record({"v": 1, "ops": []})
        bogus = struct.pack("<II", 2**31, 0)
        path.write_bytes(MAGIC + record + bogus)
        frames, valid, torn = read_wal(path)
        assert [f["v"] for f in frames] == [1]
        assert torn and valid == len(MAGIC) + len(record)


class TestSyncModes:
    def test_always_fsyncs_every_append(self, tmp_path):
        w = WalWriter(tmp_path / "w.log", sync="always")
        for v in range(5):
            w.append({"v": v, "ops": []})
        assert w.fsyncs == 5
        w.close()

    def test_batch_fsyncs_every_n(self, tmp_path):
        w = WalWriter(tmp_path / "w.log", sync="batch", batch_every=3)
        for v in range(7):
            w.append({"v": v, "ops": []})
        assert w.fsyncs == 2  # at appends 3 and 6
        w.close()  # close barrier syncs the remainder
        assert w.fsyncs == 3

    def test_off_never_fsyncs(self, tmp_path):
        w = WalWriter(tmp_path / "w.log", sync="off")
        for v in range(5):
            w.append({"v": v, "ops": []})
        w.close()
        assert w.fsyncs == 0

    def test_env_sync_mode(self, monkeypatch):
        monkeypatch.setenv("CARCS_WAL_SYNC", "always")
        assert env_sync_mode() == "always"
        monkeypatch.setenv("CARCS_WAL_SYNC", "nonsense")
        assert env_sync_mode() == "batch"
        monkeypatch.delenv("CARCS_WAL_SYNC")
        assert env_sync_mode() == "batch"

    def test_writer_honours_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CARCS_WAL_SYNC", "always")
        w = WalWriter(tmp_path / "w.log")
        assert w.sync == "always"
        w.close()


class TestOpenAndReplay:
    def test_fresh_directory_starts_empty_and_durable(self, tmp_path):
        db = open_db(tmp_path)
        assert db.version == 0
        db.create_table(schema())
        db.insert("items", name="a")
        db.close()
        again = open_db(tmp_path)
        assert again.table("items").find_one(name="a") is not None
        assert again.version == db.version
        again.close()

    def test_replay_preserves_everything(self, tmp_path):
        db = open_db(tmp_path)
        db.create_table(schema())
        db.table("items").create_index("name")
        with db.transaction():
            for i in range(10):
                db.insert("items", name=f"n{i}")
        db.update("items", 3, name="renamed")
        db.delete("items", 5)
        db.close()
        again = open_db(tmp_path)
        report = again.recovery_report
        assert report["frames_replayed"] > 0
        assert again.version == db.version
        assert again.table("items").has_index("name")
        assert again.table("items").get(3)["name"] == "renamed"
        assert again.table("items").get_or_none(5) is None
        assert len(again.table("items")) == 9
        again.close()

    def test_cascade_delete_replays(self, tmp_path):
        db = open_db(tmp_path)
        db.create_table(schema())
        db.create_table(TableSchema(
            "children",
            columns=(Column("id", int), Column("items_id", int)),
            foreign_keys=(
                ForeignKey("items_id", "items", on_delete="cascade"),
            ),
        ))
        db.insert("items", name="parent")
        db.insert("children", items_id=1)
        db.insert("children", items_id=1)
        db.delete("items", 1)  # cascades through both children
        db.close()
        again = open_db(tmp_path)
        assert len(again.table("items")) == 0
        assert len(again.table("children")) == 0
        again.close()

    def test_rolled_back_transaction_is_not_logged(self, tmp_path):
        db = open_db(tmp_path)
        db.create_table(schema())
        db.insert("items", name="kept")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("items", name="doomed")
                raise RuntimeError("abort")
        db.close()
        again = open_db(tmp_path)
        assert [r["name"] for r in again.table("items")] == ["kept"]
        again.close()

    def test_torn_tail_recovers_to_last_commit(self, tmp_path):
        db = open_db(tmp_path)
        db.create_table(schema())
        db.insert("items", name="a")
        db.insert("items", name="b")
        db.close()
        wal = tmp_path / "store" / "wal.log"
        blob = wal.read_bytes()
        wal.write_bytes(blob[:-3])  # tear mid-record
        again = open_db(tmp_path)
        report = again.recovery_report
        assert report["torn"] and report["truncated_bytes"] > 0
        assert [r["name"] for r in again.table("items")] == ["a"]
        # The log is clean again: the next open finds no tear.
        again.insert("items", name="c")
        again.close()
        third = open_db(tmp_path)
        assert not third.recovery_report["torn"]
        assert {r["name"] for r in third.table("items")} == {"a", "c"}
        third.close()


class TestCheckpoint:
    def test_checkpoint_resets_the_wal(self, tmp_path):
        db = open_db(tmp_path)
        db.create_table(schema())
        for i in range(5):
            db.insert("items", name=f"n{i}")
        size_before = db.wal_stats()["size_bytes"]
        db.checkpoint()
        assert db.wal_stats()["size_bytes"] < size_before
        db.insert("items", name="post")
        db.close()
        again = open_db(tmp_path)
        assert again.recovery_report["snapshot_version"] > 0
        assert len(again.table("items")) == 6
        assert again.version == db.version
        again.close()

    def test_auto_checkpoint_on_wal_growth(self, tmp_path):
        db = open_db(tmp_path, compact_bytes=2_000)
        db.create_table(schema())
        for i in range(200):
            db.insert("items", name=f"name-{i:04d}")
        assert db.wal_stats()["checkpoints"] >= 1
        assert db.wal_stats()["size_bytes"] < 2_000 + 1_000
        db.close()
        again = open_db(tmp_path)
        assert len(again.table("items")) == 200
        again.close()

    def test_leftover_wal_after_checkpoint_replays_as_noop(self, tmp_path):
        # Simulate "crash between snapshot replace and wal reset": the
        # snapshot subsumes the log, whose frames must replay as no-ops.
        db = open_db(tmp_path)
        db.create_table(schema())
        db.insert("items", name="a")
        db.close()
        wal = tmp_path / "store" / "wal.log"
        stale = wal.read_bytes()
        db2 = open_db(tmp_path)
        db2.checkpoint()
        db2.close()
        wal.write_bytes(stale)  # resurrect the pre-checkpoint log
        again = open_db(tmp_path)
        assert len(again.table("items")) == 1
        assert again.version == db2.version
        again.close()

    def test_snapshot_bytes_equal_one_compact_dumps(self, tmp_path,
                                                    monkeypatch):
        """The manifest is one compact ``json.dumps``, and the checkpoint
        reopens to the same state: tables of 0, 1, one block and one
        block plus one rows, strings holding newlines, quotes and
        non-ASCII text."""
        block = 16
        monkeypatch.setenv(ENV_BLOCK_ROWS, str(block))
        db = open_db(tmp_path)
        sizes = (0, 1, block, block + 1)
        for n in sizes:
            db.create_table(TableSchema(
                f"t{n}", columns=(Column("id", int), Column("s", str),
                                  Column("x", float, nullable=True)),
            ))
            db.table(f"t{n}").create_index("s")
            for i in range(n):
                db.insert(f"t{n}", s=f'row {i}\n"q" \\ é ☃ {{"rows":[]}}',
                          x=i / 3 if i % 2 else None)
        expected = database_to_dict(db)
        target = db.checkpoint()
        manifest = json.loads(target.read_bytes())
        assert target.read_bytes() == json.dumps(
            manifest, separators=(",", ":")).encode("utf-8")
        assert [len(t["blocks"]) for t in manifest["tables"]] == [
            -(-n // block) for n in sizes]
        db.close()
        again = open_db(tmp_path)
        assert [len(again.table(f"t{n}")) for n in sizes] == list(sizes)
        assert database_to_dict(again) == expected
        again.close()

    def test_format_1_checkpoint_upgrades_to_blocked(self, tmp_path):
        # A directory checkpointed as one format-1 dict, plus a WAL tail.
        db = open_db(tmp_path)
        db.create_table(schema())
        db.table("items").create_index("name")
        for name in ("a", "b", "c"):
            db.insert("items", name=name)
        store = tmp_path / "store"
        (store / "snapshot.json").write_text(
            json.dumps(database_to_dict(db)), encoding="utf-8")
        db._wal.reset()
        version = db.version
        db.insert("items", name="d")
        db.update("items", 1, name="a2")
        expected = database_to_dict(db)
        db.close()

        db = open_db(tmp_path)
        assert db.recovery_report["snapshot_version"] == version
        assert db.recovery_report["frames_replayed"] == 2
        assert database_to_dict(db) == expected
        db.checkpoint()
        db.close()
        assert json.loads((store / "snapshot.json").read_text())[
            "format"] == 2
        assert len(list(store.glob(f"{ROWS_PREFIX}*.dat"))) == 1
        again = open_db(tmp_path)
        assert again.recovery_report["frames_replayed"] == 0
        assert database_to_dict(again) == expected
        again.close()


class TestAttach:
    def test_attach_makes_memory_db_durable(self, tmp_path):
        db = Database("mem")
        db.create_table(schema())
        db.insert("items", name="a")
        db.attach(tmp_path / "store", wal_sync="off")
        db.insert("items", name="b")  # logged post-attach
        db.close()
        again = open_db(tmp_path)
        assert {r["name"] for r in again.table("items")} == {"a", "b"}
        again.close()

    def test_double_attach_rejected(self, tmp_path):
        db = Database("mem")
        db.attach(tmp_path / "one", wal_sync="off")
        with pytest.raises(ValueError):
            db.attach(tmp_path / "two", wal_sync="off")
        db.close()

    def test_snapshot_file_is_json(self, tmp_path):
        db = Database("mem")
        db.create_table(schema())
        db.insert("items", name="a")
        path = db.attach(tmp_path / "store", wal_sync="off")
        data = json.loads(path.read_text())
        assert data["format"] == 2
        assert data["version"] == db.version
        assert (path.parent / data["rows_file"]).is_file()
        entry = {t["schema"]["name"]: t for t in data["tables"]}["items"]
        assert entry["rows"] == 1
        db.close()

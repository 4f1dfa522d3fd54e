"""Tiered storage: blocked checkpoints, lazy page-in, cache bounds.

The format-2 path must be *durability-neutral*: everything the eager
format-1 engine guarantees (crash safety, WAL replay, MVCC pins, unique
and FK enforcement, planner correctness) must hold identically when the
rows live in a cold block tier and page in lazily.
"""

from __future__ import annotations

import json
import sys
import threading
import zlib

import pytest

from repro.db import Column, Database, TableSchema, UniqueViolation, query
from repro.db.errors import RecoveryError, RowNotFound
from repro.db.pager import (
    ENV_BLOCK_ROWS,
    ENV_CACHE_BYTES,
    ENV_INLINE_ROWS,
    ROWS_PREFIX,
    BlockCache,
    PagedRows,
)

from tests.faults import failing_replace


N_ROWS = 100


@pytest.fixture()
def blocked_env(monkeypatch):
    """Force every checkpoint into format 2 with tiny (8-row) blocks."""
    monkeypatch.setenv(ENV_INLINE_ROWS, "1")
    monkeypatch.setenv(ENV_BLOCK_ROWS, "8")


def _schema():
    return TableSchema(
        "items",
        columns=(
            Column("id", int),
            Column("name", str),
            Column("group", str),
            Column("score", int, nullable=True),
        ),
        unique=(("name",),),
    )


def _populate(db, n=N_ROWS):
    for i in range(n):
        db.insert(
            "items", name=f"item-{i:04d}", group="xyz"[i % 3],
            score=i % 7 if i % 5 else None,
        )


def _build(tmp_path, n=N_ROWS):
    db = Database.open(tmp_path / "store")
    db.create_table(_schema())
    db.table("items").create_index("group")
    db.table("items").create_sorted_index("score")
    _populate(db, n)
    db.checkpoint()
    db.close()
    return tmp_path / "store"


def _rows_file(directory):
    files = sorted(directory.glob(f"{ROWS_PREFIX}*.dat"))
    assert len(files) == 1, files
    return files[0]


class TestFormatSelection:
    def test_small_databases_stay_inline_format_1(self, tmp_path):
        directory = _build(tmp_path, n=20)
        data = json.loads((directory / "snapshot.json").read_text())
        assert data["format"] == 1
        assert not list(directory.glob(f"{ROWS_PREFIX}*.dat"))

    def test_large_databases_checkpoint_blocked(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        data = json.loads((directory / "snapshot.json").read_text())
        assert data["format"] == 2
        assert _rows_file(directory).name == data["rows_file"]
        entry = {t["schema"]["name"]: t for t in data["tables"]}["items"]
        assert entry["rows"] == N_ROWS
        assert len(entry["blocks"]) == (N_ROWS + 7) // 8
        assert entry["indexes"] == ["group"]
        assert entry["sorted_indexes"] == ["score"]


class TestLazyOpen:
    def test_round_trip_preserves_every_row(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        rows = {row["id"]: row for row in db.table("items")}
        assert len(rows) == N_ROWS
        assert rows[1]["name"] == "item-0000"
        assert rows[N_ROWS]["name"] == f"item-{N_ROWS - 1:04d}"
        db.close()

    def test_open_pages_nothing_in(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        stats = db.storage_stats()
        assert stats["block_cache_resident_blocks"] == 0
        assert stats["tier_blocks"] == (N_ROWS + 7) // 8
        db.close()

    def test_point_read_pages_exactly_one_block(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        assert db.table("items").get(42)["name"] == "item-0041"
        stats = db.storage_stats()
        assert stats["block_cache_resident_blocks"] == 1
        assert stats["block_cache_misses"] == 1
        # Same block again: pure cache hit.
        db.table("items").get(43)
        assert db.storage_stats()["block_cache_hits"] >= 1
        db.close()

    def test_cache_stays_within_budget_and_counts_evictions(
        self, tmp_path, blocked_env, monkeypatch
    ):
        directory = _build(tmp_path)
        monkeypatch.setenv(ENV_CACHE_BYTES, "1")  # evict all but newest
        db = Database.open(directory)
        rows = list(db.table("items"))
        assert len(rows) == N_ROWS
        stats = db.storage_stats()
        assert stats["block_cache_resident_blocks"] == 1
        assert stats["block_cache_evictions"] >= (N_ROWS + 7) // 8 - 1
        db.close()

    def test_lazy_hash_index_answers_correctly(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        found = db.table("items").find(group="x")
        assert sorted(r["id"] for r in found) == [
            i + 1 for i in range(N_ROWS) if i % 3 == 0
        ]
        db.close()

    def test_lazy_unique_maps_still_enforce(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        with pytest.raises(UniqueViolation):
            db.insert("items", name="item-0000", group="x", score=None)
        db.close()


class TestDurability:
    def test_wal_replay_over_paged_tables(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        db.insert("items", name="fresh", group="x", score=1)
        db.update("items", 10, score=99)
        db.delete("items", 20)
        db.close()

        db = Database.open(directory)
        assert db.recovery_report["frames_replayed"] == 3
        assert db.table("items").find_one(name="fresh") is not None
        assert db.table("items").get(10)["score"] == 99
        with pytest.raises(RowNotFound):
            db.table("items").get(20)
        assert len(db.table("items")) == N_ROWS  # +1 insert, -1 delete
        db.close()

    def test_corrupt_block_raises_recovery_error(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        rows_path = _rows_file(directory)
        blob = bytearray(rows_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        rows_path.write_bytes(bytes(blob))
        db = Database.open(directory)  # manifest alone: opens fine
        with pytest.raises(RecoveryError, match="crc|block"):
            list(db.table("items"))
        db.close()

    def test_missing_rows_file_fails_loudly(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        _rows_file(directory).unlink()
        with pytest.raises(RecoveryError, match="rows file"):
            Database.open(directory)

    def test_crash_before_manifest_publish_keeps_old_tier(
        self, tmp_path, blocked_env
    ):
        directory = _build(tmp_path)
        db = Database.open(directory)
        db.insert("items", name="victim", group="x", score=1)
        with failing_replace():
            with pytest.raises(OSError):
                db.checkpoint()
        db.close()
        # The old manifest + rows file + WAL still recover everything.
        db = Database.open(directory)
        assert db.table("items").find_one(name="victim") is not None
        assert len(db.table("items")) == N_ROWS + 1
        db.close()

    def test_recheckpoint_compacts_overlay_into_new_tier(
        self, tmp_path, blocked_env
    ):
        directory = _build(tmp_path)
        db = Database.open(directory)
        db.insert("items", name="late", group="y", score=3)
        db.delete("items", 1)
        db.checkpoint()
        stats = db.storage_stats()
        assert stats["tier_overlay_rows"] == 0
        assert stats["tier_tombstone_rows"] == 0
        data = json.loads((directory / "snapshot.json").read_text())
        entry = {t["schema"]["name"]: t for t in data["tables"]}["items"]
        assert entry["rows"] == N_ROWS  # +1 insert, -1 delete
        assert db.table("items").find_one(name="late") is not None
        db.close()


class TestMvcc:
    def test_pinned_snapshot_survives_tier_swap(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        with db.pinned():
            before = db.table("items").get(5)["score"]
            db_version = db.version
            # A concurrent writer mutates and compacts: the rows file is
            # replaced and the *old* one unlinked.  The pin must keep
            # reading the superseded tier (open fh semantics).
            db.update("items", 5, score=88)
            db.checkpoint()
            assert db.table("items").get(5)["score"] == before
            assert db.version == db_version
        db.close()

    def test_overlay_reads_shadow_the_block_tier(self, tmp_path, blocked_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        db.update("items", 7, score=77)
        assert db.table("items").get(7)["score"] == 77
        db.delete("items", 8)
        assert 8 not in db.table("items")
        assert db.table("items").find_one(name="item-0007") is None
        db.close()


PIPELINES = (  # (builder, produces an ordered result)
    (lambda db: query(db, "items").filter(group="x"), False),
    (lambda db: query(db, "items").filter(group="y", score=3), False),
    (lambda db: query(db, "items").where_range("score", 2, 5), False),
    (lambda db: query(db, "items").where_prefix("name", "item-00"), False),
    (lambda db: query(db, "items").where_in("group", ["x", "z"])
     .order_by("score").limit(10), True),
    (lambda db: query(db, "items").order_by("name", descending=True)
     .offset(3).limit(5), True),
)


class TestPlannerEquivalence:
    """``planned ≡ naive`` on cold, partially-paged and resident tables."""

    @pytest.mark.parametrize("warmup", ["cold", "partial", "resident"])
    @pytest.mark.parametrize("pipeline", range(len(PIPELINES)))
    def test_planned_equals_naive(
        self, tmp_path, blocked_env, warmup, pipeline
    ):
        directory = _build(tmp_path)
        db = Database.open(directory)
        if warmup == "partial":
            db.table("items").get(42)  # one block resident
        elif warmup == "resident":
            list(db.table("items"))  # everything paged in
        build, ordered = PIPELINES[pipeline]
        q = build(db)
        planned, naive = q.all(), q._run_naive()
        if ordered:
            assert planned == naive
        else:
            def key(row):
                return row["id"]
            assert sorted(planned, key=key) == sorted(naive, key=key)
        db.close()


class TestPagedRowsUnit:
    def test_foreign_type_probe_is_absent_not_an_error(
        self, tmp_path, blocked_env
    ):
        directory = _build(tmp_path)
        db = Database.open(directory)
        rows = db.snapshot().table("items")._base
        assert isinstance(rows, PagedRows)
        assert "not-an-int" not in rows
        db.close()

    def test_cache_eviction_keeps_at_least_one_block(self):
        cache = BlockCache(budget_bytes=10)
        cache.put(("g", "t", 0), {"a": 1}, cost=50)
        assert cache.stats()["resident_blocks"] == 1
        cache.put(("g", "t", 1), {"b": 2}, cost=60)
        stats = cache.stats()
        assert stats["resident_blocks"] == 1
        assert stats["evictions"] == 1
        assert stats["resident_bytes"] == 60


# -- lazy blocks: one row per line, per-row decode --------------------------


LAZY_BLOCK_ROWS = 64


@pytest.fixture()
def lazy_env(monkeypatch):
    """Format 2 with 64-row blocks: a block decodes up to 4 rows one at
    a time (``1/PROMOTE_FRACTION``) before it decodes whole."""
    monkeypatch.setenv(ENV_INLINE_ROWS, "1")
    monkeypatch.setenv(ENV_BLOCK_ROWS, str(LAZY_BLOCK_ROWS))


def _cached_blocks(db):
    return [block for block, _ in db._block_cache._blocks.values()]


def _rewrite_single_line(directory):
    """Re-encode every block of the store on one line, the layout of
    rows files written before blocks put one row per line."""
    manifest_path = directory / "snapshot.json"
    manifest = json.loads(manifest_path.read_text())
    rows_path = directory / manifest["rows_file"]
    old = rows_path.read_bytes()
    out = bytearray()
    for entry in manifest["tables"]:
        for meta in entry["blocks"]:
            rows = json.loads(old[meta["o"]:meta["o"] + meta["l"]])
            payload = json.dumps(rows, separators=(",", ":")).encode()
            assert b"\n" not in payload
            meta.update(o=len(out), l=len(payload), c=zlib.crc32(payload))
            out += payload
    rows_path.write_bytes(bytes(out))
    manifest_path.write_text(json.dumps(manifest, separators=(",", ":")))


class TestLazyBlocks:
    def test_blocks_hold_one_row_per_line(self, tmp_path, lazy_env):
        directory = _build(tmp_path)
        data = json.loads((directory / "snapshot.json").read_text())
        blob = _rows_file(directory).read_bytes()
        entry = {t["schema"]["name"]: t for t in data["tables"]}["items"]
        for meta in entry["blocks"]:
            payload = blob[meta["o"]:meta["o"] + meta["l"]]
            assert payload.count(b"\n") == meta["n"] - 1
            assert len(json.loads(payload)) == meta["n"]

    def test_cold_point_read_decodes_one_row(self, tmp_path, lazy_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        items = db.table("items")
        assert items.get(42)["name"] == "item-0041"
        stats = db.storage_stats()
        assert stats["block_cache_misses"] == 1
        assert stats["block_cache_rows_decoded"] == 1
        assert items.get(42)["name"] == "item-0041"  # memoized
        assert db.storage_stats()["block_cache_rows_decoded"] == 1
        # Four single-row decodes (64 / PROMOTE_FRACTION), then the next
        # new row decodes the block whole.
        for pk in (43, 44, 45):
            items.get(pk)
        assert db.storage_stats()["block_cache_rows_decoded"] == 4
        assert items.get(46)["name"] == "item-0045"
        assert db.storage_stats()["block_cache_rows_decoded"] == (
            4 + LAZY_BLOCK_ROWS)
        assert isinstance(_cached_blocks(db)[0].state, dict)
        # Reads of a whole-decoded block decode nothing more.
        assert [r["id"] for r in items][:LAZY_BLOCK_ROWS] == list(
            range(1, LAZY_BLOCK_ROWS + 1))
        db.close()

    def test_scan_decodes_blocks_whole(self, tmp_path, lazy_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        assert len(list(db.table("items"))) == N_ROWS
        assert db.storage_stats()["block_cache_rows_decoded"] == N_ROWS
        db.close()

    def test_separator_look_alikes_round_trip(self, tmp_path, lazy_env):
        tricky = ["line\nbreak", '",\n"', '"},{"', "},{", ",\n", "\r\n\t",
                  "café ☃", "\\", '"', "]", "[", ""]
        db = Database.open(tmp_path / "store")
        db.create_table(_schema())
        for i in range(N_ROWS):
            db.insert("items", name=f"{tricky[i % len(tricky)]}#{i}",
                      group=tricky[(i + 1) % len(tricky)], score=i)
        expected = {row["id"]: row for row in db.table("items")}
        db.checkpoint()
        db.close()
        db = Database.open(tmp_path / "store")
        items = db.table("items")
        for pk in sorted(expected, reverse=True):  # cold probes first
            assert items.get(pk) == expected[pk]
        assert {row["id"]: row for row in items} == expected
        db.close()
        db = Database.open(tmp_path / "store")
        assert {row["id"]: row for row in db.table("items")} == expected
        db.close()

    def test_look_alike_rows_probe_one_text_each(self, tmp_path, lazy_env):
        # Every row, the last of each block included, decodes alone from
        # its line; rows that escape "\n", '",\n"' and '"},{"' too.
        tricky = ["line\nbreak", '",\n"', '"},{"', "\n", ",\n", "},{"]
        db = Database.open(tmp_path / "store")
        db.create_table(_schema())
        for i in range(N_ROWS):
            db.insert("items", name=f"{tricky[i % len(tricky)]}#{i}",
                      group=tricky[(i + 1) % len(tricky)], score=i)
        expected = {row["id"]: row for row in db.table("items")}
        db.checkpoint()
        db.close()
        for pk in expected:
            db = Database.open(tmp_path / "store")
            assert db.table("items").get(pk) == expected[pk]
            assert db.storage_stats()["block_cache_rows_decoded"] == 1
            (block,) = _cached_blocks(db)
            texts, memo = block.state
            n = LAZY_BLOCK_ROWS if pk <= LAZY_BLOCK_ROWS else (
                N_ROWS - LAZY_BLOCK_ROWS)
            assert len(texts) == n and list(memo) == [
                (pk - 1) % LAZY_BLOCK_ROWS]
            assert all(text.endswith(",") for text in texts[:-1])
            assert not texts[-1].endswith(",")
            db.close()
        # Probes past 1/PROMOTE_FRACTION promote: the texts rejoin whole.
        db = Database.open(tmp_path / "store")
        items = db.table("items")
        for pk in (LAZY_BLOCK_ROWS, 1, 2, 3, 4):
            assert items.get(pk) == expected[pk]
        (block,) = _cached_blocks(db)
        assert isinstance(block.state, dict)
        assert block.state == {pk: expected[pk]
                               for pk in range(1, LAZY_BLOCK_ROWS + 1)}
        db.close()

    def test_sparse_pk_blocks_bisect(self, tmp_path, lazy_env):
        directory = _build(tmp_path)
        db = Database.open(directory)
        for pk in range(1, N_ROWS + 1, 3):
            db.delete("items", pk)
        db.checkpoint()
        db.close()
        db = Database.open(directory)
        items = db.table("items")
        assert items.get(41)["name"] == "item-0040"
        (block,) = _cached_blocks(db)
        assert block.lo is None  # not dense: the probe bisected
        decoded = db.storage_stats()["block_cache_rows_decoded"]
        assert 1 < decoded < LAZY_BLOCK_ROWS
        db.close()
        db = Database.open(directory)
        items = db.table("items")
        for pk in range(N_ROWS + 2):
            row = items.get_or_none(pk)
            if 1 <= pk <= N_ROWS and pk % 3 != 1:
                assert row["name"] == f"item-{pk - 1:04d}"
            else:
                assert row is None
        db.close()

    def test_str_pk_table_bisects(self, tmp_path, lazy_env):
        schema = TableSchema(
            "words",
            columns=(Column("word", str), Column("n", int)),
            primary_key="word", auto_increment=False,
        )
        words = [f"w{i:05d}" for i in range(0, 2 * N_ROWS, 2)]
        db = Database.open(tmp_path / "store")
        db.create_table(schema)
        for i, word in enumerate(words):
            db.insert("words", word=word, n=i)
        db.checkpoint()
        db.close()
        db = Database.open(tmp_path / "store")
        table = db.table("words")
        assert table.get("w00084")["n"] == 42
        (block,) = _cached_blocks(db)
        assert block.lo is None
        assert 1 < db.storage_stats()["block_cache_rows_decoded"] < (
            LAZY_BLOCK_ROWS)
        db.close()
        db = Database.open(tmp_path / "store")
        table = db.table("words")
        for i, word in enumerate(words):
            assert table.get(word)["n"] == i
            assert table.get_or_none(word + "x") is None
        assert table.get_or_none("a") is None
        assert table.get_or_none("z") is None
        assert [row["word"] for row in table] == words
        db.close()

    def test_single_line_rows_file_reads_identically(
        self, tmp_path, lazy_env
    ):
        directory = _build(tmp_path)
        db = Database.open(directory)
        expected = list(db.table("items"))
        db.close()
        _rewrite_single_line(directory)
        db = Database.open(directory)
        items = db.table("items")
        assert items.get(42) == expected[41]
        # A one-line block cannot be split by row: it decodes whole.
        assert db.storage_stats()["block_cache_rows_decoded"] == (
            LAZY_BLOCK_ROWS)
        for row in expected:
            assert items.get(row["id"]) == row
        assert list(items) == expected
        assert items.find(group="x") == [r for r in expected
                                         if r["group"] == "x"]
        db.close()

    def test_concurrent_probes_and_scans_of_one_cold_block(
        self, tmp_path, lazy_env, monkeypatch
    ):
        monkeypatch.setenv(ENV_BLOCK_ROWS, "512")
        n = 512
        directory = _build(tmp_path, n=n)
        db = Database.open(directory)
        rows = db.snapshot().table("items")._base
        assert isinstance(rows, PagedRows) and len(rows.blocks) == 1
        cache, store = db._block_cache, db._pager
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(100):
                cache.drop_generation(store.generation)  # cold again
                barrier = threading.Barrier(4)

                def prober(seed):
                    barrier.wait()
                    for k in range(200):
                        pk = (seed * 131 + k * 37) % n + 1
                        row = rows.get(pk)
                        if row is None or row["id"] != pk:
                            failures.append(("probe", round_, pk, row))

                def scanner():
                    barrier.wait()
                    pks = [pk for pk, _ in rows.items()]
                    if pks != list(range(1, n + 1)):
                        failures.append(("scan", round_, len(pks)))

                threads = [
                    threading.Thread(target=prober, args=(1,)),
                    threading.Thread(target=prober, args=(2 + round_,)),
                    threading.Thread(target=scanner),
                    threading.Thread(target=scanner),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:5]
        db.close()

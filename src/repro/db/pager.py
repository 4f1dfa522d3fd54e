"""Tiered storage: blocked checkpoints and lazy row page-in.

The eager storage model (format-1 ``snapshot.json``) materializes every
row of every table at :meth:`repro.db.engine.Database.open` — fine for
the hand-curated seed, hopeless at the 10^6-material scale the ROADMAP
demands.  This module is the cold tier that fixes it:

* A **blocked checkpoint** (format 2) splits the durable state into a
  small JSON *manifest* (``snapshot.json``: schemas, version counters,
  index declarations, and a per-table *block directory*) plus a sibling
  *rows file* (``rows-<version>.dat``) holding the actual rows as
  independently-readable, CRC-checked JSON blocks sorted by primary
  key.  The manifest is a few kilobytes no matter how large the corpus
  is, so ``Database.open`` returns in O(tables), not O(rows).

* A :class:`PagedRows` mapping stands in for a table snapshot's
  in-memory row dict.  Point reads bisect the block directory, page in exactly one
  block and decode only the probed row (a block is written one row per
  line, so its rows split apart without a parse); scans decode whole
  blocks.  Blocks stream through a shared :class:`BlockCache` whose
  resident bytes are bounded by a ``CARCS_CACHE_BYTES`` budget (LRU
  eviction, hit/miss/eviction/rows-decoded counters).  Snapshot
  consolidation folds rows into a small *overlay* (plus a tombstone set
  for deletes) of a fresh copy — the block tier is immutable between
  checkpoints, which is what makes lock-free readers safe.

* Checkpointing a paged database **streams**: rows flow block-by-block
  from the old tier (merged with the overlay in pk order) into the new
  rows file, so compaction never materializes the table either.  After
  the manifest is atomically replaced the table snapshots re-point at
  the fresh tier and drop their overlays.

Crash safety mirrors the WAL's by-construction story: the rows file is
written to a temp name, fsynced and renamed *before* the manifest that
references it is atomically replaced, and stale rows files are only
unlinked after the new manifest is durable.  A crash at any point
leaves a manifest whose rows file exists and verifies.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from bisect import bisect_right
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .errors import RecoveryError
from .table import TOMBSTONE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database

#: Block-cache budget in bytes (cost model: the *encoded* size of each
#: resident block, whether it holds row texts or decoded rows).
ENV_CACHE_BYTES = "CARCS_CACHE_BYTES"
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

#: Rows per block in a freshly written blocked checkpoint.
ENV_BLOCK_ROWS = "CARCS_BLOCK_ROWS"
DEFAULT_BLOCK_ROWS = 2048

#: Databases with at most this many total rows keep checkpointing in
#: the eager inline format (format 1) — the tiered machinery only pays
#: for itself on large corpora, and small databases staying format-1
#: keeps every existing durability test byte-for-byte meaningful.
ENV_INLINE_ROWS = "CARCS_SNAPSHOT_INLINE_ROWS"
DEFAULT_INLINE_ROWS = 10_000

#: Prefix of rows files inside a database directory.
ROWS_PREFIX = "rows-"

#: A cached block decodes whole once ``1/PROMOTE_FRACTION`` of its rows
#: (at least one) have been decoded one at a time: a hot block would
#: otherwise keep paying one ``json.loads`` per probed row.
PROMOTE_FRACTION = 16

#: Row separator inside a block.  Compact JSON escapes every control
#: character inside strings, so a block splits on ``"\n"`` into exactly
#: one text per row (each but the last ends in the separator's comma).
ROW_SEPARATOR = ",\n"

#: The one compact encoder every written row goes through.
_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"))
_ROW_DECODE = json.JSONDecoder().raw_decode  # leaves a trailing comma


def env_cache_bytes() -> int:
    try:
        budget = int(os.environ.get(ENV_CACHE_BYTES, DEFAULT_CACHE_BYTES))
    except ValueError:
        return DEFAULT_CACHE_BYTES
    return budget if budget > 0 else DEFAULT_CACHE_BYTES


def env_block_rows() -> int:
    try:
        rows = int(os.environ.get(ENV_BLOCK_ROWS, DEFAULT_BLOCK_ROWS))
    except ValueError:
        return DEFAULT_BLOCK_ROWS
    return rows if rows > 0 else DEFAULT_BLOCK_ROWS


def env_inline_rows() -> int:
    try:
        return int(os.environ.get(ENV_INLINE_ROWS, DEFAULT_INLINE_ROWS))
    except ValueError:
        return DEFAULT_INLINE_ROWS


class BlockCache:
    """Byte-budgeted LRU over cached row blocks, shared database-wide.

    Keys are ``(tier generation, table, block index)`` so re-pointing a
    table at a freshly checkpointed tier can never alias a stale block.
    Each block is charged its encoded size, whether it holds row texts
    or decoded rows.  All accounting is under one lock; the critical
    sections are tiny (dict moves), so lock-free readers paging
    concurrently contend only for nanoseconds, not for I/O.
    """

    def __init__(self, budget_bytes: int | None = None) -> None:
        self.budget = budget_bytes if budget_bytes else env_cache_bytes()
        self._lock = threading.Lock()
        self._blocks: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        self.resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.loaded_bytes = 0
        self.rows_decoded = 0

    def get(self, key: tuple) -> Any:
        with self._lock:
            entry = self._blocks.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._blocks.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: tuple, block: Any, cost: int) -> None:
        with self._lock:
            old = self._blocks.pop(key, None)
            if old is not None:
                self.resident_bytes -= old[1]
            self._blocks[key] = (block, cost)
            self.resident_bytes += cost
            self.loaded_bytes += cost
            while self.resident_bytes > self.budget and len(self._blocks) > 1:
                _, (_, evicted_cost) = self._blocks.popitem(last=False)
                self.resident_bytes -= evicted_cost
                self.evictions += 1

    def count_decoded(self, rows: int) -> None:
        with self._lock:
            self.rows_decoded += rows

    def drop_generation(self, generation: int) -> None:
        """Free every block of a superseded tier immediately."""
        with self._lock:
            stale = [k for k in self._blocks if k[0] == generation]
            for key in stale:
                _, cost = self._blocks.pop(key)
                self.resident_bytes -= cost

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "budget_bytes": self.budget,
                "resident_bytes": self.resident_bytes,
                "resident_blocks": len(self._blocks),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "loaded_bytes": self.loaded_bytes,
                "rows_decoded": self.rows_decoded,
            }


class _Block:
    """One cached block of the tier.

    ``state`` is the whole ``pk -> row`` dict once the block is decoded
    whole, and until then a ``(texts, memo)`` pair: one compact JSON
    text per row in pk order, and the rows decoded so far by position.
    Readers share a block without a lock, so ``state`` is replaced in
    one store and never emptied: a reader that loaded the pair keeps
    probing it while another promotes the block.
    """

    __slots__ = ("state", "lo", "left")

    def __init__(self, state: Any, meta: dict[str, Any]) -> None:
        self.state = state
        lo, n = meta["lo"], meta["n"]
        # Dense int pks put row pk at position pk - lo; otherwise bisect.
        dense = type(lo) is int and meta["hi"] - lo + 1 == n
        self.lo = lo if dense else None
        #: Single-row decodes left before the block decodes whole.
        self.left = max(1, n // PROMOTE_FRACTION)


class BlockStore:
    """One open rows file: reads, CRC-checks, caches and decodes blocks.

    Unlinking the file while the store is open is safe on POSIX (the
    open descriptor keeps the data readable), which is what lets a
    checkpoint retire the old tier while pinned snapshots still read
    from it.
    """

    _generations = 0
    _gen_lock = threading.Lock()

    def __init__(self, path: str | Path, cache: BlockCache) -> None:
        self.path = Path(path)
        self.cache = cache
        self._fh = self.path.open("rb")
        self._lock = threading.Lock()
        with BlockStore._gen_lock:
            BlockStore._generations += 1
            self.generation = BlockStore._generations

    def read_block(self, table: str, index: int, meta: dict[str, Any],
                   pk_col: str, pk: Any = None) -> Any:
        """One block's rows, paged in through the cache.

        Without ``pk``: the decoded ``pk -> row`` mapping of the whole
        block.  With ``pk``: that one row, or ``None`` if the block
        lacks it; a block not yet decoded whole decodes just the rows
        the probe needs.  Every decode of the tier happens under this
        call.  A past-deadline request aborts here instead of paying
        for cold I/O it can no longer use (see :mod:`repro.obs.trace`).
        """
        key = (self.generation, table, index)
        block = self.cache.get(key)
        if block is None:
            block = self._page_in(table, index, meta, pk_col, pk is None)
            self.cache.put(key, block, meta["l"])
        state = block.state
        if type(state) is dict:
            return state if pk is None else state.get(pk)
        if pk is None or block.left <= 0:
            whole = self._decode_whole(block, state[0], pk_col)
            return whole if pk is None else whole.get(pk)
        return self._probe(block, state, pk, pk_col)

    def _page_in(self, table: str, index: int, meta: dict[str, Any],
                 pk_col: str, whole: bool) -> _Block:
        from repro.obs import trace as _trace

        _trace.check_deadline(f"page-in {table}[{index}]")
        with self._lock:
            self._fh.seek(meta["o"])
            payload = self._fh.read(meta["l"])
        if len(payload) != meta["l"] or zlib.crc32(payload) != meta["c"]:
            raise RecoveryError(
                f"rows file {self.path.name}: block {index} of table "
                f"{table!r} is corrupt (crc mismatch)"
            )
        text = payload.decode("utf-8")
        if not whole:
            texts = text[1:-1].split("\n")
            # A block written on one line (an older writer) splits into
            # fewer texts than rows; it decodes whole.
            if len(texts) == meta["n"]:
                return _Block((texts, {}), meta)
        rows = json.loads(text)
        self.cache.count_decoded(len(rows))
        return _Block({row[pk_col]: row for row in rows}, meta)

    def _decode_whole(self, block: _Block, texts: list[str],
                      pk_col: str) -> dict[Any, dict]:
        rows = json.loads("[" + "\n".join(texts) + "]")
        self.cache.count_decoded(len(rows))
        whole = {row[pk_col]: row for row in rows}
        block.state = whole
        return whole

    def _probe(self, block: _Block, state: tuple, pk: Any,
               pk_col: str) -> dict | None:
        texts, memo = state

        def decode(i: int) -> dict:
            row = memo.get(i)
            if row is None:
                row = memo[i] = _ROW_DECODE(texts[i])[0]
                block.left -= 1
                self.cache.count_decoded(1)
            return row

        if block.lo is not None and type(pk) is int:
            return decode(pk - block.lo)
        # Rows are pk-sorted within a block.
        lo, hi = 0, len(texts)
        while lo < hi:
            mid = (lo + hi) // 2
            if decode(mid)[pk_col] < pk:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(texts):
            row = decode(lo)
            if row[pk_col] == pk:
                return row
        return None

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


class PagedRows:
    """A dict-shaped row mapping over an immutable block tier + overlay.

    Duck-types the parts of the ``dict`` protocol a
    :class:`repro.db.snapshot.TableSnapshot` base needs (``get``, ``in``,
    ``len``, ``items`` in pk order).  Mutations never touch the tier:
    :meth:`with_delta` puts inserts/updates in the copy's ``_overlay``
    and deletes in its ``_tombstones``; iteration merges the two.
    """

    __slots__ = ("name", "pk_col", "blocks", "store", "_lows",
                 "_overlay", "_tombstones", "_new", "_count")

    def __init__(self, name: str, pk_col: str,
                 blocks: list[dict[str, Any]], store: BlockStore,
                 overlay: dict | None = None,
                 tombstones: set | None = None,
                 new: set | None = None,
                 count: int | None = None) -> None:
        self.name = name
        self.pk_col = pk_col
        self.blocks = blocks
        self.store = store
        self._lows = [b["lo"] for b in blocks]
        self._overlay = overlay if overlay is not None else {}
        self._tombstones = tombstones if tombstones is not None else set()
        # Overlay pks known absent from the block tier (lets iteration
        # append genuinely new rows without probing blocks per key).
        self._new = new if new is not None else set()
        if count is None:
            count = sum(b["n"] for b in blocks)
        self._count = count

    # -- block tier --------------------------------------------------------

    def _block(self, index: int) -> dict[Any, dict]:
        return self.store.read_block(
            self.name, index, self.blocks[index], self.pk_col
        )

    def _base_get(self, pk: Any) -> dict | None:
        if not self.blocks:
            return None
        try:
            index = bisect_right(self._lows, pk) - 1
        except TypeError:
            # A pk of a foreign type (str probe against an int-keyed
            # tier) can never be present.
            return None
        if index < 0:
            return None
        meta = self.blocks[index]
        if pk > meta["hi"]:
            return None
        return self.store.read_block(self.name, index, meta, self.pk_col, pk)

    # -- mapping protocol --------------------------------------------------

    def get(self, pk: Any, default: Any = None) -> Any:
        row = self._overlay.get(pk)
        if row is None and pk not in self._tombstones:
            row = self._base_get(pk)
        return default if row is None else row

    def __contains__(self, pk: Any) -> bool:
        return self.get(pk) is not None

    def __len__(self) -> int:
        return self._count

    def __setitem__(self, pk: Any, row: dict) -> None:
        if pk in self._overlay:
            self._overlay[pk] = row
            return
        if pk in self._tombstones:
            # Re-insert over a deleted tier row.
            self._tombstones.discard(pk)
            self._overlay[pk] = row
            self._count += 1
            return
        in_base = self._base_get(pk) is not None
        self._overlay[pk] = row
        if not in_base:
            self._new.add(pk)
            self._count += 1

    def _drop(self, pk: Any) -> None:
        if pk in self._overlay:
            del self._overlay[pk]
            if pk in self._new:
                self._new.discard(pk)
            else:
                self._tombstones.add(pk)
            self._count -= 1
        elif pk not in self._tombstones and self._base_get(pk) is not None:
            self._tombstones.add(pk)
            self._count -= 1

    def items(self) -> Iterator[tuple[Any, dict]]:
        """Merged (pk, row) stream in ascending pk order.  Blocks are
        pk-sorted and disjoint by construction; the overlay's
        genuinely-new pks are merged in, and updated pks replace their
        tier row in place."""
        overlay, tombstones = self._overlay, self._tombstones
        pending = iter(sorted(self._new))
        nxt = next(pending, _DONE)
        for index in range(len(self.blocks)):
            for pk, row in self._block(index).items():
                while nxt is not _DONE and nxt < pk:
                    yield nxt, overlay[nxt]
                    nxt = next(pending, _DONE)
                if pk in tombstones:
                    continue
                ov = overlay.get(pk)
                yield pk, (ov if ov is not None else row)
        while nxt is not _DONE:
            yield nxt, overlay[nxt]
            nxt = next(pending, _DONE)

    # -- snapshot support --------------------------------------------------

    def with_delta(self, delta: dict[Any, Any], tombstone: Any) -> "PagedRows":
        """A new frozen view with one MVCC delta folded in (snapshot
        consolidation: an O(overlay) copy that never materializes the
        tier)."""
        merged = PagedRows(
            self.name, self.pk_col, self.blocks, self.store,
            dict(self._overlay), set(self._tombstones), set(self._new),
            self._count,
        )
        for pk, row in delta.items():
            if row is tombstone:
                merged._drop(pk)
            else:
                merged[pk] = row
        return merged


_DONE = object()


# -- blocked checkpoint writer ----------------------------------------------


class BlockFileWriter:
    """Streams tables into a rows file + manifest (the format-2 writer).

    Shared by :meth:`Database.checkpoint` (compacting a live engine) and
    the scale-corpus synthesizer in :mod:`repro.corpus.generator`
    (writing 10^6 materials straight to the cold tier without ever
    holding them in memory).
    """

    def __init__(self, directory: str | Path, *, version: int,
                 name: str = "carcs", block_rows: int | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.version = version
        self.name = name
        self.block_rows = block_rows if block_rows else env_block_rows()
        self.rows_name = f"{ROWS_PREFIX}{version}.dat"
        self._tmp = self.directory / (self.rows_name + ".tmp")
        self._fh = self._tmp.open("wb")
        self._offset = 0
        self._tables: list[dict[str, Any]] = []

    def add_table(
        self,
        schema_dict: dict[str, Any],
        sorted_items: Iterable[tuple[Any, dict]],
        *,
        next_id: int | None = None,
        version: int | None = None,
        indexes: Iterable[str] = (),
        sorted_indexes: Iterable[str] = (),
    ) -> int:
        """Write one table's rows (ascending pk) as blocks; returns the
        number of rows written.

        ``next_id``/``version`` default from the streamed row count
        (``total + 1`` / ``total``) — the right values for a synthesized
        table whose size is only known once its generator is drained.
        """
        blocks: list[dict[str, Any]] = []
        chunk: list[dict] = []
        lo = hi = None
        total = 0

        def flush() -> None:
            nonlocal chunk, lo, hi
            if not chunk:
                return
            payload = ("[" + ROW_SEPARATOR.join(
                map(_ROW_ENCODER.encode, chunk)) + "]").encode("utf-8")
            self._fh.write(payload)
            blocks.append({
                "o": self._offset, "l": len(payload),
                "c": zlib.crc32(payload), "n": len(chunk),
                "lo": lo, "hi": hi,
            })
            self._offset += len(payload)
            chunk = []
            lo = hi = None

        for pk, row in sorted_items:
            if lo is None:
                lo = pk
            hi = pk
            chunk.append(row)
            total += 1
            if len(chunk) >= self.block_rows:
                flush()
        flush()
        self._tables.append({
            "schema": schema_dict,
            "next_id": total + 1 if next_id is None else next_id,
            "version": total if version is None else version,
            "indexes": sorted(indexes),
            "sorted_indexes": sorted(sorted_indexes),
            "rows": total,
            "blocks": blocks,
        })
        return total

    def finish(self) -> dict[str, Any]:
        """Fsync + rename the rows file, atomically replace the manifest,
        then unlink superseded rows files.  Returns the manifest dict."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        rows_path = self.directory / self.rows_name
        os.replace(self._tmp, rows_path)
        manifest = {
            "format": 2,
            "name": self.name,
            "version": self.version,
            "rows_file": self.rows_name,
            "tables": self._tables,
        }
        target = self.directory / "snapshot.json"
        tmp = self.directory / "snapshot.json.tmp"
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(manifest, fh, separators=(",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        for stale in self.directory.glob(f"{ROWS_PREFIX}*.dat"):
            if stale.name != self.rows_name:
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - platform quirk
                    pass
        return manifest

    def abort(self) -> None:
        """Discard the partially written rows file (error paths)."""
        try:
            self._fh.close()
        finally:
            if self._tmp.exists():
                self._tmp.unlink()


def write_blocked_checkpoint(db: "Database", directory: str | Path,
                             *, block_rows: int | None = None) -> Path:
    """Stream the whole engine state into a format-2 checkpoint.

    Must run under the database's write lock (the engine's
    ``checkpoint`` holds it).  Tables serialize in creation order (the
    FK-dependency order recovery replays in); each table's rows stream
    from its snapshot in pk order.
    """
    from .snapshot import schema_to_dict

    writer = BlockFileWriter(
        directory, version=db._version, name=db.name, block_rows=block_rows,
    )
    try:
        for table in db._tables.values():
            writer.add_table(
                schema_to_dict(table.schema), table._items(),
                next_id=table.next_id, version=table.version,
                indexes=table.index_columns(),
                sorted_indexes=table.sorted_index_columns(),
            )
        manifest = writer.finish()
    except BaseException:
        writer.abort()
        raise
    _repoint_tables(db, manifest, Path(directory))
    return Path(directory) / "snapshot.json"


def _repoint_tables(db: "Database", manifest: dict[str, Any],
                    directory: Path) -> None:
    """Re-base every table snapshot on the tier just written.

    Overlays and deltas fold into the new blocks, so the in-memory
    footprint of a long-running writer resets at each checkpoint; built
    indexes carry over, as the rows are the same.  Snapshots pinned by
    concurrent readers keep the old store alive (and readable, even
    unlinked) until they are garbage collected.
    """
    cache = db._block_cache
    if cache is None:
        cache = db._block_cache = BlockCache()
    old_store = db._pager
    store = BlockStore(directory / manifest["rows_file"], cache)
    blocks = {entry["schema"]["name"]: entry["blocks"]
              for entry in manifest["tables"]}
    db._tables = {
        name: table.rebase(PagedRows(
            name, table.schema.primary_key, blocks[name], store))
        for name, table in db._tables.items()
    }
    db._pager = store
    if old_store is not None:
        cache.drop_generation(old_store.generation)


# -- blocked checkpoint reader ----------------------------------------------


def restore_blocked(data: dict[str, Any], directory: str | Path,
                    **db_kwargs: Any) -> "Database":
    """Rebuild a :class:`Database` whose tables page in lazily.

    The inverse of :func:`write_blocked_checkpoint`: tables come up with
    their block directories only — no rows, no index contents.  Declared
    hash/sorted indexes (and the buckets unique checks probe) build on
    first use (a single streaming scan through the block cache), so a
    database that is opened and queried narrowly never pays for what it
    does not touch.
    """
    from .engine import Database
    from .snapshot import TableSnapshot, schema_from_dict

    if data.get("format") != 2:
        raise ValueError(
            f"unsupported blocked snapshot format {data.get('format')!r}"
        )
    directory = Path(directory)
    rows_path = directory / data["rows_file"]
    if not rows_path.exists():
        raise RecoveryError(
            f"manifest references missing rows file {data['rows_file']!r}"
        )
    db = Database(data.get("name", "carcs"), **db_kwargs)
    cache = BlockCache()
    store = BlockStore(rows_path, cache)
    tables = {}
    for entry in data["tables"]:
        schema = schema_from_dict(entry["schema"])
        tables[schema.name] = TableSnapshot.capture(
            schema,
            PagedRows(schema.name, schema.primary_key, entry["blocks"],
                      store),
            version=entry.get("version", 0),
            next_id=entry.get("next_id", 1),
            indexes=entry.get("indexes", ()),
            sorted_indexes=entry.get("sorted_indexes", ()))
    db._tables = tables
    db._version = data.get("version", 0)
    db.name = data.get("name", db.name)
    db._block_cache = cache
    db._pager = store
    return db


def storage_stats(db: "Database") -> dict[str, int]:
    """Tier + cache counters (empty mapping on a fully eager database)."""
    if db._block_cache is None:
        return {}
    out = {f"block_cache_{k}": v for k, v in db._block_cache.stats().items()}
    overlay = tombstones = blocks = 0
    for table in db._tables.values():
        rows = table._base
        if isinstance(rows, PagedRows):
            # Rows written since the tier: folded into the base's
            # overlay, or still in the snapshot's delta.
            gone = sum(1 for row in table._delta.values() if row is TOMBSTONE)
            overlay += len(rows._overlay) + len(table._delta) - gone
            tombstones += len(rows._tombstones) + gone
            blocks += len(rows.blocks)
    out["tier_blocks"] = blocks
    out["tier_overlay_rows"] = overlay
    out["tier_tombstone_rows"] = tombstones
    return out

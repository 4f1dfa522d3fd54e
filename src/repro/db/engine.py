"""The Database: table registry, FK enforcement, transactions, MVCC, WAL.

This is the drop-in substrate for the paper's PostgreSQL instance.  It is
deliberately small but honest: foreign keys are enforced on insert, update
and delete (with RESTRICT/CASCADE semantics), and transactions provide
all-or-nothing rollback — sufficient for the editorial workflows CAR-CS
describes (editors fixing classifications, rejecting submissions, bulk
seeding).

Rollback is implemented with an **undo journal**: ``_begin`` is O(1), each
mutation appends its inverse operation to the active frame, and rollback
replays the frame in reverse, so transaction cost is proportional to the
work done inside the transaction.

Concurrency follows PostgreSQL's reader/writer split (MVCC):

* **Writers serialize** on ``lock`` (a reentrant
  :class:`~repro.db.locks.WriterLock`).  Every top-level entry point — DML,
  DDL, a whole ``transaction()`` scope — runs as one **write frame**: an
  implicit transaction that either commits atomically or rolls back.
* **Readers take no lock.**  Each committed frame path-copies the touched
  tables into a new immutable :class:`~repro.db.snapshot.Snapshot` and
  publishes it with a single attribute store.  ``pinned()`` pins the
  current snapshot for a scope; every pin-aware accessor (``table``,
  ``version``, ``table_versions``, ``stats``) then serves that one
  consistent version no matter what writers commit concurrently.

Durability is a **write-ahead log** (:mod:`repro.db.wal`): each committed
frame appends one checksummed record of its operations; ``checkpoint()``
compacts the log into a full snapshot file, and :meth:`Database.open`
restores snapshot + WAL tail, recovering cleanly from a torn final
record.

On top of the version counter sits a bounded **change journal**: every
mutation appends one :class:`Change` record, and rollback pops the
records of the aborted frame, so the retained journal always describes
exactly the committed history.  Incremental consumers — the search index
and the classify model's training features, through
:class:`repro.core.view.MaterialView` — call
:meth:`Database.changes_since` to catch up in O(changed rows); when the bounded journal no longer reaches
back far enough it returns ``None`` and the consumer falls back to a
full rebuild.  The bound is :data:`CHANGELOG_SIZE` records
(``changelog_size=`` overrides it per database).
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.obs import trace as _trace

from .errors import (
    ForeignKeyError,
    RecoveryError,
    SchemaError,
    TransactionError,
)
from .locks import WriterLock
from .pager import (
    BlockCache,
    BlockStore,
    PagedRows,
    env_inline_rows,
    restore_blocked,
    storage_stats,
    write_blocked_checkpoint,
)
from .schema import Column, ForeignKey, TableSchema
from .snapshot import (
    _PIN,
    Snapshot,
    TableSnapshot,
    current_pin,
    load_tables,
    restore_database,
    schema_to_dict,
    write_database_json,
)
from .table import Table
from .wal import WalReader, WalWriter, truncate_wal

#: Default bound of the change journal.  Large enough that a read-heavy
#: deployment's occasional writes always catch up incrementally; small
#: enough that bulk seeding cannot hold the whole history in memory.
#: Override per-database with ``changelog_size=``.
CHANGELOG_SIZE = 1024

#: Durable file names inside a database directory.
SNAPSHOT_FILE = "snapshot.json"
WAL_FILE = "wal.log"

#: Auto-checkpoint once the WAL grows past this many bytes (override via
#: ``compact_bytes=`` on :meth:`Database.open`/``attach`` or the
#: environment).  Keeps replay time bounded without manual compaction.
ENV_WAL_COMPACT = "CARCS_WAL_COMPACT_BYTES"
DEFAULT_COMPACT_BYTES = 4 * 1024 * 1024


def env_compact_bytes() -> int:
    try:
        return int(os.environ.get(ENV_WAL_COMPACT, DEFAULT_COMPACT_BYTES))
    except ValueError:
        return DEFAULT_COMPACT_BYTES


@dataclass(frozen=True)
class Change:
    """One committed mutation, as retained by the change journal.

    ``version`` is the database-wide version the mutation produced (the
    journal is contiguous in this field), ``op`` is one of ``insert`` /
    ``update`` / ``delete`` / ``create_table`` / ``drop_table``, and
    ``row`` is a snapshot of the affected row — the *new* row for
    inserts and updates, the *removed* row for deletes, ``None`` for
    DDL.  The snapshot is what lets consumers of link-table deletes
    resolve which parent row was affected after the link is gone.
    """

    version: int
    table: str
    op: str
    pk: Any = None
    row: dict[str, Any] | None = None


class Database:
    """A named collection of tables with cross-table integrity.

    Concurrency: writers (DML, DDL, whole ``transaction()`` scopes) hold
    ``lock``; readers pin a published snapshot via :meth:`pinned` and
    take **no lock at all**.
    """

    def __init__(self, name: str = "carcs", *,
                 changelog_size: int | None = None) -> None:
        self.name = name
        self.lock = WriterLock()
        self._tables: dict[str, Table] = {}
        self._tx_depth = 0
        # Stack of transaction frames; each frame is a list of undo
        # closures appended by Table mutations and DDL, replayed in
        # reverse on rollback.
        self._tx_journal: list[list[Callable[[], None]]] = []
        # Database-wide mutation counter: bumped once per committed
        # insert/update/delete on any table (and on DDL), rolled back with
        # aborted transactions.  The cheap freshness token for caches.
        self._version = 0
        # Bounded journal of Change records, newest on the right; evicts
        # oldest-first, so the retained suffix is always contiguous in
        # `version`.  Mutations inside an aborted transaction pop their
        # own records, keeping the journal committed-history-only.
        # Guarded by its own mutex: lock-free readers must never
        # iterate the deque while a writer appends.
        self._changes: deque[Change] = deque(
            maxlen=changelog_size if changelog_size is not None
            else CHANGELOG_SIZE
        )
        self._changes_lock = Lock()
        self._changes_truncated = 0
        # Write-frame state (only touched under the write lock): the
        # operation list of the frame being committed, appended as one
        # WAL record and folded into the next published snapshot.
        self._frame_active = False
        self._frame_ops: list[dict[str, Any]] = []
        # MVCC read side: the currently published snapshot.  Replaced
        # wholesale on every commit (single attribute store = atomic
        # publish); readers pin it via pinned().
        self._snapshot = Snapshot(self, 0, {})
        # Durability (attached by Database.open()/attach()).
        self._dir: Path | None = None
        self._wal: WalWriter | None = None
        self._compact_bytes = env_compact_bytes()
        self._checkpoints = 0
        self._replaying = False
        self._recovery: dict[str, Any] | None = None
        # Commit listeners (replication shippers): called after every
        # published frame with its durable form ({"v": ..., "ops": [...]}),
        # under the write lock, in registration order.
        self._commit_listeners: list[Callable[[dict[str, Any]], None]] = []
        self._listener_errors = 0
        # Tiered storage (populated by a blocked restore or the first
        # blocked checkpoint): the open rows-file store and the shared
        # byte-budgeted block cache.
        self._pager: BlockStore | None = None
        self._block_cache: BlockCache | None = None

    # -- observability --------------------------------------------------------

    @contextmanager
    def _traced_op(self, op: str, table: str) -> Iterator[Any]:
        """The ``db.<op>`` span around one database entry point (a no-op
        with no active trace).  Write ops open it *before* taking the
        write lock, so lock wait is attributed to the op that suffered
        it.  Slow ops are kept by the tracer's slow-trace retention
        (``CARCS_TRACE_SLOW_MS``).
        """
        # A request past its deadline aborts before doing db work (and
        # before queuing on the write lock) — the admission layer maps
        # the exception to a shed response.
        _trace.check_deadline(f"db.{op}")
        with _trace.span(f"db.{op}", table=table) as span_:
            yield span_

    # -- MVCC snapshots -------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The currently published snapshot (atomic read, no lock)."""
        return self._snapshot

    def _pin(self) -> Snapshot | None:
        """The snapshot this context reads from, or ``None`` for live.

        Threads holding the write lock always read live state (a writer
        must see its own uncommitted work), so a pin set further up the
        stack is ignored for the duration of the write."""
        pin = current_pin()
        if pin is not None and pin.db is self and not self.lock.write_held:
            return pin
        return None

    @contextmanager
    def pinned(self) -> Iterator[Snapshot | None]:
        """Pin the current snapshot for the scope — the lock-free read
        path.  Everything inside the scope (``table()``, ``version``,
        analytics built on them) observes one consistent committed
        version, regardless of concurrent commits.  Nested pins reuse
        the outer pin; under the write lock the pin is a no-op (yields
        ``None``) so writers and transactions read their own state.
        """
        if self.lock.write_held:
            yield None
            return
        pin = current_pin()
        if pin is not None and pin.db is self:
            yield pin
            return
        snap = self._snapshot
        token = _PIN.set(snap)
        try:
            yield snap
        finally:
            _PIN.reset(token)

    def _publish(self, ops: list[dict[str, Any]]) -> None:
        """Build and publish the next snapshot from one committed frame.

        Path-copying: untouched tables share their TableSnapshot with
        the previous version; touched tables advance by (bounded) delta
        and inherit the hash indexes readers already built, patched by
        the frame's ops; DDL-touched tables are recaptured wholesale."""
        prev = self._snapshot
        touched: dict[str, list[dict[str, Any]]] = {}
        ddl: set[str] = set()
        for op in ops:
            name = op["t"]
            if op["o"] in ("create_table", "drop_table"):
                ddl.add(name)
            touched.setdefault(name, []).append(op)
        tables = dict(prev.tables)
        for name, table_ops in touched.items():
            live = self._tables.get(name)
            if live is None:
                tables.pop(name, None)
                continue
            previous = tables.get(name)
            if previous is None or name in ddl:
                tables[name] = TableSnapshot.capture(live)
            else:
                tables[name] = previous.advance(live, table_ops)
        self._snapshot = Snapshot(self, self._version, tables)

    def _publish_full(self) -> None:
        """Publish a from-scratch snapshot of every table (open/restore)."""
        self._snapshot = Snapshot(self, self._version, {
            name: TableSnapshot.capture(t) for name, t in self._tables.items()
        })

    # -- versions -------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter over all tables (DDL included).

        Pin-aware: inside :meth:`pinned` this is the pinned snapshot's
        version, so ETags and cache keys derived from it are consistent
        with the data the pin serves."""
        pin = self._pin()
        return pin.version if pin is not None else self._version

    def table_versions(self) -> dict[str, int]:
        """Per-table mutation counters, sorted by table name."""
        pin = self._pin()
        if pin is not None:
            return pin.table_versions()
        return {name: t.version for name, t in sorted(self._tables.items())}

    def _record(self, undo: Callable[[], None]) -> None:
        if self._tx_journal:
            self._tx_journal[-1].append(undo)

    def _log_change(self, table: str, op: str, pk: Any = None,
                    row: dict[str, Any] | None = None, *,
                    wal_extra: dict[str, Any] | None = None) -> None:
        """Append one :class:`Change` at the current version and collect
        the matching frame op for the WAL/snapshot publish.

        Inside a transaction the undo closure pops both again —
        identity-checked, so a record already evicted by the ``maxlen``
        bound is simply skipped (its successors were popped first, which
        keeps the retained suffix contiguous either way).
        """
        change = Change(self._version, table, op, pk, row)
        with self._changes_lock:
            if (self._changes.maxlen is not None
                    and len(self._changes) == self._changes.maxlen):
                self._changes_truncated += 1
            self._changes.append(change)
        frame_op: dict[str, Any] = {"t": table, "o": op, "pk": pk, "r": row}
        if wal_extra:
            frame_op.update(wal_extra)
        if self._frame_active:
            self._frame_ops.append(frame_op)

        def undo() -> None:
            with self._changes_lock:
                if self._changes and self._changes[-1] is change:
                    self._changes.pop()
            if self._frame_ops and self._frame_ops[-1] is frame_op:
                self._frame_ops.pop()

        self._record(undo)
        if not self._frame_active and not self._replaying:
            # Direct table mutation outside any engine entry point
            # (legacy tests drive Table.insert with a _db attached):
            # commit the single op immediately so snapshot and WAL
            # never drift from live state.
            self._commit_ops([frame_op])

    def _log_index(self, table: str, column: str, *,
                   kind: str = "hash") -> None:
        """Record a ``create_index`` in the frame/WAL (version-neutral).

        ``kind`` distinguishes sorted from hash indexes; hash frames
        omit the field so logs written before sorted indexes existed
        replay unchanged."""
        frame_op = {"t": table, "o": "create_index", "c": column}
        if kind != "hash":
            frame_op["k"] = kind
        if self._frame_active:
            self._frame_ops.append(frame_op)

            def undo() -> None:
                if self._frame_ops and self._frame_ops[-1] is frame_op:
                    self._frame_ops.pop()

            self._record(undo)
        elif not self._replaying:
            self._commit_ops([frame_op])

    def changes_since(self, version: int, *,
                      upto: int | None = None) -> list[Change] | None:
        """Committed changes with ``version < change.version <= upto``
        (``upto`` defaults to the current version), oldest first — or
        ``None`` when the bounded journal no longer reaches back that
        far (or ``version`` is from a rolled-back future), in which case
        the caller must fall back to a full recomputation.

        ``upto`` lets a reader pinned to a snapshot catch up *exactly*
        to that snapshot's version, ignoring any newer (possibly still
        uncommitted) journal suffix.
        """
        with self._traced_op("changes_since", "*") as span_:
            with self._changes_lock:
                target = self._version if upto is None else min(
                    upto, self._version
                )
                if version == target:
                    return []
                if version > target:
                    # Observed inside a transaction since aborted.
                    return None
                if not self._changes or self._changes[0].version > version + 1:
                    # Journal truncated past the requested point.
                    return None
                # Read from the tail: the journal is contiguous and
                # ascending in version, so the wanted records are a
                # suffix (less any newer than ``target``).
                changes = []
                for change in reversed(self._changes):
                    if change.version <= version:
                        break
                    if change.version <= target:
                        changes.append(change)
                changes.reverse()
                if span_:
                    span_.set(since=version, changes=len(changes))
                return changes

    def changelog_stats(self) -> dict[str, int]:
        """Bound, occupancy and eviction count of the change journal."""
        with self._changes_lock:
            return {
                "bound": self._changes.maxlen or 0,
                "entries": len(self._changes),
                "truncated": self._changes_truncated,
            }

    def _bump_ddl(self, table: str, op: str,
                  wal_extra: dict[str, Any] | None = None) -> None:
        prev = self._version
        self._version += 1
        self._record(lambda: setattr(self, "_version", prev))
        self._log_change(table, op, wal_extra=wal_extra)

    # -- write frames ---------------------------------------------------------

    @contextmanager
    def _write_frame(self, op: str, table: str) -> Iterator[None]:
        """One atomic unit around every write entry point, traced as
        ``db.<op>``.

        Acquires the write lock, opens an implicit transaction (so an op
        that fails midway — e.g. a cascade delete hitting a RESTRICT —
        rolls back instead of partially applying), and on success
        appends the collected ops as one WAL record and publishes the
        next snapshot.  A re-entered frame (DML inside a
        ``transaction()``) is a savepoint: a failure rolls back that op
        alone, and everything else folds into the outermost frame and
        commits once.
        """
        with self._traced_op(op, table), self.lock.write():
            if self._frame_active:
                with self._savepoint():
                    yield
                return
            self._frame_active = True
            self._frame_ops = []
            committed = False
            self._begin()
            try:
                yield
            except BaseException:
                self._rollback()
                raise
            else:
                self._commit()
                committed = True
            finally:
                self._frame_active = False
                ops = self._frame_ops
                self._frame_ops = []
                if committed and ops:
                    self._commit_ops(ops)

    def _commit_ops(self, ops: list[dict[str, Any]]) -> None:
        if self._replaying:
            return
        frame: dict[str, Any] | None = None
        if self._wal is not None or self._commit_listeners:
            frame = {
                "v": self._version,
                "ops": [self._durable_op(op) for op in ops],
            }
        if self._wal is not None:
            assert frame is not None
            self._wal_append(frame)
        self._publish(ops)
        # Listeners run after the publish so a subscriber that turns
        # around and reads the database observes at least this frame's
        # version.  A listener failure must never poison the write path.
        for listener in list(self._commit_listeners):
            try:
                listener(frame)  # type: ignore[arg-type]
            except Exception:
                self._listener_errors += 1

    def add_commit_listener(
        self, listener: Callable[[dict[str, Any]], None],
    ) -> None:
        """Subscribe to committed frames (the replication shipping hook).

        The listener receives every committed frame in durable form
        (``{"v": <end version>, "ops": [...]}``), in commit order, while
        the write lock is still held — it must be fast and must not
        write back into this database.
        """
        self._commit_listeners.append(listener)

    def remove_commit_listener(
        self, listener: Callable[[dict[str, Any]], None],
    ) -> None:
        if listener in self._commit_listeners:
            self._commit_listeners.remove(listener)

    @staticmethod
    def _durable_op(op: dict[str, Any]) -> dict[str, Any]:
        out = {k: v for k, v in op.items() if v is not None}
        schema = out.get("s")
        if schema is not None and not isinstance(schema, dict):
            out["s"] = schema_to_dict(schema)
        return out

    def _wal_append(self, frame: dict[str, Any]) -> None:
        assert self._wal is not None
        with _trace.span("wal.append", ops=len(frame["ops"])):
            self._wal.append(frame)
        if self._compact_bytes and self._wal.size >= self._compact_bytes:
            self.checkpoint()

    # -- DDL ----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        with self._write_frame("create_table", schema.name):
            return self._create_table(schema)

    def _create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            if fk.ref_table not in self._tables and fk.ref_table != schema.name:
                raise SchemaError(
                    f"foreign key in {schema.name!r} references unknown table "
                    f"{fk.ref_table!r} (create referenced tables first)"
                )
        table = Table(schema)
        table._db = self
        self._tables[schema.name] = table
        # Tables created inside an aborted transaction vanish on rollback.
        self._record(lambda: self._tables.pop(schema.name, None))
        # The schema object rides along unserialized; it is rendered to
        # its durable dict form only if/when a WAL is attached.
        self._bump_ddl(schema.name, "create_table", wal_extra={"s": schema})
        # Index FK columns automatically: reverse lookups (who references
        # this row?) dominate delete checks and join traversals.
        for fk in schema.foreign_keys:
            table.create_index(fk.column)
        return table

    def drop_table(self, name: str) -> None:
        with self._write_frame("drop_table", name):
            self._drop_table(name)

    def _drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"no table {name!r}")
        for other in self._tables.values():
            if other.name == name:
                continue
            for fk in other.schema.foreign_keys:
                if fk.ref_table == name:
                    raise SchemaError(
                        f"cannot drop {name!r}: referenced by {other.name!r}"
                    )
        table = self._tables.pop(name)
        # A table dropped inside an aborted transaction comes back intact.
        self._record(lambda: self._tables.__setitem__(name, table))
        self._bump_ddl(name, "drop_table")

    def table(self, name: str) -> Table | TableSnapshot:
        """The live table — or, inside :meth:`pinned`, its snapshot.

        Both inherit one read API, :class:`repro.db.table.TableReads`;
        only the live table accepts writes (write paths always run under
        the write lock, where the pin is bypassed)."""
        pin = self._pin()
        if pin is not None:
            return pin.table(name)
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        pin = self._pin()
        return name in pin if pin is not None else name in self._tables

    # -- DML with FK enforcement ---------------------------------------------

    def _ref_exists(self, ref: Table, column: str, value: Any) -> bool:
        # FKs overwhelmingly target the primary key: O(1) containment
        # beats a table scan (the 10⁴-material seeding path).
        if column == ref.schema.primary_key:
            return value in ref._rows
        return ref.find_one(**{column: value}) is not None

    def _check_fks_outbound(self, table: Table, row: dict[str, Any]) -> None:
        for fk in table.schema.foreign_keys:
            value = row.get(fk.column)
            if value is None:
                continue
            ref = self._tables[fk.ref_table]
            if not self._ref_exists(ref, fk.ref_column, value):
                raise ForeignKeyError(
                    f"{table.name}.{fk.column}={value!r} references missing "
                    f"{fk.ref_table}.{fk.ref_column}"
                )

    def _live_table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r}") from None

    def _insert_into(self, table: Table,
                     values: Mapping[str, Any]) -> dict[str, Any]:
        # Validate FKs against a completed candidate row before committing.
        candidate = table._complete_row(values)
        self._check_fks_outbound(table, candidate)
        return table._insert_row(candidate)

    def insert(self, table_name: str, **values: Any) -> dict[str, Any]:
        with self._write_frame("insert", table_name):
            return self._insert_into(self._live_table(table_name), values)

    def insert_many(self, table_name: str,
                    rows: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
        """Insert ``rows`` in order as one write frame; returns the stored
        rows.  Each row is checked against the rows before it, and a
        failing row rolls back the whole call, also inside an enclosing
        ``transaction()``."""
        with self._write_frame("insert_many", table_name):
            table = self._live_table(table_name)
            return [self._insert_into(table, values) for values in rows]

    def update(self, table_name: str, pk: Any, **changes: Any) -> dict[str, Any]:
        with self._write_frame("update", table_name):
            table = self._live_table(table_name)
            fk_cols = {fk.column: fk for fk in table.schema.foreign_keys}
            for name, value in changes.items():
                fk = fk_cols.get(name)
                if fk is not None and value is not None:
                    ref = self._tables[fk.ref_table]
                    if not self._ref_exists(ref, fk.ref_column, value):
                        raise ForeignKeyError(
                            f"{table_name}.{name}={value!r} references missing "
                            f"{fk.ref_table}.{fk.ref_column}"
                        )
            return table.update(pk, **changes)

    def delete(self, table_name: str, pk: Any) -> dict[str, Any]:
        """Delete honoring inbound foreign keys (restrict or cascade).

        Runs as one write frame: a cascade that hits a RESTRICT midway
        rolls the already-deleted children back instead of leaving a
        partial cascade behind, also inside an enclosing
        ``transaction()``."""
        with self._write_frame("delete", table_name):
            return self._delete(table_name, pk)

    def _delete(self, table_name: str, pk: Any) -> dict[str, Any]:
        table = self._live_table(table_name)
        row = table.get(pk)
        for other in self._tables.values():
            for fk in other.schema.foreign_keys:
                if fk.ref_table != table_name:
                    continue
                ref_value = row[fk.ref_column]
                referencing = other.find(**{fk.column: ref_value})
                if not referencing:
                    continue
                if fk.on_delete == "restrict":
                    raise ForeignKeyError(
                        f"cannot delete {table_name} pk={pk!r}: referenced by "
                        f"{len(referencing)} row(s) of {other.name!r}"
                    )
                for r in referencing:
                    self._delete(other.name, r[other.schema.primary_key])
        return table.delete(pk)

    # -- transactions ---------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["Database"]:
        """All-or-nothing scope; nested transactions roll back to their own
        begin point (savepoint semantics).

        The whole scope holds the write lock and commits as one frame:
        one WAL record, one published snapshot — concurrent readers see
        either the entire transaction or none of it."""
        with self._write_frame("transaction", "*"):
            yield self

    @contextmanager
    def _savepoint(self) -> Iterator[None]:
        self._begin()
        try:
            yield
        except BaseException:
            self._rollback()
            raise
        else:
            self._commit()

    def _begin(self) -> None:
        self._tx_journal.append([])
        self._tx_depth += 1

    def _commit(self) -> None:
        if self._tx_depth == 0:
            raise TransactionError("commit without begin")
        frame = self._tx_journal.pop()
        self._tx_depth -= 1
        if self._tx_journal:
            # Savepoint semantics: an outer rollback must still undo the
            # work committed by this inner transaction.
            self._tx_journal[-1].extend(frame)

    def _rollback(self) -> None:
        if self._tx_depth == 0:
            raise TransactionError("rollback without begin")
        frame = self._tx_journal.pop()
        self._tx_depth -= 1
        for undo in reversed(frame):
            undo()

    @property
    def in_transaction(self) -> bool:
        """Is the *calling thread* inside its own ``transaction()``?"""
        return self._tx_depth > 0 and self.lock.write_held

    # -- durability -----------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, *, name: str = "carcs",
             wal_sync: str | None = None,
             changelog_size: int | None = None,
             compact_bytes: int | None = None) -> "Database":
        """Open (or create) a durable database directory.

        Restores the newest checkpoint snapshot, replays the WAL tail
        through the normal FK-checked entry points, truncates a torn
        final record if one is found, and leaves the WAL attached so
        every further commit is logged.  :attr:`recovery_report`
        describes what happened.
        """
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        kwargs: dict[str, Any] = {"changelog_size": changelog_size}
        report: dict[str, Any] = {
            "snapshot_version": 0, "frames_replayed": 0, "ops_replayed": 0,
            "torn": False, "truncated_bytes": 0,
        }
        snap_path = directory / SNAPSHOT_FILE
        if snap_path.exists():
            data = json.loads(snap_path.read_text(encoding="utf-8"))
            if data.get("format") == 2:
                # Blocked checkpoint: restore the manifest only — rows
                # page in lazily through the block cache.
                db = restore_blocked(data, directory, **kwargs)
            else:
                db = restore_database(data, **kwargs)
            report["snapshot_version"] = db._version
        else:
            db = cls(name, **kwargs)
        wal_path = directory / WAL_FILE
        with _trace.span("wal.replay"):
            # Streaming replay: one frame is decoded, applied and
            # released at a time, so a large replay tail never holds all
            # its decoded operation lists in memory at once.
            reader = WalReader(wal_path)
            for frame in reader:
                if not db._should_replay(frame):
                    continue
                db._replay_frame(frame)
                report["frames_replayed"] += 1
                report["ops_replayed"] += len(frame["ops"])
            if reader.torn:
                report["torn"] = True
                # A tear inside the magic header leaves the file shorter
                # than the valid offset; clamp so the report never goes
                # negative.
                report["truncated_bytes"] = max(
                    0, wal_path.stat().st_size - reader.valid_bytes
                )
                truncate_wal(wal_path, reader.valid_bytes)
        db._dir = directory
        db._wal = WalWriter(wal_path, sync=wal_sync)
        if compact_bytes is not None:
            db._compact_bytes = compact_bytes
        db._publish_full()
        db._recovery = report
        return db

    def attach(self, path: str | Path, *, wal_sync: str | None = None,
               compact_bytes: int | None = None) -> Path:
        """Make an in-memory database durable: ``path`` becomes its
        directory, the current state is checkpointed there, and every
        further commit appends to the WAL.  Returns the snapshot path.
        Existing contents of ``path`` are replaced by this database's
        state."""
        with self.lock.write():
            if self._wal is not None:
                raise ValueError("database already has a WAL attached")
            directory = Path(path)
            directory.mkdir(parents=True, exist_ok=True)
            self._dir = directory
            self._wal = WalWriter(directory / WAL_FILE, sync=wal_sync)
            if compact_bytes is not None:
                self._compact_bytes = compact_bytes
            return self.checkpoint()

    def checkpoint(self) -> Path:
        """Compact the WAL: write a full snapshot file atomically (temp
        file + ``os.replace``), then reset the log.  Crash-safe at every
        step — a crash before the replace keeps the old snapshot + full
        WAL; after it, the new snapshot subsumes the (possibly not yet
        reset) log, whose leftover frames replay as no-ops."""
        if self._wal is None or self._dir is None:
            raise ValueError("database is not durable (no WAL attached)")
        # Deadline-immune: auto-compaction runs on whatever request
        # thread tripped the WAL threshold, and a client deadline
        # aborting between the WAL append and the snapshot publish would
        # leave the commit half-done.  Once a checkpoint starts it runs
        # to completion.
        with self.lock.write(), _trace.no_deadline():
            with _trace.span("db.checkpoint", version=self._version):
                if self._use_blocked_checkpoint():
                    # The superseded store (if any) stays open: pinned
                    # snapshots may still page from it; GC closes it.
                    target = write_blocked_checkpoint(self, self._dir)
                else:
                    target = self._dir / SNAPSHOT_FILE
                    tmp = self._dir / (SNAPSHOT_FILE + ".tmp")
                    with tmp.open("w", encoding="utf-8") as fh:
                        write_database_json(self, fh)
                        fh.flush()
                        os.fsync(fh.fileno())
                    os.replace(tmp, target)
                self._wal.reset()
                self._checkpoints += 1
            return target

    def _use_blocked_checkpoint(self) -> bool:
        """Blocked (format-2) once any table is paged or the database
        outgrows the inline threshold; small databases keep the eager
        inline format so every historical durability property (and its
        test) holds byte-for-byte."""
        if any(isinstance(t._rows, PagedRows) for t in self._tables.values()):
            return True
        return sum(len(t._rows) for t in self._tables.values()) >= env_inline_rows()

    def close(self) -> None:
        """Flush and detach the WAL (safe to call on in-memory dbs)."""
        if self._wal is not None:
            self._wal.close()
        if self._pager is not None:
            self._pager.close()

    def _should_replay(self, frame: dict[str, Any]) -> bool:
        v = frame["v"]
        if v > self._version:
            return True
        if v == self._version:
            # Version-neutral frames (index DDL) at the checkpoint
            # boundary re-apply idempotently; anything versioned at or
            # below the snapshot version is already in the snapshot.
            return all(op["o"] == "create_index" for op in frame["ops"])
        return False

    def _apply_ops(self, ops: list[dict[str, Any]]) -> None:
        """Apply one frame's durable ops through the normal entry points
        (FK checks and version bumps replay identically because frames
        log operations in dependency order)."""
        from .snapshot import schema_from_dict

        for op in ops:
            kind = op["o"]
            name = op["t"]
            if kind == "insert":
                self.insert(name, **op["r"])
            elif kind == "update":
                pk_col = self._live_table(name).schema.primary_key
                self.update(name, op["pk"], **{
                    k: v for k, v in op["r"].items() if k != pk_col
                })
            elif kind == "delete":
                self.delete(name, op["pk"])
            elif kind == "create_table":
                self.create_table(schema_from_dict(op["s"]))
            elif kind == "drop_table":
                self.drop_table(name)
            elif kind == "create_index":
                if op.get("k") == "sorted":
                    self._live_table(name).create_sorted_index(op["c"])
                else:
                    self._live_table(name).create_index(op["c"])
            else:
                raise RecoveryError(f"unknown WAL op {kind!r}")

    def _replay_frame(self, frame: dict[str, Any]) -> None:
        """Re-apply one committed WAL frame during recovery (no snapshot
        publish, no WAL writes — ``open`` publishes once at the end)."""
        self._replaying = True
        try:
            self._apply_ops(frame["ops"])
        finally:
            self._replaying = False
        if self._version != frame["v"]:
            raise RecoveryError(
                f"replay diverged: version {self._version} after frame "
                f"committed at {frame['v']}"
            )

    # -- replication ----------------------------------------------------------

    def apply_frame(self, frame: dict[str, Any]) -> bool:
        """Apply one *shipped* WAL frame — the replica apply path.

        Unlike recovery replay this is a real commit: the frame's ops run
        as one transaction, publish one MVCC snapshot (concurrent readers
        see all of the frame or none of it), and append to this
        database's own WAL when one is attached.  Returns ``False`` —
        without touching anything — for a frame at or below the current
        version (overlap after a snapshot bootstrap is expected and
        idempotent).  Raises :class:`RecoveryError` on a version gap:
        the stream skipped frames and the caller must re-bootstrap.
        """
        target = frame["v"]
        with self._traced_op("apply_frame", "*") as span_:
            with self.lock.write():
                versioned = sum(
                    1 for op in frame["ops"] if op["o"] != "create_index"
                )
                # A frame ending at or below the current version was
                # already applied — except a *version-neutral* frame
                # (pure create_index, which never bumps the counter)
                # ending exactly here: that one may be new, and its ops
                # are idempotent, so it always (re)applies.
                if target < self._version or (
                    target == self._version and versioned
                ):
                    return False
                if self._version != target - versioned:
                    raise RecoveryError(
                        f"replication gap: frame ends at version {target} "
                        f"({versioned} ops) but database is at "
                        f"{self._version}"
                    )
                with self.transaction():
                    self._apply_ops(frame["ops"])
                if self._version != target:
                    raise RecoveryError(
                        f"replication apply diverged: version "
                        f"{self._version} after frame committed at {target}"
                    )
                if span_:
                    span_.set(version=target, ops=len(frame["ops"]))
                return True

    def load_state(self, data: dict[str, Any]) -> None:
        """Replace this database's entire state in place — the replica
        bootstrap / mid-stream checkpoint path.

        Tables, rows, id sequences and version counters adopt the
        captured state exactly (byte-equal ``database_to_dict``); the
        change journal resets (incremental consumers fall back to a full
        rebuild) and one full snapshot publishes atomically, so readers
        switch from the old state to the new in a single version step.

        A durable database checkpoints immediately after the load: its
        WAL frames will count from the loaded version, so the on-disk
        snapshot must be the replay base they apply to — otherwise a
        crash between the load and the next checkpoint would leave an
        unreplayable log.
        """
        with self._traced_op("load_state", "*"):
            with self.lock.write():
                if self._tx_depth:
                    raise TransactionError(
                        "cannot load a snapshot inside a transaction"
                    )
                load_tables(self, data)
                with self._changes_lock:
                    self._changes.clear()
                    self._changes_truncated = 0
                self._publish_full()
                if self._wal is not None:
                    self.checkpoint()

    @property
    def recovery_report(self) -> dict[str, Any] | None:
        """What :meth:`open` restored/replayed (``None`` if not opened)."""
        return dict(self._recovery) if self._recovery is not None else None

    def wal_stats(self) -> dict[str, int]:
        """Numeric WAL counters (empty when no WAL is attached)."""
        if self._wal is None:
            return {}
        out = self._wal.stats()
        out["checkpoints"] = self._checkpoints
        if self._recovery is not None:
            out["replayed_frames"] = self._recovery["frames_replayed"]
            out["recovered_truncated_bytes"] = self._recovery["truncated_bytes"]
        return out

    def storage_stats(self) -> dict[str, int]:
        """Tiered-storage counters: block-cache budget/occupancy/hit
        rates and per-tier overlay sizes (empty on a fully eager db)."""
        return storage_stats(self)

    # -- stats ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Row count per table (handy in reports and benchmarks).

        Pin-aware; mutation versions are reported separately by
        :meth:`table_versions` / :attr:`version` so the row-count
        mapping keeps its historical shape.
        """
        pin = self._pin()
        if pin is not None:
            return pin.stats()
        return {name: len(t) for name, t in sorted(self._tables.items())}

"""Immutable published snapshots — the MVCC read side of the engine.

Every committed write frame builds a new :class:`Snapshot` by
*path-copying*: only the tables touched by the frame get a new
:class:`TableSnapshot`, and a touched table copies only its bounded
**delta** (pk → row, with tombstones for deletes) over a shared base
mapping.  The database then publishes the snapshot with a single
attribute store — atomic under the interpreter — so readers pin the
current snapshot with **no lock at all** and keep reading a consistent
version while writers commit behind them.  A :class:`TableSnapshot`
reads through :class:`repro.db.table.TableReads`, as the live table does.

Hash indexes are built lazily on a column's first read and then passed
down the chain: :meth:`TableSnapshot.advance` patches the predecessor's
built buckets with the frame's ops (append a new pk, remove a deleted
one, keep an unchanged value) and drops a column only when a pk would
move inside its bucket, so that column rebuilds cold on its next read.
Sorted indexes always build lazily per snapshot.

The pin itself is a module-level :data:`~contextvars.ContextVar`
(:func:`current_pin`): ``Database.pinned()`` sets it for a scope, and
every pin-aware accessor (``Database.table`` / ``version`` /
``table_versions`` / ``stats``) consults it.  Threads holding the write
lock bypass the pin so writers and transactions always read their own
uncommitted state.

This module also owns the durable wire format shared by WAL checkpoint
files and :mod:`repro.core.persist` version-2 dumps:
:func:`database_to_dict` / :func:`restore_database` round-trip the full
engine state (schemas, rows, id sequences, version counters, secondary
indexes) through plain JSON-serializable dicts.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from itertools import islice
from typing import TYPE_CHECKING, Any, Iterable, Iterator, TextIO

from .errors import SchemaError
from .pager import PagedRows
from .schema import _NO_DEFAULT, Column, ForeignKey, TableSchema
from .table import SortedIndex, Table, TableReads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database

#: Marks a pk deleted in a snapshot delta without copying the base map.
_TOMBSTONE = object()

#: Once a delta outgrows ``max(_CONSOLIDATE_MIN, len(base) // 4)`` the
#: snapshot consolidates into a fresh base — keeping reads O(1) and the
#: publish cost amortized O(1) per mutation even under bulk seeding.
_CONSOLIDATE_MIN = 64

#: The ambient pinned snapshot (None = read live state).
_PIN: ContextVar["Snapshot | None"] = ContextVar(
    "carcs_pinned_snapshot", default=None
)


def current_pin() -> "Snapshot | None":
    """The snapshot pinned in this context, if any."""
    return _PIN.get()


class TableSnapshot(TableReads):
    """A frozen, lock-free view of one table at one version.

    Supplies the storage primitives over the shared base and the delta;
    the read API is :class:`repro.db.table.TableReads`, the live table's
    own.  Row dicts are shared with the live table (rows are never
    mutated in place — updates store a fresh dict).
    """

    __slots__ = ("schema", "version", "_base", "_delta", "_indexed",
                 "_sorted_cols", "_lazy", "_lazy_sorted", "_size")

    def __init__(self, schema: TableSchema, version: int,
                 base: dict[Any, dict], delta: dict[Any, Any],
                 indexed: frozenset[str],
                 sorted_cols: frozenset[str], *,
                 size: int, lazy: dict[str, dict[Any, list]]) -> None:
        self.schema = schema
        self.version = version
        self._base = base
        self._delta = delta
        self._indexed = indexed
        self._sorted_cols = sorted_cols
        # column -> {value: [pk, ...]}: inherited from the predecessor
        # (see advance) or built on the first indexed read.
        self._lazy = lazy
        # column -> SortedIndex, built lazily on first ordered access.
        self._lazy_sorted: dict[str, Any] = {}
        self._size = size

    # -- construction ------------------------------------------------------

    @classmethod
    def capture(cls, table: Table) -> "TableSnapshot":
        """Full snapshot of a live table (open/restore/DDL path).

        A paged table freezes in O(overlay) — the immutable block tier
        is shared, not copied — so capturing a 10^6-row cold table costs
        nothing.  Its hash indexes build cold on first read."""
        rows = table._rows
        if isinstance(rows, PagedRows):
            base: Any = rows.freeze()
        else:
            base = dict(rows)
        return cls(table.schema, table.version, base, {},
                   frozenset(table._indexes) | frozenset(table._lazy_hash),
                   frozenset(table._sorted) | frozenset(table._lazy_sorted),
                   size=len(base), lazy={})

    def advance(self, table: Table,
                ops: Iterable[dict[str, Any]]) -> "TableSnapshot":
        """The next version: this snapshot plus one committed frame's ops.

        One walk over the ops updates the delta, the row count and every
        hash index this snapshot has built, so the successor starts with
        them.  A patched index equals a cold build over the successor's
        ``_items()``, bucket order included:

        * a brand-new pk (in neither base nor delta) is last in
          ``_items()``, so it is appended to its bucket;
        * a delete removes the pk from its bucket;
        * an update that keeps the column's value changes nothing;
        * anything else — a changed value, or a re-insert of a pk the
          base or delta already holds — would move the pk inside a
          bucket, so that column's index is dropped and builds cold on
          the next read.

        Buckets and maps this snapshot can still hand out are never
        mutated: touched buckets are new lists in a shallow copy of the
        map (copy on write), so readers pinned here keep their answers.
        """
        base = self._base
        delta = dict(self._delta)
        size = self._size
        # One atomic copy: concurrent readers may be adding to _lazy.
        lazy = dict(self._lazy)
        copied: dict[str, set] = {}  # column -> values whose bucket is ours

        def bucket(column: str, value: Any) -> list:
            values = copied.get(column)
            if values is None:
                lazy[column] = dict(lazy[column])
                values = copied[column] = set()
            index = lazy[column]
            if value not in values:
                values.add(value)
                index[value] = list(index.get(value, ()))
            return index[value]

        for op in ops:
            kind = op["o"]
            if kind == "create_index":
                continue
            pk = op["pk"]
            old = delta.get(pk, _NO_DEFAULT)
            if old is _NO_DEFAULT:
                old = base.get(pk)
                known = old is not None
            else:
                known = True
                if old is _TOMBSTONE:
                    old = None
            new = _TOMBSTONE if kind == "delete" else op["r"]
            delta[pk] = new
            if new is _TOMBSTONE:
                if old is not None:
                    size -= 1
                    for column in lazy:
                        bucket(column, old[column]).remove(pk)
            elif old is not None:
                for column in list(lazy):
                    if old[column] != new[column]:
                        del lazy[column]
                        copied.pop(column, None)
            else:
                size += 1
                if known:
                    lazy.clear()
                    copied.clear()
                for column in lazy:
                    bucket(column, new[column]).append(pk)
        for column, values in copied.items():
            index = lazy[column]
            for value in values:
                if not index[value]:
                    del index[value]
        if len(delta) > max(_CONSOLIDATE_MIN, len(base) // 4):
            # Both folds keep _items() order, so the indexes carry over.
            if isinstance(base, PagedRows):
                # Fold the delta into a fresh overlay copy — the block
                # tier is shared, never materialized.
                delta, base = {}, base.with_delta(delta, _TOMBSTONE)
            else:
                merged = dict(base)
                for pk, row in delta.items():
                    if row is _TOMBSTONE:
                        merged.pop(pk, None)
                    else:
                        merged[pk] = row
                delta, base = {}, merged
        return TableSnapshot(
            self.schema, table.version, base, delta,
            frozenset(table._indexes) | frozenset(table._lazy_hash),
            frozenset(table._sorted) | frozenset(table._lazy_sorted),
            size=size, lazy=lazy)

    # -- read primitives (see TableReads) ----------------------------------

    def __len__(self) -> int:
        return self._size

    def has_index(self, column: str) -> bool:
        return column in self._indexed

    def has_sorted_index(self, column: str) -> bool:
        return column in self._sorted_cols

    def index_columns(self) -> list[str]:
        return sorted(self._indexed)

    def sorted_index_columns(self) -> list[str]:
        return sorted(self._sorted_cols)

    def sorted_index(self, column: str) -> SortedIndex:
        """Lazily-built :class:`repro.db.table.SortedIndex` over this
        snapshot's rows (same benign build race as :meth:`_hash`)."""
        sindex = self._lazy_sorted.get(column)
        if sindex is None:
            sindex = SortedIndex.build(column, self._items())
            self._lazy_sorted[column] = sindex
        return sindex

    def row(self, pk: Any) -> dict[str, Any] | None:
        """The raw stored row (no copy), or ``None``."""
        row = self._delta.get(pk, _NO_DEFAULT)
        if row is not _NO_DEFAULT:
            return None if row is _TOMBSTONE else row
        return self._base.get(pk)

    def _items(self) -> Iterator[tuple[Any, dict[str, Any]]]:
        base, delta = self._base, self._delta
        for pk, row in base.items():
            if pk in delta:
                row = delta[pk]
                if row is _TOMBSTONE:
                    continue
            yield pk, row
        for pk, row in delta.items():
            if pk not in base and row is not _TOMBSTONE:
                yield pk, row

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Raw stored rows (no copies) in ``_items()`` order."""
        return (row for _, row in self._items())

    def _hash(self, column: str) -> dict[Any, list]:
        """``value -> [pk, ...]`` in ``_items()`` order: inherited (see
        advance), or built cold on the column's first read.  Benign build
        race: concurrent readers may each build it; the last assignment
        wins and both are correct, as the snapshot is immutable."""
        index = self._lazy.get(column)
        if index is None:
            index = {}
            for pk, row in self._items():
                index.setdefault(row[column], []).append(pk)
            self._lazy[column] = index
        return index


class Snapshot:
    """One published database version: db version + per-table snapshots."""

    __slots__ = ("db", "version", "tables")

    def __init__(self, db: "Database", version: int,
                 tables: dict[str, TableSnapshot]) -> None:
        self.db = db
        self.version = version
        self.tables = tables

    def table(self, name: str) -> TableSnapshot:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def table_versions(self) -> dict[str, int]:
        return {name: t.version for name, t in sorted(self.tables.items())}

    def stats(self) -> dict[str, int]:
        return {name: len(t) for name, t in sorted(self.tables.items())}


# -- durable wire format ---------------------------------------------------
#
# Shared by WAL checkpoint files (db/wal.py) and format-2 persist dumps
# (core/persist.py).  Everything is plain JSON; schemas serialize by
# column-type *name*, so only JSON-representable column types survive a
# round-trip — which is every type the CAR-CS schema uses.

_TYPE_NAMES: dict[type, str] = {
    int: "int", str: "str", float: "float", bool: "bool", object: "object",
}
_TYPES_BY_NAME = {name: tp for tp, name in _TYPE_NAMES.items()}


def schema_to_dict(schema: TableSchema) -> dict[str, Any]:
    """JSON form of a :class:`TableSchema` (raises on non-durable parts)."""
    columns = []
    for col in schema.columns:
        type_name = _TYPE_NAMES.get(col.type)
        if type_name is None:
            raise ValueError(
                f"column {schema.name}.{col.name} has non-durable type "
                f"{col.type.__name__!r}"
            )
        entry: dict[str, Any] = {"name": col.name, "type": type_name}
        if col.nullable:
            entry["nullable"] = True
        if col.has_default():
            if callable(col.default):
                raise ValueError(
                    f"column {schema.name}.{col.name} has a callable "
                    "default; defaults must be constants to be durable"
                )
            entry["default"] = col.default
        columns.append(entry)
    return {
        "name": schema.name,
        "columns": columns,
        "primary_key": schema.primary_key,
        "unique": [list(group) for group in schema.unique],
        "foreign_keys": [
            {"column": fk.column, "ref_table": fk.ref_table,
             "ref_column": fk.ref_column, "on_delete": fk.on_delete}
            for fk in schema.foreign_keys
        ],
        "auto_increment": schema.auto_increment,
    }


def schema_from_dict(data: dict[str, Any]) -> TableSchema:
    columns = []
    for entry in data["columns"]:
        type_ = _TYPES_BY_NAME.get(entry["type"])
        if type_ is None:
            raise ValueError(f"unknown column type {entry['type']!r}")
        columns.append(Column(
            entry["name"], type_,
            nullable=entry.get("nullable", False),
            default=entry.get("default", _NO_DEFAULT),
        ))
    return TableSchema(
        name=data["name"],
        columns=tuple(columns),
        primary_key=data.get("primary_key", "id"),
        unique=tuple(tuple(g) for g in data.get("unique", ())),
        foreign_keys=tuple(
            ForeignKey(fk["column"], fk["ref_table"],
                       fk.get("ref_column", "id"),
                       fk.get("on_delete", "restrict"))
            for fk in data.get("foreign_keys", ())
        ),
        auto_increment=data.get("auto_increment", True),
    )


def _table_entry(table: Table, rows: list[dict[str, Any]]) -> dict[str, Any]:
    """One table of :func:`database_to_dict`; ``schema`` and ``rows``
    stay its first two keys (:func:`write_database_json` relies on it)."""
    return {
        "schema": schema_to_dict(table.schema),
        "rows": rows,
        "next_id": table._next_id,
        "version": table._version,
        "indexes": table.index_columns(),
        "sorted_indexes": table.sorted_index_columns(),
    }


def database_to_dict(db: "Database") -> dict[str, Any]:
    """The whole engine state as one JSON-serializable dict.

    Takes the write lock (reentrant, so checkpointing from inside a
    commit is fine) so the captured state is one committed version.
    Tables serialize in creation order, which is FK-dependency order.
    """
    with db.lock.write():
        return {
            "format": 1,
            "name": db.name,
            "version": db._version,
            "tables": [
                _table_entry(table, [dict(row) for row in table._rows.values()])
                for table in db._tables.values()
            ],
        }


#: Rows per C-encoded slice in :func:`write_database_json`.
CHECKPOINT_CHUNK_ROWS = 256


def write_database_json(db: "Database", fh: TextIO) -> None:
    """Write ``json.dumps(database_to_dict(db), separators=(",", ":"))``
    to ``fh``, encoding each table's rows a slice at a time.

    ``json.dump`` always runs the pure-Python encoder (only one-shot
    encodes use the C one), and one ``dumps`` of the whole state would
    hold the full document in memory; a slice of
    :data:`CHECKPOINT_CHUNK_ROWS` rows is one C-encoded ``dumps``.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with db.lock.write():
        head = encode({"format": 1, "name": db.name, "version": db._version})
        fh.write(head[:-1] + ',"tables":[')
        for n, table in enumerate(db._tables.values()):
            entry = _table_entry(table, [])
            schema = encode(entry.pop("schema"))
            del entry["rows"]
            fh.write(("," if n else "") + '{"schema":' + schema + ',"rows":[')
            rows = iter(table._rows.values())
            sep = ""
            while chunk := list(islice(rows, CHECKPOINT_CHUNK_ROWS)):
                fh.write(sep + encode(chunk)[1:-1])
                sep = ","
            fh.write("]," + encode(entry)[1:])
        fh.write("]}")


def load_tables(db: "Database", data: dict[str, Any]) -> None:
    """Replace ``db``'s tables and version with the captured state.

    The low-level half of :func:`restore_database`, shared with
    ``Database.load_state`` (replica bootstrap / mid-stream checkpoint):
    rows, id sequences, per-table version counters and secondary indexes
    restore exactly.  Does **not** publish a snapshot — callers do.
    """
    if data.get("format") != 1:
        raise ValueError(
            f"unsupported database snapshot format {data.get('format')!r}"
        )
    tables: dict[str, Table] = {}
    for entry in data["tables"]:
        schema = schema_from_dict(entry["schema"])
        table = Table(schema)
        table._db = db
        pk_col = schema.primary_key
        for row in entry["rows"]:
            table._raw_put(row[pk_col], dict(row))
        table._next_id = entry.get("next_id", 1)
        table._version = entry.get("version", 0)
        for column in entry.get("indexes", ()):
            table._hash(column)
        for column in entry.get("sorted_indexes", ()):
            table._sorted[column] = SortedIndex.build(
                column, table._rows.items())
        tables[schema.name] = table
    db._tables = tables
    db._version = data.get("version", 0)
    db.name = data.get("name", db.name)


def restore_database(data: dict[str, Any], **db_kwargs: Any) -> "Database":
    """Rebuild a :class:`Database` from :func:`database_to_dict` output.

    Rows, id sequences and version counters restore exactly; the change
    journal starts empty (consumers fall back to full rebuilds), and no
    WAL is attached — callers wanting durability attach one afterwards.
    """
    from .engine import Database

    db = Database(data.get("name", "carcs"), **db_kwargs)
    load_tables(db, data)
    db._publish_full()
    return db

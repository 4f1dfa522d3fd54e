"""Immutable published snapshots — the one store of the engine.

Every committed write frame builds a new :class:`Snapshot` by
*path-copying*: only the tables touched by the frame get a new
:class:`TableSnapshot`, and a touched table copies only its bounded
**delta** (pk → row, with tombstones for deletes) over a shared base
mapping.  The database then publishes the snapshot with a single
attribute store — atomic under the interpreter — so readers pin the
current snapshot with **no lock at all** and keep reading a consistent
version while writers commit behind them.  The writer reads it under
its uncommitted drafts (:class:`repro.db.table.Overlay`).

Rows are listed in pk order (a dict base is kept pk-sorted, a paged
base streams its blocks in order, the delta's new pks merge in).
Indexes build on a column's first read and pass down the chain:
:meth:`TableSnapshot.advance` patches the predecessor's pk-ordered
buckets and sorted indexes by bisection, copying each touched one once
(copy on write), so an index builds cold at most once between loads.

The pin itself is a module-level :data:`~contextvars.ContextVar`
(:func:`current_pin`): ``Database.pinned()`` sets it for a scope, and
every pin-aware accessor (``Database.table`` / ``version`` /
``table_versions`` / ``stats``) consults it.  Threads holding the write
lock bypass the pin so writers and transactions always read their own
uncommitted state.

This module also owns the one-dict wire format (format 1) of replica
bootstrap, :mod:`repro.core.persist` version-2 dumps and checkpoint
files written before every checkpoint was blocked:
:func:`database_to_dict` / :func:`restore_database` round-trip the full
engine state (schemas, rows, id sequences, version counters, secondary
indexes) through plain JSON-serializable dicts.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from copy import copy
from collections.abc import Mapping
from contextvars import ContextVar
from heapq import merge
from itertools import chain
from math import isqrt
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .errors import SchemaError
from .pager import PagedRows
from .schema import _NO_DEFAULT, Column, ForeignKey, TableSchema
from .table import TOMBSTONE, SortedIndex, TableReads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database

#: Once a delta outgrows ``_delta_bound(len(base))`` the snapshot
#: consolidates into a fresh base.  Every commit copies the delta, and a
#: consolidation copies the base, so a bound of a few times the square
#: root of the base keeps both small: reads stay O(1) and the publish
#: cost per mutation stays O(sqrt(n)) even under bulk seeding.
_CONSOLIDATE_MIN = 64


def _delta_bound(base_size: int) -> int:
    return max(_CONSOLIDATE_MIN, 4 * isqrt(base_size))

_PK = itemgetter(0)

#: The ambient pinned snapshot (None = read live state).
_PIN: ContextVar["Snapshot | None"] = ContextVar(
    "carcs_pinned_snapshot", default=None
)


def current_pin() -> "Snapshot | None":
    """The snapshot pinned in this context, if any."""
    return _PIN.get()


def _merged(base: Any, delta: dict[Any, Any]
            ) -> Iterator[tuple[Any, dict[str, Any]]]:
    """``(pk, row)`` of ``base`` under ``delta``, in pk order."""
    if not delta:
        return iter(base.items())
    overrides, added = False, []
    for pk, row in delta.items():
        if pk in base:
            overrides = True
        elif row is not TOMBSTONE:
            added.append((pk, row))
    kept = iter(base.items()) if not overrides else (
        (pk, delta.get(pk, row)) for pk, row in base.items()
        if delta.get(pk) is not TOMBSTONE)
    if not added:
        return kept
    added.sort(key=_PK)
    if type(base) is dict and (not base or next(reversed(base)) < added[0][0]):
        return chain(kept, added)  # every new pk follows the base's
    return merge(kept, added, key=_PK)


class _Buckets(Mapping):
    """One hash index, ``value -> pk-ordered list``: a map shared along
    the snapshot chain plus the buckets changed since it was last folded
    (an emptied bucket stays an empty list until then), so patching it
    copies only what a frame touched."""

    __slots__ = ("_base", "_delta")

    def __init__(self, base: dict[Any, list],
                 delta: dict[Any, list] | None = None) -> None:
        self._base = base
        self._delta = {} if delta is None else delta

    def get(self, value: Any, default: Any = ()) -> Any:
        bucket = self._delta.get(value)
        if bucket is None:
            return self._base.get(value, default)
        return bucket or default

    def __getitem__(self, value: Any) -> list:
        bucket = self.get(value)
        if not bucket:
            raise KeyError(value)
        return bucket

    def __iter__(self) -> Iterator[Any]:
        delta = self._delta
        yield from (value for value in self._base if value not in delta)
        yield from (value for value, pks in delta.items() if pks)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def folded(self) -> "_Buckets":
        """This index, its changed buckets folded into a new shared map
        once they outgrow :func:`_delta_bound` (as for the rows)."""
        if len(self._delta) <= _delta_bound(len(self._base)):
            return self
        merged = {**self._base, **self._delta}
        return _Buckets({v: pks for v, pks in merged.items() if pks})


class TableSnapshot(TableReads):
    """A frozen, lock-free view of one table at one version.

    Supplies the storage primitives over the shared base and the delta;
    the read API is :class:`repro.db.table.TableReads`.  Row dicts are
    shared along the chain (rows are never mutated in place — updates
    store a fresh dict).
    """

    __slots__ = ("schema", "version", "next_id", "_base", "_delta",
                 "_indexed", "_sorted_cols", "_lazy", "_lazy_sorted",
                 "_size")

    def __init__(self, schema: TableSchema, version: int, next_id: int,
                 base: Any, delta: dict[Any, Any],
                 indexed: frozenset[str], sorted_cols: frozenset[str], *,
                 size: int, lazy: dict[str, _Buckets] | None = None,
                 lazy_sorted: dict[str, SortedIndex] | None = None) -> None:
        self.schema = schema
        self.version = version
        self.next_id = next_id
        self._base = base
        self._delta = delta
        self._indexed = indexed
        self._sorted_cols = sorted_cols
        # column -> _Buckets and column -> SortedIndex: inherited from
        # the predecessor (see advance) or built on the column's first
        # read.
        self._lazy = {} if lazy is None else lazy
        self._lazy_sorted = {} if lazy_sorted is None else lazy_sorted
        self._size = size

    # -- construction ------------------------------------------------------

    @classmethod
    def capture(cls, schema: TableSchema, rows: Any, *, version: int = 0,
                next_id: int = 1, indexes: Iterable[str] = (),
                sorted_indexes: Iterable[str] = ()) -> "TableSnapshot":
        """A table's first snapshot (open, restore, load and
        ``create_table``): over a pk-ordered base as is (a paged tier,
        or the ``pk -> row`` dict of a resident blocked open), or over
        row dicts given in any order.  Declared indexes build on first
        read."""
        if not isinstance(rows, (PagedRows, dict)):
            pk = schema.primary_key
            rows = dict(sorted(((row[pk], dict(row)) for row in rows),
                               key=_PK))
        return cls(schema, version, next_id, rows, {},
                   frozenset(indexes), frozenset(sorted_indexes),
                   size=len(rows))

    def declare(self, column: str, kind: str) -> "TableSnapshot":
        """This snapshot with one more declared index (``kind`` is
        ``"hash"`` or ``"sorted"``); the built ones carry over."""
        clone = copy(self)
        if kind == "sorted":
            clone._sorted_cols = self._sorted_cols | {column}
        else:
            clone._indexed = self._indexed | {column}
        return clone

    def rebase(self, rows: PagedRows) -> "TableSnapshot":
        """This snapshot over a freshly written tier holding exactly its
        rows (the checkpoint path); the built indexes carry over."""
        clone = copy(self)
        clone._base, clone._delta = rows, {}
        return clone

    def advance(self, ops: Iterable[dict[str, Any]]) -> "TableSnapshot":
        """The next version: this snapshot plus one committed frame's ops.

        One walk over the ops updates the delta, the counters and every
        index this snapshot has built, so the successor starts with
        them.  Buckets are pk-ordered, so a patched index equals a cold
        build over the successor's rows: a pk leaves its old value's
        bucket (or sorted entry) and enters its new one by bisection.

        Maps, buckets and sorted indexes this snapshot can still hand
        out are never mutated: each touched one is copied once (copy on
        write), so readers pinned here keep their answers.
        """
        base = self._base
        delta = dict(self._delta)
        size, version, next_id = self._size, self.version, self.next_id
        # One atomic copy each: concurrent readers may be adding to them.
        hashes = dict(self._lazy)
        sorts = dict(self._lazy_sorted)
        owned: dict[str, set] = {}  # column -> values whose bucket is ours
        owned_sorted: set[str] = set()

        def bucket(column: str, value: Any) -> list:
            values = owned.get(column)
            if values is None:
                index = hashes[column]
                hashes[column] = _Buckets(index._base, dict(index._delta))
                values = owned[column] = set()
            changed = hashes[column]._delta
            if value not in values:
                values.add(value)
                changed[value] = list(hashes[column].get(value))
            return changed[value]

        def ordered(column: str) -> SortedIndex:
            if column not in owned_sorted:
                owned_sorted.add(column)
                sorts[column] = sorts[column].copy()
            return sorts[column]

        for op in ops:
            kind = op["o"]
            if kind == "create_index":
                continue
            pk = op["pk"]
            old = delta.get(pk, _NO_DEFAULT)
            if old is _NO_DEFAULT:
                old = base.get(pk)
            elif old is TOMBSTONE:
                old = None
            new = None if kind == "delete" else op["r"]
            delta[pk] = TOMBSTONE if new is None else new
            version += 1
            size += (new is not None) - (old is not None)
            if kind == "insert" and isinstance(pk, int) and pk >= next_id:
                next_id = pk + 1
            for column in hashes:
                was = _NO_DEFAULT if old is None else old[column]
                now = _NO_DEFAULT if new is None else new[column]
                if was is not _NO_DEFAULT and now is not _NO_DEFAULT \
                        and was == now:
                    continue
                if was is not _NO_DEFAULT:
                    pks = bucket(column, was)
                    del pks[bisect_left(pks, pk)]
                if now is not _NO_DEFAULT:
                    insort(bucket(column, now), pk)
            for column in sorts:
                if old is not None and new is not None \
                        and old[column] == new[column]:
                    continue
                sindex = ordered(column)
                if old is not None:
                    sindex.remove(old[column], pk)
                if new is not None:
                    sindex.add(new[column], pk)
        for column in owned:
            hashes[column] = hashes[column].folded()
        successor = TableSnapshot(
            self.schema, version, next_id, base, delta,
            self._indexed, self._sorted_cols,
            size=size, lazy=hashes, lazy_sorted=sorts)
        if len(delta) > _delta_bound(len(base)):
            # Fold the delta into a fresh base in pk order, so the
            # indexes carry over; a paged tier stays shared, never
            # materialized.
            successor._base = (base.with_delta(delta, TOMBSTONE)
                               if isinstance(base, PagedRows)
                               else dict(_merged(base, delta)))
            successor._delta = {}
        return successor

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
        """The :class:`repro.db.table.SortedIndex` over this snapshot's
        rows: inherited, or built on first use (same benign build race
        as :meth:`_hash`)."""
        sindex = self._lazy_sorted.get(column)
        if sindex is None:
            sindex = SortedIndex.build(column, self._items())
            self._lazy_sorted[column] = sindex
        return sindex

    def row(self, pk: Any) -> dict[str, Any] | None:
        """The raw stored row (no copy), or ``None``."""
        row = self._delta.get(pk, _NO_DEFAULT)
        if row is not _NO_DEFAULT:
            return None if row is TOMBSTONE else row
        return self._base.get(pk)

    def _items(self) -> Iterator[tuple[Any, dict[str, Any]]]:
        """``(pk, row)`` in pk order."""
        return _merged(self._base, self._delta)

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Raw stored rows (no copies) in pk order."""
        return (row for _, row in self._items())

    def eq_pks(self, column: str, value: Any) -> list[Any]:
        """Pks whose ``column`` equals ``value``, in pk order."""
        return self._hash(column).get(value, ())

    def _hash(self, column: str) -> _Buckets:
        """``value -> [pk, ...]`` in pk order: inherited (see advance),
        or built cold on the column's first read.  Benign build race:
        concurrent readers may each build it; the last assignment wins
        and both are correct, as the snapshot is immutable."""
        index = self._lazy.get(column)
        if index is None:
            built: dict[Any, list] = {}
            for pk, row in self._items():
                built.setdefault(row[column], []).append(pk)
            index = self._lazy[column] = _Buckets(built)
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
# Shared by blocked checkpoint manifests (db/pager.py), replica
# bootstrap and format-2 persist dumps (core/persist.py).  Everything
# is plain JSON; schemas serialize by column-type *name*, so only
# JSON-representable column types survive a round-trip — which is
# every type the CAR-CS schema uses.

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


def database_to_dict(db: "Database") -> dict[str, Any]:
    """The whole engine state as one JSON-serializable dict (format 1:
    replica bootstrap and :mod:`repro.core.persist` dumps).

    Takes the write lock (reentrant, so capturing from inside a commit
    is fine) so the captured state is one committed version.  Tables
    serialize in creation order, which is FK-dependency order, and rows
    in pk order.
    """
    with db.lock.write():
        return {
            "format": 1,
            "name": db.name,
            "version": db._version,
            "tables": [
                {
                    "schema": schema_to_dict(table.schema),
                    "rows": [dict(row) for row in table.iter_rows()],
                    "next_id": table.next_id,
                    "version": table.version,
                    "indexes": table.index_columns(),
                    "sorted_indexes": table.sorted_index_columns(),
                }
                for table in db._tables.values()
            ],
        }


def load_tables(db: "Database", data: dict[str, Any]) -> None:
    """Replace ``db``'s tables and version with the captured state.

    The low-level half of :func:`restore_database`, shared with
    ``Database.load_state`` (replica bootstrap / mid-stream checkpoint):
    rows, id sequences, per-table version counters and secondary index
    declarations restore exactly.  Does **not** publish a snapshot —
    callers do.
    """
    if data.get("format") != 1:
        raise ValueError(
            f"unsupported database snapshot format {data.get('format')!r}"
        )
    tables: dict[str, TableSnapshot] = {}
    for entry in data["tables"]:
        schema = schema_from_dict(entry["schema"])
        tables[schema.name] = TableSnapshot.capture(
            schema, entry["rows"], version=entry.get("version", 0),
            next_id=entry.get("next_id", 1),
            indexes=entry.get("indexes", ()),
            sorted_indexes=entry.get("sorted_indexes", ()))
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
    db._publish()
    return db

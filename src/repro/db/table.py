"""Row storage with constraint enforcement and secondary indexes.

Rows are stored as immutable-by-convention dicts keyed by primary key.
Two kinds of secondary index are maintained incrementally on every
write:

* **hash indexes** (``value -> set of pks``) keep equality lookups O(1)
  for the hot paths in CAR-CS (all the many-to-many join traversals
  behind coverage and similarity computations);
* **sorted indexes** (:class:`SortedIndex`, a bisect-maintained
  ``(value, pk)`` list) additionally support range and prefix scans and
  yield rows *in order*, which lets the query planner
  (:mod:`repro.db.plan`) answer ``where_range``/``where_prefix``
  predicates without a full scan and elide explicit sorts.

Both kinds double as the planner's cardinality statistics: bucket sizes
and bisect offsets are exact, incrementally-maintained row-count
estimates, so the cost model never needs a separate ANALYZE pass.

Every table carries a **mutation version**: a monotonic counter bumped on
each successful insert/update/delete.  The analytics cache
(:mod:`repro.core.cache`) keys memoized results on these versions, so a
result is reusable exactly as long as the tables it was derived from are
untouched.  Each mutation additionally appends a :class:`repro.db.Change`
record to the database's bounded change journal, which delta consumers
(the incremental search index) replay to avoid full rebuilds.  Inside a :meth:`repro.db.engine.Database.transaction`, each
mutation also records an **undo closure** in the transaction journal;
rollback replays the closures in reverse, restoring rows, unique and
secondary indexes, the id sequence and the version counters to their
pre-transaction state in O(ops) rather than O(table size).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from .errors import (
    IntegrityError,
    RowNotFound,
    SchemaError,
    UniqueViolation,
)
from .pager import PagedRows
from .schema import Column, TableSchema

_VALUE = itemgetter(0)


class SortedIndex:
    """A bisect-maintained ordered index over one column.

    Non-``None`` values live in ``entries`` as ``(value, pk)`` tuples
    kept sorted (ties ordered by pk); ``None`` values live in ``nones``
    sorted by pk.  That layout mirrors the engine's canonical sort
    order — value ascending, ``None`` last, pk as the tie-break — so a
    scan over the index *is* the sorted result and the planner can
    elide explicit sorts.

    Every probe (:meth:`eq_count`, :meth:`range_bounds`) is an exact
    cardinality answered by two bisects, which is what the cost model
    in :mod:`repro.db.plan` uses as its row estimates.
    """

    __slots__ = ("entries", "nones")

    def __init__(self) -> None:
        self.entries: list[tuple[Any, Any]] = []
        self.nones: list[Any] = []

    @classmethod
    def build(cls, column: str,
              items: Iterable[tuple[Any, dict[str, Any]]]) -> "SortedIndex":
        """The index on ``column`` over ``(pk, row)`` pairs, by one sort
        per list: the pairs are unique, so per-row :meth:`add` agrees."""
        index = cls()
        for pk, row in items:
            value = row[column]
            if value is None:
                index.nones.append(pk)
            else:
                index.entries.append((value, pk))
        index.entries.sort()
        index.nones.sort()
        return index

    def __len__(self) -> int:
        return len(self.entries) + len(self.nones)

    def add(self, value: Any, pk: Any) -> None:
        if value is None:
            insort(self.nones, pk)
        else:
            insort(self.entries, (value, pk))

    def remove(self, value: Any, pk: Any) -> None:
        if value is None:
            i = bisect_left(self.nones, pk)
            if i < len(self.nones) and self.nones[i] == pk:
                del self.nones[i]
        else:
            i = bisect_left(self.entries, (value, pk))
            if i < len(self.entries) and self.entries[i] == (value, pk):
                del self.entries[i]

    # -- probes (exact, O(log n)) -----------------------------------------

    def eq_pks(self, value: Any) -> list[Any]:
        """Pks whose column equals ``value``, in pk order."""
        if value is None:
            return list(self.nones)
        lo = bisect_left(self.entries, value, key=_VALUE)
        hi = bisect_right(self.entries, value, key=_VALUE)
        return [pk for _, pk in self.entries[lo:hi]]

    def eq_count(self, value: Any) -> int:
        if value is None:
            return len(self.nones)
        lo = bisect_left(self.entries, value, key=_VALUE)
        return bisect_right(self.entries, value, key=_VALUE) - lo

    def range_bounds(
        self, low: Any, high: Any,
        include_low: bool = True, include_high: bool = False,
    ) -> tuple[int, int]:
        """Slice bounds of ``entries`` matching the (half-)open range.
        ``None`` bounds are unbounded on that side; ``None`` values
        never match a range (SQL semantics)."""
        if low is None:
            lo = 0
        elif include_low:
            lo = bisect_left(self.entries, low, key=_VALUE)
        else:
            lo = bisect_right(self.entries, low, key=_VALUE)
        if high is None:
            hi = len(self.entries)
        elif include_high:
            hi = bisect_right(self.entries, high, key=_VALUE)
        else:
            hi = bisect_left(self.entries, high, key=_VALUE)
        return lo, max(lo, hi)

    def prefix_bounds(self, prefix: str) -> tuple[int, int]:
        """Slice bounds of entries whose string value starts with
        ``prefix`` (the empty prefix matches every non-``None`` value)."""
        if not prefix:
            return 0, len(self.entries)
        lo = bisect_left(self.entries, prefix, key=_VALUE)
        hi = bisect_left(self.entries, prefix + "\U0010ffff", key=_VALUE)
        return lo, max(lo, hi)

    def scan(self, lo: int, hi: int, *, descending: bool = False,
             with_nones: bool = False, skip: int = 0) -> Iterator[Any]:
        """Pks of ``entries[lo:hi]`` in index order.  ``with_nones``
        appends the ``None``-valued pks where the canonical sort puts
        them: last ascending, first descending.  The first ``skip`` pks
        of that order are left out without being visited."""
        if descending:
            if with_nones:
                yield from islice(reversed(self.nones), skip, None)
                skip = max(0, skip - len(self.nones))
            for i in range(hi - 1 - skip, lo - 1, -1):
                yield self.entries[i][1]
        else:
            for i in range(lo + skip, hi):
                yield self.entries[i][1]
            if with_nones:
                yield from islice(self.nones, max(0, skip - (hi - lo)), None)


class TableReads:
    """The read API of the live :class:`Table` and of a pinned
    :class:`repro.db.snapshot.TableSnapshot`, written once over the
    primitives each provides: ``schema``, ``row(pk)`` (stored row or
    ``None``), ``iter_rows()``, ``_hash(column)`` (``value -> pks``),
    ``has_index``, ``index_columns``, ``sorted_index_columns`` and
    ``__len__``.  Every row handed out is a copy the caller may mutate.
    """

    __slots__ = ()

    @property
    def name(self) -> str:
        return self.schema.name

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return (dict(row) for row in self.iter_rows())

    def __contains__(self, pk: Any) -> bool:
        return self.row(pk) is not None

    def indexes(self) -> dict[str, str]:
        """Declared secondary indexes: column -> "hash" | "sorted" |
        "hash+sorted" (introspection for EXPLAIN and the docs)."""
        out = {c: "hash" for c in self.index_columns()}
        for c in self.sorted_index_columns():
            out[c] = "hash+sorted" if c in out else "sorted"
        return out

    def eq_pks(self, column: str, value: Any) -> Iterable[Any]:
        """Pks matching ``column == value`` via the hash index (the
        column must be hash-indexed)."""
        return self._hash(column).get(value, ())

    def eq_count(self, column: str, value: Any) -> int:
        return len(self._hash(column).get(value, ()))

    # -- reads -------------------------------------------------------------

    def get(self, pk: Any) -> dict[str, Any]:
        row = self.row(pk)
        if row is None:
            raise RowNotFound(f"{self.name!r} has no row with pk {pk!r}")
        return dict(row)

    def get_or_none(self, pk: Any) -> dict[str, Any] | None:
        row = self.row(pk)
        return dict(row) if row is not None else None

    def find(self, **equals: Any) -> list[dict[str, Any]]:
        """All rows matching the conjunction of column=value equalities,
        seeded from the smallest hash-index bucket among them (ranges and
        sorted columns go through :class:`repro.db.query.Query`)."""
        if not equals:
            return [dict(row) for row in self.iter_rows()]
        for name in equals:
            self.schema.column(name)
        seed = None
        for column, value in equals.items():
            if self.has_index(column):
                bucket = self._hash(column).get(value, ())
                if seed is None or len(bucket) < len(seed):
                    seed = bucket
        candidates = self.iter_rows() if seed is None else map(self.row, seed)
        items = equals.items()
        return [dict(row) for row in candidates
                if all(row[c] == v for c, v in items)]

    def find_one(self, **equals: Any) -> dict[str, Any] | None:
        rows = self.find(**equals)
        return rows[0] if rows else None

    def count(self, **equals: Any) -> int:
        if not equals:
            return len(self)
        if len(equals) == 1:
            [(column, value)] = equals.items()
            if self.has_index(column):
                return self.eq_count(column, value)
        return len(self.find(**equals))


class Table(TableReads):
    """One table: schema + rows + indexes + mutation version.

    Not constructed directly in application code — use
    :meth:`repro.db.engine.Database.create_table`.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[Any, dict[str, Any]] = {}
        self._next_id = 1
        # unique indexes: constraint columns -> {key tuple: pk}
        self._unique: dict[tuple[str, ...], dict[tuple, Any]] = {
            tuple(group): {} for group in schema.unique
        }
        # secondary hash indexes: column -> {value: set(pk)}
        self._indexes: dict[str, dict[Any, set]] = {}
        # sorted secondary indexes: column -> SortedIndex
        self._sorted: dict[str, SortedIndex] = {}
        # Declared-but-unbuilt indexes (tiered restore): contents build
        # on first probe with a single streaming scan, then maintain
        # incrementally like any built index.
        self._lazy_hash: set[str] = set()
        self._lazy_sorted: set[str] = set()
        # Unique-constraint maps likewise defer on a tiered restore
        # until the first write needs them.
        self._unique_built = True
        # Monotonic mutation counter (rolled back with aborted transactions).
        self._version = 0
        # Owning database, set by Database.create_table; enables transaction
        # journaling and the database-wide version counter.
        self._db: Any = None

    # -- introspection ----------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter: bumped once per committed insert/update/delete."""
        return self._version

    def __len__(self) -> int:
        return len(self._rows)

    # -- indexes ----------------------------------------------------------

    def create_index(self, column: str) -> None:
        """Build (idempotently) a hash index on ``column``."""
        if self.has_index(column):
            return
        self.schema.column(column)  # validates existence
        self._hash(column)
        # DDL is transactional (as in PostgreSQL): an index created inside
        # an aborted transaction vanishes.
        self._journal(lambda: self._indexes.pop(column, None))
        # Version-neutral, but durable: the WAL/snapshot layer must know
        # about the index so recovered databases rebuild it.
        if self._db is not None:
            self._db._log_index(self.name, column)

    def create_sorted_index(self, column: str) -> None:
        """Build (idempotently) a sorted index on ``column``.

        Sorted indexes answer range/prefix predicates and yield rows in
        the canonical sort order (value ascending, ``None`` last, pk
        tie-break) — the query planner uses them for
        ``where_range``/``where_prefix`` scans and to elide sorts.
        Like hash indexes they are transactional DDL, journaled through
        the WAL and rebuilt on recovery and replica apply.
        """
        if self.has_sorted_index(column):
            return
        self.schema.column(column)  # validates existence
        self._sorted[column] = SortedIndex.build(column, self._rows.items())
        self._journal(lambda: self._sorted.pop(column, None))
        if self._db is not None:
            self._db._log_index(self.name, column, kind="sorted")

    def has_index(self, column: str) -> bool:
        return column in self._indexes or column in self._lazy_hash

    def has_sorted_index(self, column: str) -> bool:
        return column in self._sorted or column in self._lazy_sorted

    def _hash(self, column: str) -> dict[Any, set]:
        """The hash index on ``column``, built by :meth:`create_index`
        or, for a lazily-declared one, on first probe (one streaming
        scan through the block cache)."""
        index = self._indexes.get(column)
        if index is None:
            self._lazy_hash.discard(column)
            index = {}
            for pk, row in self._rows.items():
                index.setdefault(row[column], set()).add(pk)
            self._indexes[column] = index
        return index

    def sorted_index(self, column: str) -> SortedIndex:
        sindex = self._sorted.get(column)
        if sindex is None:
            if column not in self._lazy_sorted:
                raise KeyError(column)
            self._lazy_sorted.discard(column)
            sindex = self._sorted[column] = SortedIndex.build(
                column, self._rows.items())
        return sindex

    def _ensure_unique(self) -> None:
        """Materialize deferred unique-constraint maps before a write."""
        if self._unique_built:
            return
        self._unique_built = True
        for group in self._unique:
            rebuilt: dict[tuple, Any] = {}
            for pk, row in self._rows.items():
                rebuilt[self._unique_key(group, row)] = pk
            self._unique[group] = rebuilt

    def index_columns(self) -> list[str]:
        """Declared hash-indexed columns (built or lazy), sorted."""
        return sorted(set(self._indexes) | self._lazy_hash)

    def sorted_index_columns(self) -> list[str]:
        """Declared sorted-indexed columns (built or lazy), sorted."""
        return sorted(set(self._sorted) | self._lazy_sorted)

    # -- read primitives (see TableReads) ---------------------------------

    def row(self, pk: Any) -> dict[str, Any] | None:
        """The raw stored row (no copy) — planner-internal."""
        return self._rows.get(pk)

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Raw stored rows (no copies) — planner-internal.

        Eager tables snapshot the dict's values so callers may mutate
        mid-iteration; paged tables stream block-by-block from a frozen
        overlay copy (materializing would defeat the tier)."""
        rows = self._rows
        if isinstance(rows, PagedRows):
            return rows.freeze().values()
        return iter(list(rows.values()))

    # -- transaction journal ----------------------------------------------

    def _journal(self, undo: Callable[[], None]) -> None:
        """Record ``undo`` in the active transaction frame, if any."""
        db = self._db
        if db is not None and db._tx_journal:
            db._tx_journal[-1].append(undo)

    def _record_mutation(self, undo_data: Callable[[], None], *,
                         op: str, pk: Any, row: dict[str, Any]) -> None:
        """Bump version counters, log the change, journal the inverse.

        ``row`` is snapshotted into the database change journal (new row
        for insert/update, removed row for delete) so incremental
        consumers can resolve what the mutation touched after the fact.
        """
        prev_version = self._version
        self._version += 1
        db = self._db
        if db is None:
            return
        prev_db_version = db._version
        db._version += 1
        db._log_change(self.name, op, pk, dict(row))
        if db._tx_journal:
            def undo() -> None:
                undo_data()
                self._version = prev_version
                db._version = prev_db_version

            db._tx_journal[-1].append(undo)

    # -- raw storage ops (no checks, no journaling; used by undo) ----------

    def _raw_remove(self, pk: Any, row: dict[str, Any]) -> None:
        """Drop ``pk`` from rows, unique and secondary indexes."""
        del self._rows[pk]
        for group, index in self._unique.items():
            index.pop(self._unique_key(group, row), None)
        for column, index2 in self._indexes.items():
            bucket = index2.get(row[column])
            if bucket is not None:
                bucket.discard(pk)
                if not bucket:
                    del index2[row[column]]
        for column, sindex in self._sorted.items():
            sindex.remove(row[column], pk)

    def _raw_put(self, pk: Any, row: dict[str, Any]) -> None:
        """Re-add ``row`` under ``pk`` to rows, unique and secondary indexes."""
        self._rows[pk] = row
        for group, index in self._unique.items():
            index[self._unique_key(group, row)] = pk
        for column, index2 in self._indexes.items():
            index2.setdefault(row[column], set()).add(pk)
        for column, sindex in self._sorted.items():
            sindex.add(row[column], pk)

    # -- writes -----------------------------------------------------------

    def _complete_row(self, values: dict[str, Any]) -> dict[str, Any]:
        row: dict[str, Any] = {}
        unknown = set(values) - set(self.schema.column_names())
        if unknown:
            raise SchemaError(
                f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
            )
        for col in self.schema.columns:
            if col.name in values:
                row[col.name] = col.validate(values[col.name])
            elif col.name == self.schema.primary_key and self.schema.auto_increment:
                row[col.name] = self._next_id
            elif col.has_default():
                row[col.name] = col.validate(col.resolve_default())
            else:
                row[col.name] = col.validate(None)
        return row

    def _unique_key(self, group: tuple[str, ...], row: dict[str, Any]) -> tuple:
        return tuple(row[c] for c in group)

    def insert(self, **values: Any) -> dict[str, Any]:
        """Insert a row; returns the stored row dict (with assigned pk)."""
        return self._insert_row(self._complete_row(values))

    def _insert_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """Store a row already built by :meth:`_complete_row` (uniqueness
        checks, put, undo record) without validating it again."""
        self._ensure_unique()
        pk = row[self.schema.primary_key]
        if pk in self._rows:
            raise UniqueViolation(
                f"duplicate primary key {pk!r} in table {self.name!r}"
            )
        for group, index in self._unique.items():
            key = self._unique_key(group, row)
            if key in index:
                raise UniqueViolation(
                    f"unique constraint {group} violated in {self.name!r}: {key!r}"
                )
        # All checks passed: commit to storage and indexes.
        prev_next_id = self._next_id
        self._raw_put(pk, row)
        if isinstance(pk, int) and pk >= self._next_id:
            self._next_id = pk + 1

        def undo() -> None:
            self._raw_remove(pk, row)
            self._next_id = prev_next_id

        self._record_mutation(undo, op="insert", pk=pk, row=row)
        return dict(row)

    def update(self, pk: Any, **changes: Any) -> dict[str, Any]:
        """Update columns of the row with primary key ``pk``."""
        if pk not in self._rows:
            raise RowNotFound(f"{self.name!r} has no row with pk {pk!r}")
        if self.schema.primary_key in changes:
            raise IntegrityError("primary key columns cannot be updated")
        self._ensure_unique()
        old = self._rows[pk]
        new = dict(old)
        for name, value in changes.items():
            col = self.schema.column(name)
            new[name] = col.validate(value)
        for group, index in self._unique.items():
            key = self._unique_key(group, new)
            holder = index.get(key)
            if holder is not None and holder != pk:
                raise UniqueViolation(
                    f"unique constraint {group} violated in {self.name!r}: {key!r}"
                )
        for group, index in self._unique.items():
            del index[self._unique_key(group, old)]
            index[self._unique_key(group, new)] = pk
        for column, index2 in self._indexes.items():
            if old[column] != new[column]:
                index2[old[column]].discard(pk)
                if not index2[old[column]]:
                    del index2[old[column]]
                index2.setdefault(new[column], set()).add(pk)
        for column, sindex in self._sorted.items():
            if old[column] != new[column]:
                sindex.remove(old[column], pk)
                sindex.add(new[column], pk)
        self._rows[pk] = new

        def undo() -> None:
            self._raw_remove(pk, new)
            self._raw_put(pk, old)

        self._record_mutation(undo, op="update", pk=pk, row=new)
        return dict(new)

    def delete(self, pk: Any) -> dict[str, Any]:
        """Remove and return the row with primary key ``pk``."""
        if pk not in self._rows:
            raise RowNotFound(f"{self.name!r} has no row with pk {pk!r}")
        row = self._rows[pk]
        self._raw_remove(pk, row)
        # Journal a private copy: the popped dict is handed to the caller,
        # who may mutate it before a rollback replays the undo.
        saved = dict(row)
        self._record_mutation(
            lambda: self._raw_put(pk, saved), op="delete", pk=pk, row=saved,
        )
        return row

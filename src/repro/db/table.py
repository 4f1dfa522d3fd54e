"""Table reads: the sorted index, the one read API, and the writer's view.

Every table has one store, its latest published
:class:`repro.db.snapshot.TableSnapshot`: immutable-by-convention row
dicts keyed by primary key, listed in pk order by every read.  Two kinds
of secondary index live on it, built on a column's first read and
patched into each successor:

* **hash indexes** (``value -> pk-ordered list``) keep equality lookups
  O(1) for the hot paths in CAR-CS (all the many-to-many join traversals
  behind coverage and similarity computations), and back the unique
  checks: a unique group is probed through its first column's bucket;
* **sorted indexes** (:class:`SortedIndex`, a bisect-maintained
  ``(value, pk)`` list) additionally support range and prefix scans and
  yield rows *in order*, which lets the query planner
  (:mod:`repro.db.plan`) answer ``where_range``/``where_prefix``
  predicates without a full scan and elide explicit sorts.

Both kinds double as the planner's cardinality statistics: bucket sizes
and bisect offsets are exact row counts, so the cost model never needs a
separate ANALYZE pass.

The thread holding the write lock reads through an :class:`Overlay`: the
rows it put or deleted in the current write frame, one :class:`Draft`
per open savepoint, over the snapshot the frame builds on.  Every other
thread reads a published snapshot.  :class:`Table`, the handle
``Database.table`` returns outside a pin, stores nothing and sends each
read to the store the calling thread should see.

Every table carries a **mutation version**, bumped on each committed
insert/update/delete; the analytics cache (:mod:`repro.core.cache`)
keys memoized results on these versions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from heapq import merge
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .errors import RowNotFound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database
    from .snapshot import TableSnapshot

_VALUE = itemgetter(0)
_PK = itemgetter(0)

#: Marks a deleted pk in a draft or a snapshot delta.
TOMBSTONE = object()
_ABSENT = object()


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

    def copy(self) -> "SortedIndex":
        """An independent copy (for copy-on-write patching)."""
        index = SortedIndex()
        index.entries = list(self.entries)
        index.nones = list(self.nones)
        return index

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
    """The read API of every table view, written once over the
    primitives each provides: ``schema``, ``row(pk)`` (stored row or
    ``None``), ``iter_rows()`` (stored rows in pk order),
    ``eq_pks(column, value)`` (pk-ordered), ``has_index``,
    ``index_columns``, ``sorted_index_columns`` and ``__len__``.  Every
    row handed out is a copy the caller may mutate.
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

    def eq_count(self, column: str, value: Any) -> int:
        return len(self.eq_pks(column, value))

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
        in pk order, seeded from the smallest hash-index bucket among
        them (ranges and sorted columns go through
        :class:`repro.db.query.Query`)."""
        if not equals:
            return [dict(row) for row in self.iter_rows()]
        for name in equals:
            self.schema.column(name)
        seed = None
        for column, value in equals.items():
            if self.has_index(column):
                bucket = self.eq_pks(column, value)
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


class Draft:
    """One table's writes inside one savepoint: ``pk -> row`` (or
    :data:`TOMBSTONE`), the version and id sequence after them, and
    per-column candidate pks (re-checked on read: a later write may have
    moved one).  ``fresh`` marks a table created in this savepoint."""

    __slots__ = ("rows", "version", "next_id", "index", "fresh")

    def __init__(self, version: int, next_id: int, *,
                 fresh: bool = False) -> None:
        self.rows: dict[Any, Any] = {}
        self.version = version
        self.next_id = next_id
        self.index: dict[str, dict[Any, set]] = {}
        self.fresh = fresh

    def put(self, pk: Any, row: Any) -> None:
        self.rows[pk] = row
        if row is not TOMBSTONE:
            for column, index in self.index.items():
                index.setdefault(row[column], set()).add(pk)

    def candidates(self, column: str) -> dict[Any, set]:
        """``value -> pks`` put here with that value, built on the
        column's first probe and kept up by :meth:`put`."""
        index = self.index.get(column)
        if index is None:
            index = self.index[column] = {}
            for pk, row in self.rows.items():
                if row is not TOMBSTONE:
                    index.setdefault(row[column], set()).add(pk)
        return index

    def absorb(self, inner: "Draft") -> None:
        """Fold the draft of a savepoint released inside this one."""
        for pk, row in inner.rows.items():
            self.put(pk, row)
        self.version, self.next_id = inner.version, inner.next_id


class Overlay(TableReads):
    """The writer's view of one table: its drafts, innermost first,
    over the snapshot its write frame builds on."""

    __slots__ = ("base", "drafts")

    def __init__(self, base: "TableSnapshot", drafts: list[Draft]) -> None:
        self.base = base
        self.drafts = drafts

    def __getattr__(self, attr: str) -> Any:
        # The index declarations are the snapshot's.
        return getattr(self.base, attr)

    @property
    def schema(self) -> Any:
        return self.base.schema

    @property
    def version(self) -> int:
        return self.drafts[0].version

    @property
    def next_id(self) -> int:
        return self.drafts[0].next_id

    def _changes(self) -> dict[Any, Any]:
        """Every pk the frame wrote, with its latest row or tombstone."""
        changes: dict[Any, Any] = {}
        for draft in reversed(self.drafts):
            changes.update(draft.rows)
        return changes

    def row(self, pk: Any) -> dict[str, Any] | None:
        for draft in self.drafts:
            row = draft.rows.get(pk, _ABSENT)
            if row is not _ABSENT:
                return None if row is TOMBSTONE else row
        return self.base.row(pk)

    def __len__(self) -> int:
        size, base_row = len(self.base), self.base.row
        for pk, row in self._changes().items():
            size += (row is not TOMBSTONE) - (base_row(pk) is not None)
        return size

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        changes = self._changes()
        mine = sorted(((pk, row) for pk, row in changes.items()
                       if row is not TOMBSTONE), key=_PK)
        theirs = ((pk, row) for pk, row in self.base._items()
                  if pk not in changes)
        return (row for _, row in merge(theirs, mine, key=_PK))

    def eq_pks(self, column: str, value: Any) -> list[Any]:
        written = [draft.rows for draft in self.drafts]
        kept = [pk for pk in self.base.eq_pks(column, value)
                if not any(pk in rows for rows in written)]
        found = set()
        for draft in self.drafts:
            found.update(draft.candidates(column).get(value, ()))
        if not found:
            return kept
        found = [pk for pk in found
                 if (row := self.row(pk)) is not None and row[column] == value]
        return sorted(kept + found)

    def sorted_index(self, column: str) -> SortedIndex:
        """The snapshot's sorted index, copied and patched with the
        frame's writes."""
        index = self.base.sorted_index(column).copy()
        base_row = self.base.row
        for pk, row in self._changes().items():
            old = base_row(pk)
            if old is not None:
                index.remove(old[column], pk)
            if row is not TOMBSTONE:
                index.add(row[column], pk)
        return index


class Table:
    """The handle ``Database.table`` returns outside a pin.

    It stores nothing.  Each read goes to the store the calling thread
    should see (``Database._read_table``): its pin, the writer's own
    view under the write lock, the latest published snapshot elsewhere —
    so a handle kept across a ``transaction()`` reads that transaction's
    own writes.  The reads are those of :class:`TableReads`, resolved
    once per call.
    """

    __slots__ = ("_db", "name")

    def __init__(self, db: "Database", name: str) -> None:
        self._db = db
        self.name = name

    def _view(self) -> "TableSnapshot | Overlay":
        return self._db._read_table(self.name)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._view(), attr)

    def __len__(self) -> int:
        return len(self._view())

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._view())

    def __contains__(self, pk: Any) -> bool:
        return pk in self._view()

    # The hot reads, spelled out rather than found by __getattr__.

    @property
    def schema(self) -> Any:
        return self._view().schema

    def row(self, pk: Any) -> dict[str, Any] | None:
        """The raw stored row (no copy)."""
        return self._view().row(pk)

    def eq_pks(self, column: str, value: Any) -> Iterable[Any]:
        return self._view().eq_pks(column, value)

    def get(self, pk: Any) -> dict[str, Any]:
        return self._view().get(pk)

    def find(self, **equals: Any) -> list[dict[str, Any]]:
        return self._view().find(**equals)

    def find_one(self, **equals: Any) -> dict[str, Any] | None:
        return self._view().find_one(**equals)

    def create_index(self, column: str) -> None:
        """Declare (idempotently) a hash index on ``column``."""
        self._db._create_index(self.name, column, "hash")

    def create_sorted_index(self, column: str) -> None:
        """Declare (idempotently) a sorted index on ``column``: range and
        prefix scans, and rows in the canonical sort order (value
        ascending, ``None`` last, pk tie-break) for the planner."""
        self._db._create_index(self.name, column, "sorted")

"""A small composable query builder over :class:`repro.db.table.Table`.

Provides the subset of SQL the CAR-CS service actually needs: equality,
range, prefix and membership filters, opaque predicates, ordering,
projection, limit/offset, inner joins through link tables, and group-by
aggregation.  Queries are lazy: nothing runs until :meth:`Query.all`,
:meth:`Query.first`, :meth:`Query.count` or iteration.

Execution is **planned**, not interpreted: the pipeline compiles through
:mod:`repro.db.plan` into a tree of plan nodes (index lookups, ordered
index scans, residual filters, elidable sorts, lazy slices, semi-joins)
chosen by a cost model over the engine's incrementally-maintained index
statistics.  :meth:`Query.explain` returns the chosen plan with
estimated vs. actual row counts, and every execution surfaces the same
plan summary on its ``db.query`` trace span.  The pre-planner semantics
are preserved by :meth:`Query._run_naive`, the reference interpreter the
planner property tests compare against.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .engine import Database
from .errors import SchemaError
from .plan import (
    PlanNode,
    QuerySpec,
    RangeBound,
    SemiJoin,
    build_plan,
    sort_key,
)

Predicate = Callable[[dict[str, Any]], bool]


class Query:
    """Lazy pipeline of operations over one table's rows."""

    def __init__(self, db: Database, table_name: str) -> None:
        self._db = db
        self._table = table_name
        self._equals: dict[str, Any] = {}
        self._ranges: dict[str, RangeBound] = {}
        self._prefixes: dict[str, str] = {}
        self._ins: list[tuple[str, frozenset]] = []
        self._predicates: list[Predicate] = []
        self._order: tuple[str, bool] | None = None  # (column, descending)
        self._limit: int | None = None
        self._offset: int = 0
        self._projection: tuple[str, ...] | None = None

    # -- builders (each returns a new Query so partial pipelines can be reused)

    def _clone(self) -> "Query":
        q = Query(self._db, self._table)
        q._equals = dict(self._equals)
        q._ranges = dict(self._ranges)
        q._prefixes = dict(self._prefixes)
        q._ins = list(self._ins)
        q._predicates = list(self._predicates)
        q._order = self._order
        q._limit = self._limit
        q._offset = self._offset
        q._projection = self._projection
        return q

    def filter(self, **equals: Any) -> "Query":
        q = self._clone()
        q._equals.update(equals)
        return q

    def where(self, predicate: Predicate) -> "Query":
        q = self._clone()
        q._predicates.append(predicate)
        return q

    def where_in(self, column: str, values: Iterable[Any]) -> "Query":
        """Membership filter (``column IN values``) — structured, so the
        planner sees it instead of an opaque lambda."""
        q = self._clone()
        q._ins.append((column, frozenset(values)))
        return q

    def where_range(self, column: str, low: Any = None, high: Any = None,
                    *, include_low: bool = True,
                    include_high: bool = False) -> "Query":
        """Interval filter on ``column`` ([low, high) by default; either
        bound may be ``None`` = unbounded).  ``None`` values never match,
        mirroring SQL comparison semantics.  Served by a sorted-index
        range scan when one exists on the column."""
        q = self._clone()
        bound = RangeBound(low, high, include_low, include_high)
        prev = q._ranges.get(column)
        if prev is not None:
            # Intersect repeated ranges on the same column.
            low_b = prev if bound.low is None else (
                bound if prev.low is None
                else (prev if (prev.low, not prev.include_low)
                      >= (bound.low, not bound.include_low) else bound)
            )
            high_b = prev if bound.high is None else (
                bound if prev.high is None
                else (prev if (prev.high, prev.include_high)
                      <= (bound.high, bound.include_high) else bound)
            )
            bound = RangeBound(low_b.low, high_b.high,
                               low_b.include_low, high_b.include_high)
        q._ranges[column] = bound
        return q

    def where_prefix(self, column: str, prefix: str) -> "Query":
        """String-prefix filter (``column LIKE 'prefix%'``).  Served by a
        sorted-index prefix scan when one exists on the column."""
        q = self._clone()
        prev = q._prefixes.get(column)
        if prev is not None:
            if prev.startswith(prefix):
                prefix = prev  # the existing prefix is stricter
            elif not prefix.startswith(prev):
                # Disjoint prefixes can never both match.
                q._ins.append((column, frozenset()))
        q._prefixes[column] = prefix
        return q

    def order_by(self, column: str, descending: bool = False) -> "Query":
        q = self._clone()
        q._order = (column, descending)
        return q

    def limit(self, n: int) -> "Query":
        q = self._clone()
        q._limit = n
        return q

    def offset(self, n: int) -> "Query":
        q = self._clone()
        q._offset = n
        return q

    def select(self, *columns: str) -> "Query":
        q = self._clone()
        q._projection = columns
        return q

    # -- planning ------------------------------------------------------------

    def _source(self) -> Any:
        """The live table — or its snapshot, inside a pin."""
        return self._db.table(self._table)

    def _spec(self, source: Any) -> QuerySpec:
        """Validate structured columns and freeze the pipeline for the
        planner."""
        schema = source.schema
        for name in self._equals:
            schema.column(name)
        for name in self._ranges:
            schema.column(name)
        for name in self._prefixes:
            schema.column(name)
        for name, _ in self._ins:
            schema.column(name)
        if self._order is not None:
            schema.column(self._order[0])
        if self._projection is not None:
            for name in self._projection:
                schema.column(name)
        return QuerySpec(
            equals=dict(self._equals),
            ranges=dict(self._ranges),
            prefixes=dict(self._prefixes),
            ins=list(self._ins),
            predicates=list(self._predicates),
            order=self._order,
            limit=self._limit,
            offset=self._offset,
        )

    def plan(self) -> PlanNode:
        """The plan tree this query would execute (without running it)."""
        source = self._source()
        return build_plan(source, self._spec(source))

    def explain(self) -> dict[str, Any]:
        """Execute and report the chosen plan: a nested node tree with
        estimated vs. actual row counts, plus the compact ``summary``
        string that also lands on the ``db.query`` span's ``plan``
        attribute (the two always agree — they are the same object)."""
        source = self._source()
        node = build_plan(source, self._spec(source))
        with self._db._traced_op("query", self._table) as span_:
            returned = sum(1 for _ in node.rows())
            summary = node.summary()
            if span_:
                span_.set(plan=summary, est_rows=round(node.est_rows, 1),
                          rows=returned)
        return {
            "table": self._table,
            "summary": summary,
            "plan": node.describe(),
            "est_rows": round(node.est_rows, 1),
            "rows": returned,
        }

    # -- execution ---------------------------------------------------------

    def _project(self, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
        if self._projection is None:
            return rows
        cols = self._projection
        return [{c: r[c] for c in cols} for r in rows]

    def _run(self) -> list[dict[str, Any]]:
        source = self._source()
        node = build_plan(source, self._spec(source))
        with self._db._traced_op("query", self._table) as span_:
            rows = [dict(r) for r in node.rows()]
            if span_:
                span_.set(plan=node.summary(),
                          est_rows=round(node.est_rows, 1), rows=len(rows))
        return self._project(rows)

    def _run_naive(self) -> list[dict[str, Any]]:
        """Reference interpreter: full scan, then every predicate, then
        the canonical sort, slice and projection — no planner involved.
        The planner property tests assert planned execution matches this
        row-for-row; benchmarks use it as the scan baseline."""
        source = self._source()
        spec = self._spec(source)
        rows = [dict(r) for r in source.iter_rows()]
        out = []
        for row in rows:
            if any(row[c] != v for c, v in spec.equals.items()):
                continue
            if any(not b.matches(row[c]) for c, b in spec.ranges.items()):
                continue
            if any(not (isinstance(row[c], str) and row[c].startswith(p))
                   for c, p in spec.prefixes.items()):
                continue
            if any(row[c] not in allowed for c, allowed in spec.ins):
                continue
            if any(not pred(row) for pred in spec.predicates):
                continue
            out.append(row)
        if spec.order is not None:
            column, desc = spec.order
            out.sort(key=sort_key(column, source.schema.primary_key),
                     reverse=desc)
        if spec.offset:
            out = out[spec.offset:]
        if spec.limit is not None:
            out = out[:spec.limit]
        return self._project(out)

    def all(self) -> list[dict[str, Any]]:
        return self._run()

    def first(self) -> dict[str, Any] | None:
        rows = self.limit(1)._run()
        return rows[0] if rows else None

    def count(self) -> int:
        """Row count without materializing rows.

        When the pipeline has no residual predicates the count comes
        straight from the maintained statistics (table size, hash bucket
        length, sorted-index bisect offsets); otherwise the planned
        iterator streams and counts without copying a single row dict.
        Limit/offset fold in arithmetically either way."""
        source = self._source()
        spec = self._spec(source)
        total = self._count_from_stats(source, spec)
        if total is None:
            inner = QuerySpec(
                equals=spec.equals, ranges=spec.ranges,
                prefixes=spec.prefixes, ins=spec.ins,
                predicates=spec.predicates, order=None,
                limit=None, offset=0,
            )
            node = build_plan(source, inner)
            with self._db._traced_op("query", self._table) as span_:
                total = sum(1 for _ in node.rows())
                if span_:
                    span_.set(plan=node.summary(), rows=total)
        total = max(0, total - spec.offset)
        if spec.limit is not None:
            total = min(total, spec.limit)
        return total

    @staticmethod
    def _count_from_stats(source: Any, spec: QuerySpec) -> int | None:
        """Exact pre-offset count from index cardinalities, or ``None``
        when residual predicates force a streaming count."""
        if spec.predicates or spec.ins:
            return None
        n_structured = len(spec.equals) + len(spec.ranges) + len(spec.prefixes)
        if n_structured == 0:
            return len(source)
        if n_structured > 1:
            return None
        if spec.equals:
            (column, value), = spec.equals.items()
            if column == source.schema.primary_key:
                return 1 if source.row(value) is not None else 0
            if source.has_index(column):
                return source.eq_count(column, value)
            if source.has_sorted_index(column):
                return source.sorted_index(column).eq_count(value)
            return None
        if spec.ranges:
            (column, bound), = spec.ranges.items()
            if source.has_sorted_index(column):
                lo, hi = source.sorted_index(column).range_bounds(
                    bound.low, bound.high,
                    include_low=bound.include_low,
                    include_high=bound.include_high,
                )
                return hi - lo
            return None
        (column, prefix), = spec.prefixes.items()
        if (source.has_sorted_index(column)
                and source.schema.column(column).type is str):
            lo, hi = source.sorted_index(column).prefix_bounds(prefix)
            return hi - lo
        return None

    def exists(self) -> bool:
        """True if any row matches — short-circuits on the first one."""
        source = self._source()
        spec = self._spec(source)
        spec.limit = 1 if spec.limit is None else min(spec.limit, 1)
        node = build_plan(source, spec)
        with self._db._traced_op("query", self._table) as span_:
            found = next(node.rows(), None) is not None
            if span_:
                span_.set(plan=node.summary(), rows=int(found))
        return found

    def values(self, column: str) -> list[Any]:
        source = self._source()
        source.schema.column(column)
        node = build_plan(source, self._spec(source))
        with self._db._traced_op("query", self._table) as span_:
            out = [r[column] for r in node.rows()]
            if span_:
                span_.set(plan=node.summary(), rows=len(out))
        return out

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._run())

    # -- joins & aggregation -------------------------------------------------

    def join_via(
        self,
        link_table: str,
        *,
        local_column: str,
        remote_column: str,
        remote_table: str,
    ) -> list[dict[str, Any]]:
        """Inner join: rows of ``remote_table`` linked to any row of this
        query's result through ``link_table``.

        ``link_table`` rows must carry ``local_column`` (FK to this table's
        pk) and ``remote_column`` (FK to the remote table's pk).  Results
        are deduplicated, ordered by remote primary key.  Executes as a
        :class:`~repro.db.plan.SemiJoin` node: the link side resolves by
        per-pk hash-index probes or one link scan, whichever the cost
        model picks — never by materializing this query's full rows.
        """
        source = self._source()
        link = self._db.table(link_table)
        remote = self._db.table(remote_table)
        local_plan = build_plan(source, self._spec(source))
        node = SemiJoin(local_plan, source.schema.primary_key, link,
                        local_column, remote_column, remote)
        with self._db._traced_op("query", self._table) as span_:
            rows = [dict(r) for r in node.rows()]
            if span_:
                span_.set(plan=node.summary(),
                          est_rows=round(node.est_rows, 1), rows=len(rows))
        return rows

    def group_count(self, column: str) -> dict[Any, int]:
        """``SELECT column, COUNT(*) GROUP BY column`` over this query —
        streams the planned iterator, no row copies."""
        source = self._source()
        source.schema.column(column)
        node = build_plan(source, self._spec(source))
        counts: dict[Any, int] = {}
        with self._db._traced_op("query", self._table) as span_:
            for row in node.rows():
                value = row[column]
                counts[value] = counts.get(value, 0) + 1
            if span_:
                span_.set(plan=node.summary(), groups=len(counts))
        return counts


def query(db: Database, table_name: str) -> Query:
    """Entry point: ``query(db, "materials").filter(...)...``"""
    if table_name not in db:
        raise SchemaError(f"no table {table_name!r}")
    return Query(db, table_name)

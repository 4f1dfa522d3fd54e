"""Cost-based query planning for :class:`repro.db.query.Query`.

A :class:`Query` no longer interprets its pipeline naively; it is
compiled here into a small tree of plan nodes:

==============  ============================================================
node            strategy
==============  ============================================================
``pk_lookup``   O(1) primary-key fetch when the pk is equality-bound
``index_eq``    hash- or sorted-index equality probe (exact bucket)
``index_range`` sorted-index range / prefix / full-order scan, ascending or
                descending, yielding rows *in index order*
``full_scan``   iterate every row (always available, always correct)
``filter``      residual predicates the access path did not consume
``sort``        explicit materializing sort (elided when the access path
                already yields the requested order)
``slice``       limit/offset, applied lazily so ordered scans stop early;
                directly over an ``index_range`` the offset moves into the
                scan, which skips index entries without fetching their rows
``semi_join``   ``join_via`` without materializing either side: probe the
                link table's FK hash index per local pk, or scan the link
                once — whichever the cost model says is cheaper
==============  ============================================================

The cost model is deliberately small because its statistics are *exact*:
hash buckets and sorted-index bisect offsets are incrementally maintained
on every write, so cardinality estimates cost two bisects and never need
an ANALYZE pass.  Costs are in "rows touched"; an explicit sort charges
``n·(log2(n)+1)``.

Every node records ``est_rows`` (the planner's estimate) and, once run,
``actual_rows`` (how many rows it actually produced — maintained even
when a consumer stops early), which is what ``Query.explain()`` and the
``db.query`` trace-span ``plan`` attribute report.

Plan nodes execute against the planner duck-type shared by live
:class:`~repro.db.table.Table` and immutable
:class:`~repro.db.snapshot.TableSnapshot` (``iter_rows`` / ``row`` /
``eq_pks`` / ``eq_count`` / ``has_index`` / ``has_sorted_index`` /
``sorted_index``), so the same plan runs on live state, inside
transactions, and on pinned MVCC snapshots or replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2
from typing import Any, Callable, Iterator

from repro.obs import trace as _trace

#: Rows between ambient-deadline checks inside unbounded scans — coarse
#: enough to stay off the per-row profile, fine enough that a scan over
#: a cold paged table aborts within one block of the deadline passing.
_DEADLINE_STRIDE = 4096

#: Assumed fraction of rows surviving each residual predicate.  Only used
#: for display estimates — access-path choice uses exact cardinalities.
RESIDUAL_SELECTIVITY = 1 / 3

Predicate = Callable[[dict[str, Any]], bool]


@dataclass(frozen=True)
class RangeBound:
    """One ``where_range`` predicate: a (half-)open interval.

    ``None`` bounds are unbounded on that side; ``None`` column values
    never match (SQL comparison semantics)."""

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = False

    def matches(self, value: Any) -> bool:
        if value is None:
            return False
        low, high = self.low, self.high
        if low is not None:
            if value < low or (not self.include_low and value == low):
                return False
        if high is not None:
            if value > high or (not self.include_high and value == high):
                return False
        return True

    def describe(self) -> str:
        lo = "[" if self.include_low else "("
        hi = "]" if self.include_high else ")"
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        return f"{lo}{low}, {high}{hi}"


@dataclass
class QuerySpec:
    """The declarative part of a Query pipeline, as the planner sees it."""

    equals: dict[str, Any] = field(default_factory=dict)
    ranges: dict[str, RangeBound] = field(default_factory=dict)
    prefixes: dict[str, str] = field(default_factory=dict)
    ins: list[tuple[str, frozenset]] = field(default_factory=list)
    predicates: list[Predicate] = field(default_factory=list)
    order: tuple[str, bool] | None = None  # (column, descending)
    limit: int | None = None
    offset: int = 0


def sort_key(column: str, pk_col: str) -> Callable[[dict[str, Any]], tuple]:
    """The engine's canonical sort key for one column.

    ``None`` groups after every value ascending (NULLS LAST) and the pk
    breaks ties, so sorted results are fully deterministic and an index
    scan (which yields exactly this order) can replace the sort."""
    def key(row: dict[str, Any]) -> tuple:
        value = row[column]
        none = value is None
        return (none, 0 if none else value, row[pk_col])

    return key


# -- plan nodes -------------------------------------------------------------


class PlanNode:
    """Base node: lazily yields raw (uncopied) row dicts and counts them."""

    kind = "node"

    def __init__(self) -> None:
        self.est_rows: float = 0.0
        self.actual_rows: int | None = None

    def _produce(self) -> Iterator[dict[str, Any]]:
        raise NotImplementedError

    def rows(self) -> Iterator[dict[str, Any]]:
        n = 0
        try:
            for row in self._produce():
                n += 1
                yield row
        finally:
            # Runs on exhaustion *and* on early close (GeneratorExit), so
            # actual_rows reflects rows produced even under limit pushdown.
            self.actual_rows = n

    # -- description -------------------------------------------------------

    def detail(self) -> str:
        return ""

    def children(self) -> list["PlanNode"]:
        return []

    def describe(self) -> dict[str, Any]:
        """JSON-friendly tree with estimated vs actual row counts."""
        out: dict[str, Any] = {
            "node": self.kind,
            "detail": self.detail(),
            "est_rows": round(self.est_rows, 1),
            "actual_rows": self.actual_rows,
        }
        kids = self.children()
        if kids:
            out["children"] = [c.describe() for c in kids]
        return out

    def summary(self) -> str:
        """Compact one-line form, root first — the trace-span ``plan``
        attribute (and what ``carcs explain`` prints up top)."""
        parts = []
        node: PlanNode | None = self
        while node is not None:
            detail = node.detail()
            parts.append(f"{node.kind}({detail})" if detail else node.kind)
            kids = node.children()
            node = kids[0] if kids else None
        return " <- ".join(parts)


class FullScan(PlanNode):
    kind = "full_scan"

    def __init__(self, source: Any) -> None:
        super().__init__()
        self.source = source
        self.est_rows = float(len(source))

    def _produce(self) -> Iterator[dict[str, Any]]:
        check = _trace.check_deadline
        countdown = _DEADLINE_STRIDE
        for row in self.source.iter_rows():
            countdown -= 1
            if not countdown:
                check("full_scan")
                countdown = _DEADLINE_STRIDE
            yield row

    def detail(self) -> str:
        return self.source.name


class PkLookup(PlanNode):
    kind = "pk_lookup"

    def __init__(self, source: Any, value: Any) -> None:
        super().__init__()
        self.source = source
        self.value = value
        self.est_rows = 1.0

    def _produce(self) -> Iterator[dict[str, Any]]:
        row = self.source.row(self.value)
        if row is not None:
            yield row

    def detail(self) -> str:
        pk = self.source.schema.primary_key
        return f"{self.source.name}.{pk}={self.value!r}"


class IndexEq(PlanNode):
    """Equality probe of a hash or sorted index; yields pks in pk order
    (deterministic regardless of hash-bucket iteration order)."""

    kind = "index_eq"

    def __init__(self, source: Any, column: str, value: Any,
                 index_kind: str) -> None:
        super().__init__()
        self.source = source
        self.column = column
        self.value = value
        self.index_kind = index_kind
        if index_kind == "hash":
            self.est_rows = float(source.eq_count(column, value))
        else:
            self.est_rows = float(
                source.sorted_index(column).eq_count(value)
            )

    def _produce(self) -> Iterator[dict[str, Any]]:
        source = self.source
        if self.index_kind == "hash":
            pks = sorted(source.eq_pks(self.column, self.value))
        else:
            pks = source.sorted_index(self.column).eq_pks(self.value)
        for pk in pks:
            row = source.row(pk)
            if row is not None:
                yield row

    def detail(self) -> str:
        return (f"{self.source.name}.{self.column}={self.value!r} "
                f"via {self.index_kind}")


class IndexRange(PlanNode):
    """Ordered scan of a sorted index: a range, a prefix, or the whole
    index (``order-only``), ascending or descending.  Output is in the
    canonical sort order of the column, so a matching ``order_by`` needs
    no explicit sort and limit/offset apply streaming.

    ``skip`` is an offset pushed down from a :class:`Slice` directly
    above: sorted indexes are exact (maintained per write on live
    tables, built from the rows on pins), so skipping that many entries
    equals fetching their rows and discarding them."""

    kind = "index_range"

    def __init__(self, source: Any, column: str, *,
                 bounds: tuple[int, int], descending: bool = False,
                 with_nones: bool = False, label: str = "") -> None:
        super().__init__()
        self.source = source
        self.column = column
        self.bounds = bounds
        self.descending = descending
        self.with_nones = with_nones
        self.label = label
        self.skip = 0
        sindex = source.sorted_index(column)
        lo, hi = bounds
        self.est_rows = float(
            (hi - lo) + (len(sindex.nones) if with_nones else 0)
        )

    def skip_first(self, n: int) -> None:
        """Leave out the first ``n`` entries of the scan."""
        self.skip = n
        self.est_rows = max(0.0, self.est_rows - n)

    def _produce(self) -> Iterator[dict[str, Any]]:
        source = self.source
        sindex = source.sorted_index(self.column)
        lo, hi = self.bounds
        check = _trace.check_deadline
        countdown = _DEADLINE_STRIDE
        for pk in sindex.scan(lo, hi, descending=self.descending,
                              with_nones=self.with_nones, skip=self.skip):
            countdown -= 1
            if not countdown:
                check("index_range")
                countdown = _DEADLINE_STRIDE
            row = source.row(pk)
            if row is not None:
                yield row

    def detail(self) -> str:
        direction = "desc" if self.descending else "asc"
        detail = f"{self.source.name}.{self.column} {self.label} {direction}"
        return f"{detail} skip={self.skip}" if self.skip else detail


class Filter(PlanNode):
    """Residual predicates the access path did not consume."""

    kind = "filter"

    def __init__(self, child: PlanNode, *, equals: dict[str, Any],
                 ranges: dict[str, RangeBound], prefixes: dict[str, str],
                 ins: list[tuple[str, frozenset]],
                 predicates: list[Predicate]) -> None:
        super().__init__()
        self.child = child
        self.equals = equals
        self.ranges = ranges
        self.prefixes = prefixes
        self.ins = ins
        self.predicates = predicates
        self.n_residual = (len(equals) + len(ranges) + len(prefixes)
                           + len(ins) + len(predicates))
        self.est_rows = child.est_rows * (
            RESIDUAL_SELECTIVITY ** self.n_residual
        )

    def _matches(self, row: dict[str, Any]) -> bool:
        for column, value in self.equals.items():
            if row[column] != value:
                return False
        for column, bound in self.ranges.items():
            if not bound.matches(row[column]):
                return False
        for column, prefix in self.prefixes.items():
            value = row[column]
            if not (isinstance(value, str) and value.startswith(prefix)):
                return False
        for column, allowed in self.ins:
            if row[column] not in allowed:
                return False
        for predicate in self.predicates:
            if not predicate(row):
                return False
        return True

    def _produce(self) -> Iterator[dict[str, Any]]:
        matches = self._matches
        for row in self.child.rows():
            if matches(row):
                yield row

    def detail(self) -> str:
        parts = []
        if self.equals:
            parts.append("eq=" + ",".join(sorted(self.equals)))
        if self.ranges:
            parts.append("range=" + ",".join(sorted(self.ranges)))
        if self.prefixes:
            parts.append("prefix=" + ",".join(sorted(self.prefixes)))
        if self.ins:
            parts.append("in=" + ",".join(sorted(c for c, _ in self.ins)))
        if self.predicates:
            parts.append(f"predicates={len(self.predicates)}")
        return " ".join(parts)

    def children(self) -> list[PlanNode]:
        return [self.child]


class Sort(PlanNode):
    """Materializing sort on the canonical key (value, NULLS LAST, pk
    tie-break); present only when no index already yields the order."""

    kind = "sort"

    def __init__(self, child: PlanNode, column: str, descending: bool,
                 pk_col: str) -> None:
        super().__init__()
        self.child = child
        self.column = column
        self.descending = descending
        self.pk_col = pk_col
        self.est_rows = child.est_rows

    def _produce(self) -> Iterator[dict[str, Any]]:
        rows = list(self.child.rows())
        rows.sort(key=sort_key(self.column, self.pk_col),
                  reverse=self.descending)
        return iter(rows)

    def detail(self) -> str:
        return f"{self.column} {'desc' if self.descending else 'asc'}"

    def children(self) -> list[PlanNode]:
        return [self.child]


class Slice(PlanNode):
    """Limit/offset.  Lazy: over an ordered (or unordered) stream it
    closes the child as soon as ``offset + limit`` rows have arrived."""

    kind = "slice"

    def __init__(self, child: PlanNode, offset: int,
                 limit: int | None) -> None:
        super().__init__()
        self.child = child
        self.offset = offset
        self.limit = limit
        available = max(0.0, child.est_rows - offset)
        self.est_rows = (available if limit is None
                         else min(float(limit), available))

    def _produce(self) -> Iterator[dict[str, Any]]:
        remaining = self.limit
        skip = self.offset
        for row in self.child.rows():
            if skip:
                skip -= 1
                continue
            if remaining is not None:
                if remaining <= 0:
                    return
                remaining -= 1
            yield row
            if remaining == 0:
                return

    def detail(self) -> str:
        parts = []
        if self.offset:
            parts.append(f"offset={self.offset}")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        return " ".join(parts)

    def children(self) -> list[PlanNode]:
        return [self.child]


class SemiJoin(PlanNode):
    """``join_via`` without materializing either side.

    Collects the local side's pks from its (planned) subtree, resolves
    the link table by the cheaper of two strategies —

    * ``probe``: one hash-index probe of ``link.local_column`` per local
      pk (the FK columns of link tables are always hash-indexed), cost
      ~ |local| + |matches|;
    * ``scan``: one pass over the link table, cost ~ |link| —

    and yields each linked remote row exactly once, in remote-pk order.
    """

    kind = "semi_join"

    def __init__(self, local_plan: PlanNode, local_pk_col: str,
                 link_source: Any, local_column: str, remote_column: str,
                 remote_source: Any) -> None:
        super().__init__()
        self.local_plan = local_plan
        self.local_pk_col = local_pk_col
        self.link_source = link_source
        self.local_column = local_column
        self.remote_column = remote_column
        self.remote_source = remote_source
        probe_cost = local_plan.est_rows
        scan_cost = float(len(link_source))
        if link_source.has_index(local_column) and probe_cost <= scan_cost:
            self.strategy = "probe"
            self.est_rows = min(probe_cost, float(len(remote_source)))
        else:
            self.strategy = "scan"
            self.est_rows = min(scan_cost, float(len(remote_source)))

    def _produce(self) -> Iterator[dict[str, Any]]:
        pk_col = self.local_pk_col
        local_pks = {row[pk_col] for row in self.local_plan.rows()}
        remote_pks: set[Any] = set()
        if self.strategy == "probe":
            link = self.link_source
            column = self.remote_column
            for pk in local_pks:
                for link_pk in link.eq_pks(self.local_column, pk):
                    link_row = link.row(link_pk)
                    if link_row is not None:
                        remote_pks.add(link_row[column])
        else:
            for link_row in self.link_source.iter_rows():
                if link_row[self.local_column] in local_pks:
                    remote_pks.add(link_row[self.remote_column])
        remote = self.remote_source
        for pk in sorted(remote_pks):
            row = remote.row(pk)
            if row is not None:
                yield row

    def detail(self) -> str:
        return (f"{self.link_source.name}.{self.local_column}->"
                f"{self.remote_column} {self.strategy}")

    def children(self) -> list[PlanNode]:
        return [self.local_plan]


# -- the planner ------------------------------------------------------------


def _sort_cost(n: float) -> float:
    return n * (log2(n) + 1.0) if n > 1 else n


def build_plan(source: Any, spec: QuerySpec) -> PlanNode:
    """Compile one table pipeline into its cheapest plan tree.

    Enumerates every index-backed access path whose cardinality the
    maintained statistics answer exactly, charges an explicit sort to
    paths that do not already yield the requested order, and keeps the
    winner.  ``source`` is a live :class:`Table` or a
    :class:`TableSnapshot` — both expose the planner duck-type."""
    pk_col = source.schema.primary_key
    order = spec.order
    table_rows = float(len(source))

    # Each candidate: (cost, access_factory, consumed, satisfies_order).
    # `consumed` names the predicate the access path fully answers, so
    # the residual filter skips re-checking it.
    candidates: list[tuple[float, Callable[[], PlanNode],
                           tuple[str, str] | None, bool]] = []

    candidates.append((table_rows, lambda: FullScan(source), None, False))

    for column, value in spec.equals.items():
        if column == pk_col:
            candidates.append((
                1.0,
                lambda v=value: PkLookup(source, v),
                ("eq", column), False,
            ))
        if source.has_index(column):
            cost = float(source.eq_count(column, value))
            candidates.append((
                cost,
                lambda c=column, v=value: IndexEq(source, c, v, "hash"),
                ("eq", column), False,
            ))
        if source.has_sorted_index(column):
            cost = float(source.sorted_index(column).eq_count(value))
            candidates.append((
                cost,
                lambda c=column, v=value: IndexEq(source, c, v, "sorted"),
                ("eq", column), False,
            ))

    for column, bound in spec.ranges.items():
        if not source.has_sorted_index(column):
            continue
        sindex = source.sorted_index(column)
        bounds = sindex.range_bounds(
            bound.low, bound.high,
            include_low=bound.include_low,
            include_high=bound.include_high,
        )
        cost = float(bounds[1] - bounds[0])
        descending = bool(order and order[0] == column and order[1])
        satisfies = bool(order and order[0] == column)
        candidates.append((
            cost,
            lambda c=column, b=bounds, d=descending, lbl=bound.describe():
                IndexRange(source, c, bounds=b, descending=d, label=lbl),
            ("range", column), satisfies,
        ))

    for column, prefix in spec.prefixes.items():
        if not source.has_sorted_index(column):
            continue
        if source.schema.column(column).type is not str:
            continue
        sindex = source.sorted_index(column)
        bounds = sindex.prefix_bounds(prefix)
        cost = float(bounds[1] - bounds[0])
        descending = bool(order and order[0] == column and order[1])
        satisfies = bool(order and order[0] == column)
        candidates.append((
            cost,
            lambda c=column, b=bounds, d=descending, p=prefix:
                IndexRange(source, c, bounds=b, descending=d,
                           label=f"prefix={p!r}"),
            ("prefix", column), satisfies,
        ))

    if order is not None and source.has_sorted_index(order[0]):
        # Order-only scan: touches every row but elides the sort and
        # lets limit/offset stop it early.
        column, descending = order
        sindex = source.sorted_index(column)
        candidates.append((
            table_rows,
            lambda c=column, s=sindex, d=descending:
                IndexRange(source, c, bounds=(0, len(s.entries)),
                           descending=d, with_nones=True,
                           label="order-only"),
            None, True,
        ))

    n_predicates = (len(spec.equals) + len(spec.ranges)
                    + len(spec.prefixes) + len(spec.ins)
                    + len(spec.predicates))

    best = None
    best_total = None
    for cost, factory, consumed, satisfies in candidates:
        residuals = n_predicates - (1 if consumed else 0)
        surviving = cost * (RESIDUAL_SELECTIVITY ** residuals)
        total = cost
        if order is not None and not satisfies:
            total += _sort_cost(surviving)
        elif spec.limit is not None and not residuals:
            # Streaming path with no residual filtering: limit pushdown
            # means only offset+limit rows are touched.
            total = min(total, float(spec.offset + spec.limit))
        if best_total is None or total < best_total:
            best = (factory, consumed, satisfies)
            best_total = total

    assert best is not None
    factory, consumed, satisfies = best
    node = factory()

    equals = dict(spec.equals)
    ranges = dict(spec.ranges)
    prefixes = dict(spec.prefixes)
    if consumed is not None:
        kind, column = consumed
        if kind == "eq":
            equals.pop(column, None)
        elif kind == "range":
            ranges.pop(column, None)
        elif kind == "prefix":
            prefixes.pop(column, None)
    if isinstance(node, PkLookup):
        # The lookup returns the row with that pk; the pk equality needs
        # no re-check.
        equals.pop(pk_col, None)

    if equals or ranges or prefixes or spec.ins or spec.predicates:
        node = Filter(node, equals=equals, ranges=ranges,
                      prefixes=prefixes, ins=list(spec.ins),
                      predicates=list(spec.predicates))

    if order is not None and not satisfies:
        node = Sort(node, order[0], order[1], pk_col)

    offset = spec.offset
    if offset and isinstance(node, IndexRange):
        # The slice sits directly on the scan: push the offset into it,
        # so the skipped entries' rows are never fetched.
        node.skip_first(offset)
        offset = 0

    if offset or spec.limit is not None:
        node = Slice(node, offset, spec.limit)

    return node


def render_plan(tree: dict[str, Any], indent: int = 0) -> str:
    """Human-readable rendering of :meth:`PlanNode.describe` output —
    one node per line, children indented, est vs actual row counts."""
    pad = "  " * indent
    detail = tree.get("detail") or ""
    actual = tree.get("actual_rows")
    actual_s = "?" if actual is None else str(actual)
    line = (f"{pad}{tree['node']}"
            + (f" {detail}" if detail else "")
            + f"  (est={tree['est_rows']:g} actual={actual_s})")
    lines = [line]
    for child in tree.get("children", ()):
        lines.append(render_plan(child, indent + 1))
    return "\n".join(lines)

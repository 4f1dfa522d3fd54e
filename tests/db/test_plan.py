"""Cost-based planner: plan choice, pushdowns, durability, EXPLAIN.

Covers the deterministic half of the planner contract; the randomized
planned-vs-naive equivalence lives in ``test_planner_property.py``.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import (
    Column,
    Database,
    ForeignKey,
    SortedIndex,
    TableSchema,
    build_plan,
    query,
    render_plan,
)
from repro.db.errors import SchemaError
from repro.db.plan import (
    Filter,
    FullScan,
    IndexEq,
    IndexRange,
    PkLookup,
    QuerySpec,
    SemiJoin,
    Slice,
    Sort,
)
from repro.db.snapshot import TableSnapshot
from repro.db.table import Table
from repro.obs import MODE_ALL, TraceStore, Tracer

NAMES = [
    "apple", "apricot", "banana", "blueberry", "cherry",
    "date", "elderberry", "fig", "grape", "kiwi",
]


def make_db() -> Database:
    """items: hash index on group, sorted indexes on name and score."""
    db = Database("plantest")
    db.create_table(TableSchema(
        "items",
        columns=(
            Column("id", int),
            Column("name", str),
            Column("group", str, default=""),
            Column("score", int, nullable=True, default=None),
        ),
    ))
    items = db.table("items")
    items.create_index("group")
    items.create_sorted_index("name")
    items.create_sorted_index("score")
    for i, name in enumerate(NAMES):
        db.insert(
            "items",
            name=name,
            group="even" if i % 2 == 0 else "odd",
            score=None if i % 3 == 0 else i * 10,
        )
    return db


def unwrap(node):
    """The access node at the bottom of a plan tree."""
    while node.children():
        node = node.children()[0]
    return node


class TestSortedIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        pk_values=st.sampled_from([st.integers(-50, 50),
                                   st.text("abc", max_size=3)]),
        values=st.sampled_from([st.integers(0, 9),
                                st.text("xyz", max_size=2)]),
        data=st.data(),
    )
    def test_build_equals_per_row_add(self, pk_values, values, data):
        # One sort per list reaches the layout per-row bisect inserts do.
        # Rows come in any pk order, with Nones and repeated values.
        pairs = data.draw(st.lists(
            st.tuples(pk_values, st.one_of(st.none(), values)),
            unique_by=lambda pair: pair[0], max_size=60,
        ))
        items = [(pk, {"c": value, "other": pk}) for pk, value in pairs]
        added = SortedIndex()
        for pk, row in items:
            added.add(row["c"], pk)
        built = SortedIndex.build("c", iter(items))
        assert built.entries == added.entries
        assert built.nones == added.nones

    def test_eq_and_nones(self):
        s = SortedIndex()
        for pk, value in [(1, "b"), (2, "a"), (3, None), (4, "a")]:
            s.add(value, pk)
        assert s.eq_pks("a") == [2, 4]
        assert s.eq_pks(None) == [3]
        assert s.eq_count("a") == 2
        s.remove("a", 2)
        assert s.eq_pks("a") == [4]

    def test_range_bounds_inclusive_exclusive(self):
        s = SortedIndex()
        for pk, value in enumerate([10, 20, 20, 30, 40]):
            s.add(value, pk)
        lo, hi = s.range_bounds(20, 30)          # [20, 30)
        assert [v for v, _ in s.entries[lo:hi]] == [20, 20]
        lo, hi = s.range_bounds(20, 30, include_low=False, include_high=True)
        assert [v for v, _ in s.entries[lo:hi]] == [30]
        lo, hi = s.range_bounds(None, None)      # unbounded
        assert (lo, hi) == (0, 5)

    def test_prefix_bounds(self):
        s = SortedIndex()
        for pk, value in enumerate(["ant", "apex", "apple", "bee"]):
            s.add(value, pk)
        lo, hi = s.prefix_bounds("ap")
        assert [v for v, _ in s.entries[lo:hi]] == ["apex", "apple"]
        assert s.prefix_bounds("") == (0, 4)
        lo, hi = s.prefix_bounds("zz")
        assert lo == hi

    def test_scan_direction_and_none_placement(self):
        s = SortedIndex()
        for pk, value in [(1, "b"), (2, None), (3, "a")]:
            s.add(value, pk)
        # Ascending: values first, Nones last (NULLS LAST).
        assert list(s.scan(0, 2, with_nones=True)) == [3, 1, 2]
        # Descending mirrors the canonical reverse sort: Nones first.
        assert list(s.scan(0, 2, descending=True, with_nones=True)) \
            == [2, 1, 3]


class TestPlanChoice:
    def test_pk_equality_is_a_lookup(self):
        db = make_db()
        node = query(db, "items").filter(id=3).plan()
        assert isinstance(node, PkLookup)
        assert node.est_rows == 1.0

    def test_hash_index_beats_full_scan(self):
        db = make_db()
        node = query(db, "items").filter(group="even").plan()
        assert isinstance(node, IndexEq)
        assert node.index_kind == "hash"
        # The consumed equality is not re-checked by a residual filter.
        assert not isinstance(node, Filter)

    def test_unindexed_equality_full_scans_with_filter(self):
        db = make_db()
        node = query(db, "items").filter(score=10).where(
            lambda r: True).plan()
        # score has a *sorted* index, so equality still probes it...
        assert isinstance(unwrap(node), IndexEq)
        assert unwrap(node).index_kind == "sorted"
        # ...while the opaque predicate stays residual.
        assert isinstance(node, Filter)
        assert node.predicates

    def test_range_scan_elides_matching_sort(self):
        db = make_db()
        q = query(db, "items").where_range("name", "b", "e").order_by("name")
        node = q.plan()
        assert isinstance(node, IndexRange)          # no Sort anywhere
        assert not node.descending
        rows = [r["name"] for r in q.all()]
        assert rows == sorted(rows)
        assert all("b" <= n < "e" for n in rows)

    def test_descending_range_scan(self):
        db = make_db()
        q = (query(db, "items").where_range("name", "b", "e")
             .order_by("name", descending=True))
        node = q.plan()
        assert isinstance(node, IndexRange)
        assert node.descending
        rows = [r["name"] for r in q.all()]
        assert rows == sorted(rows, reverse=True)

    def test_order_only_scan_replaces_sort(self):
        db = make_db()
        node = query(db, "items").order_by("score").plan()
        assert isinstance(node, IndexRange)
        assert node.label == "order-only"
        assert node.with_nones

    def test_sort_needed_for_unindexed_order(self):
        db = make_db()
        node = query(db, "items").order_by("group").plan()
        assert isinstance(node, Sort)
        assert isinstance(unwrap(node), FullScan)

    def test_prefix_scan(self):
        db = make_db()
        q = query(db, "items").where_prefix("name", "ap")
        node = q.plan()
        assert isinstance(node, IndexRange)
        assert "prefix" in node.label
        assert sorted(r["name"] for r in q.all()) == ["apple", "apricot"]

    def test_prefix_on_non_str_column_is_residual(self):
        db = make_db()
        node = query(db, "items").where_prefix("score", "1").plan()
        assert isinstance(node, Filter)
        assert isinstance(unwrap(node), FullScan)

    def test_nulls_order_canonically(self):
        db = make_db()
        asc = [r["score"] for r in query(db, "items").order_by("score")]
        assert asc[-sum(v is None for v in asc):] == [None] * asc.count(None)
        desc = [r["score"] for r in
                query(db, "items").order_by("score", descending=True)]
        assert desc[:desc.count(None)] == [None] * desc.count(None)
        assert list(reversed(desc)) == asc  # pk tie-break mirrors too


class TestPushdowns:
    def test_limit_pushdown_stops_ordered_scan_early(self):
        db = make_db()
        node = query(db, "items").order_by("name").limit(2).plan()
        assert isinstance(node, Slice)
        scan = unwrap(node)
        assert isinstance(scan, IndexRange)
        rows = list(node.rows())
        assert [r["name"] for r in rows] == ["apple", "apricot"]
        # The scan produced only the two rows the slice consumed — not
        # all ten — because Slice closes its child generator early.
        assert scan.actual_rows == 2

    def test_offset_pushdown_accounting(self):
        db = make_db()
        node = query(db, "items").order_by("name").offset(8).limit(5).plan()
        rows = list(node.rows())
        assert [r["name"] for r in rows] == ["grape", "kiwi"]
        assert node.actual_rows == 2

    @pytest.mark.parametrize("pinned", [False, True], ids=["live", "pinned"])
    @pytest.mark.parametrize("descending", [False, True], ids=["asc", "desc"])
    @pytest.mark.parametrize("shape", ["order-only", "range"])
    @pytest.mark.parametrize("offset", [1, 2, 5, 6, 8, 11])
    def test_offset_pushdown_skips_without_fetching(
        self, monkeypatch, pinned, descending, shape, offset
    ):
        db = make_db()
        source_cls = TableSnapshot if pinned else Table
        fetched = []
        real_row = source_cls.row

        def counting_row(self, pk):
            fetched.append(pk)
            return real_row(self, pk)

        monkeypatch.setattr(source_cls, "row", counting_row)
        with db.pinned() if pinned else contextlib.nullcontext():
            q = query(db, "items")
            if shape == "range":
                q = q.where_range("score", 15, 75)
            q = q.order_by("score", descending=descending).offset(offset)
            node = q.limit(3).plan()
            scan = unwrap(node)
            assert isinstance(scan, IndexRange)
            assert isinstance(scan.source, source_cls)
            assert scan.with_nones is (shape == "order-only")
            assert node.children() == [scan]
            assert scan.skip == offset and node.offset == 0
            assert f"skip={offset}" in node.summary()
            assert scan.est_rows == max(0, (10 if scan.with_nones else 4)
                                        - offset)
            got = [row["id"] for row in node.rows()]
            assert len(fetched) == len(got) == scan.actual_rows

            unskipped = Slice(IndexRange(
                scan.source, "score", bounds=scan.bounds,
                descending=descending, with_nones=scan.with_nones,
            ), offset, 3)
            assert got == [row["id"] for row in unskipped.rows()]
            assert got == [row["id"] for row in q.limit(3)._run_naive()]
            unbounded = [row["id"] for row in q.all()]
            assert unbounded == [row["id"] for row in q._run_naive()]

    def test_actual_rows_recorded_on_full_consumption(self):
        db = make_db()
        node = query(db, "items").filter(group="even").plan()
        assert list(node.rows())
        assert node.actual_rows == 5
        assert node.est_rows == 5.0


class TestCountExists:
    def test_count_never_scans_for_pure_stats(self, monkeypatch):
        db = make_db()

        def boom(self):
            raise AssertionError("count() touched rows")

        monkeypatch.setattr(Table, "iter_rows", boom)
        assert query(db, "items").count() == 10
        assert query(db, "items").filter(group="even").count() == 5
        assert query(db, "items").filter(id=3).count() == 1
        assert query(db, "items").filter(id=999).count() == 0
        assert query(db, "items").where_range("score", 10, 40).count() == 2
        assert query(db, "items").where_prefix("name", "ap").count() == 2
        assert query(db, "items").filter(score=None).count() == 4

    def test_count_folds_offset_and_limit(self):
        db = make_db()
        q = query(db, "items").filter(group="even")
        assert q.offset(2).count() == 3
        assert q.offset(2).limit(2).count() == 2
        assert q.offset(99).count() == 0

    def test_count_streams_for_residuals(self):
        db = make_db()
        n = query(db, "items").where(
            lambda r: r["score"] is not None and r["score"] > 30).count()
        assert n == len([r for r in query(db, "items")._run_naive()
                         if r["score"] is not None and r["score"] > 30])

    def test_exists_short_circuits(self, monkeypatch):
        db = make_db()
        consumed = []
        original = Table.iter_rows

        def counting(self):
            for row in original(self):
                consumed.append(row)
                yield row

        monkeypatch.setattr(Table, "iter_rows", counting)
        assert query(db, "items").exists()
        assert len(consumed) == 1  # stopped after the first row
        assert not query(db, "items").filter(group="nope").exists()


class TestQueryBuilders:
    def test_where_range_intersects_repeats(self):
        db = make_db()
        q = (query(db, "items")
             .where_range("score", 10, None)
             .where_range("score", None, 50))
        assert sorted(r["score"] for r in q.all()) == [10, 20, 40]

    def test_disjoint_prefixes_match_nothing(self):
        db = make_db()
        q = (query(db, "items").where_prefix("name", "ap")
             .where_prefix("name", "ba"))
        assert q.all() == []
        assert not q.exists()

    def test_nested_prefixes_keep_the_stricter(self):
        db = make_db()
        q = (query(db, "items").where_prefix("name", "a")
             .where_prefix("name", "apr"))
        assert [r["name"] for r in q.all()] == ["apricot"]

    def test_where_in_is_structured(self):
        db = make_db()
        q = query(db, "items").where_in("name", ["fig", "kiwi", "nope"])
        assert sorted(r["name"] for r in q.all()) == ["fig", "kiwi"]

    def test_unknown_column_rejected_everywhere(self):
        db = make_db()
        with pytest.raises(SchemaError):
            query(db, "items").where_range("nope", 1, 2).all()
        with pytest.raises(SchemaError):
            query(db, "items").where_prefix("nope", "x").count()
        with pytest.raises(SchemaError):
            query(db, "items").where_in("nope", [1]).exists()


class TestSemiJoin:
    def make_linked(self, n_users=3, n_groups=4):
        db = Database("jointest")
        db.create_table(TableSchema(
            "users", columns=(Column("id", int), Column("name", str)),
        ))
        db.create_table(TableSchema(
            "groups", columns=(Column("id", int), Column("name", str)),
        ))
        db.create_table(TableSchema(
            "memberships",
            columns=(
                Column("id", int),
                Column("user_id", int),
                Column("group_id", int),
            ),
            foreign_keys=(
                ForeignKey("user_id", "users"),
                ForeignKey("group_id", "groups"),
            ),
        ))
        for i in range(n_users):
            db.insert("users", name=f"u{i}")
        for i in range(n_groups):
            db.insert("groups", name=f"g{i}")
        return db

    def test_join_via_results_in_remote_pk_order(self):
        db = self.make_linked()
        db.insert("memberships", user_id=1, group_id=3)
        db.insert("memberships", user_id=1, group_id=1)
        db.insert("memberships", user_id=2, group_id=2)
        db.insert("memberships", user_id=1, group_id=3)  # duplicate link
        rows = query(db, "users").filter(id=1).join_via(
            "memberships", local_column="user_id",
            remote_column="group_id", remote_table="groups",
        )
        assert [r["id"] for r in rows] == [1, 3]

    def test_probe_strategy_for_selective_local_side(self):
        db = self.make_linked()
        for g in range(1, 5):
            db.insert("memberships", user_id=1, group_id=g)
        source = db.table("users")
        local = build_plan(source, QuerySpec(equals={"id": 1}))
        node = SemiJoin(local, "id", db.table("memberships"),
                        "user_id", "group_id", db.table("groups"))
        assert node.strategy == "probe"
        assert [r["id"] for r in node.rows()] == [1, 2, 3, 4]

    def test_scan_strategy_when_link_is_smaller(self):
        db = self.make_linked(n_users=50)
        db.insert("memberships", user_id=7, group_id=2)
        source = db.table("users")
        local = build_plan(source, QuerySpec())  # all 50 users
        node = SemiJoin(local, "id", db.table("memberships"),
                        "user_id", "group_id", db.table("groups"))
        assert node.strategy == "scan"
        assert [r["id"] for r in node.rows()] == [2]


class TestDurability:
    def open_db(self, tmp_path):
        return Database.open(tmp_path / "store", wal_sync="off")

    def seed(self, db):
        db.create_table(TableSchema(
            "items",
            columns=(Column("id", int), Column("name", str)),
        ))
        db.table("items").create_sorted_index("name")
        for name in NAMES:
            db.insert("items", name=name)

    def assert_index_alive(self, db):
        items = db.table("items")
        assert items.has_sorted_index("name")
        assert items.indexes() == {"name": "sorted"}
        q = query(db, "items").where_range("name", "b", "e")
        assert isinstance(unwrap(q.plan()), IndexRange)
        assert sorted(r["name"] for r in q.all()) \
            == ["banana", "blueberry", "cherry", "date"]
        # ...and the rebuilt index keeps maintaining itself.
        db.insert("items", name="damson")
        assert query(db, "items").where_range("name", "b", "e").count() == 5

    def test_sorted_index_survives_wal_replay(self, tmp_path):
        self.seed(self.open_db(tmp_path))
        self.assert_index_alive(self.open_db(tmp_path))

    def test_sorted_index_survives_checkpoint(self, tmp_path):
        db = self.open_db(tmp_path)
        self.seed(db)
        db.checkpoint()
        self.assert_index_alive(self.open_db(tmp_path))

    def test_sorted_index_ships_to_replica(self):
        primary = Database("primary")
        replica = Database("replica")
        primary.add_commit_listener(replica.apply_frame)
        self.seed(primary)
        primary.delete("items", 1)
        items = replica.table("items")
        assert items.has_sorted_index("name")
        q = query(replica, "items").where_range("name", "a", "c")
        assert isinstance(unwrap(q.plan()), IndexRange)
        assert sorted(r["name"] for r in q.all()) \
            == ["apricot", "banana", "blueberry"]

    def test_snapshot_source_plans_like_live(self):
        db = make_db()
        live = query(db, "items").where_range("name", "b", "e").all()
        with db.pinned():
            node = query(db, "items").where_range("name", "b", "e").plan()
            assert isinstance(unwrap(node), IndexRange)
            pinned = query(db, "items").where_range("name", "b", "e").all()
            db_state = query(db, "items").count()
        assert pinned == live
        assert db_state == 10


class TestExplain:
    def test_explain_reports_est_and_actual(self):
        db = make_db()
        report = query(db, "items").filter(group="even").explain()
        assert report["table"] == "items"
        assert report["summary"].startswith("index_eq(")
        assert report["rows"] == 5
        assert report["est_rows"] == 5.0
        tree = report["plan"]
        assert tree["node"] == "index_eq"
        assert tree["actual_rows"] == 5
        text = render_plan(tree)
        assert "index_eq" in text and "est=5" in text

    def test_explain_agrees_with_trace_span_plan(self):
        db = make_db()
        tracer = Tracer(TraceStore(), mode=MODE_ALL, slow_ms=1e9)
        with tracer.trace("test") as root:
            report = (query(db, "items").where_range("name", "b", "e")
                      .order_by("name").explain())
        record = tracer.store.get(root.trace_id)
        spans = [s for s in record.root.walk() if s.name == "db.query"]
        assert len(spans) == 1
        assert spans[0].attributes["plan"] == report["summary"]
        assert spans[0].attributes["rows"] == report["rows"]
        assert spans[0].attributes["est_rows"] == report["est_rows"]

    def test_all_surfaces_same_plan_summary_on_span(self):
        db = make_db()
        q = query(db, "items").filter(group="odd").order_by("score")
        expected = q.plan().summary()
        tracer = Tracer(TraceStore(), mode=MODE_ALL, slow_ms=1e9)
        with tracer.trace("test") as root:
            rows = q.all()
        record = tracer.store.get(root.trace_id)
        spans = [s for s in record.root.walk() if s.name == "db.query"]
        assert spans[0].attributes["plan"] == expected
        assert spans[0].attributes["rows"] == len(rows)

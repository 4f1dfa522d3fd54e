"""The tracing substrate: spans, context propagation, retention, stores."""

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.obs.trace import (
    MODE_ALL,
    MODE_OFF,
    MODE_SAMPLED,
    NULL_SPAN,
    TraceRecord,
    TraceStore,
    Tracer,
    current_span,
    current_trace_id,
    render_text,
    render_tree,
    span,
    stitch_trace,
)


def tracer(**kwargs):
    kwargs.setdefault("mode", MODE_ALL)
    kwargs.setdefault("sample_every", 1)
    kwargs.setdefault("slow_ms", 1e9)  # never auto-slow in unit tests
    return Tracer(TraceStore(capacity=kwargs.pop("capacity", 16)), **kwargs)


class TestSpanMath:
    """The read-only span tree a retained trace builds from its records."""

    def test_self_time_subtracts_finished_children(self):
        t = tracer()
        with t.trace("root") as root:
            trace_id = root.trace_id
            with span("child"):
                pass
        tree = t.store.get(trace_id).root
        (child,) = tree.children
        assert tree.self_s == pytest.approx(
            max(0.0, tree.wall_s - child.wall_s)
        )
        # Exact on fixed clocks: 0.5 s minus children of 0.125 + 0.0625.
        assert _oracle_primary().root.self_s == 0.3125

    def test_walk_is_depth_first(self):
        t = tracer()
        with t.trace("a") as root:
            trace_id = root.trace_id
            with span("b"):
                with span("d"):
                    pass
            with span("c"):
                pass
        tree = t.store.get(trace_id).root
        assert [s.name for s in tree.walk()] == ["a", "b", "d", "c"]

    def test_as_dict_nests_children_and_flags_errors(self):
        t = tracer()
        with t.trace("root", k="v") as root:
            trace_id = root.trace_id
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("nope")
        tree = t.store.get(trace_id).root
        d = tree.as_dict()
        assert d["attributes"] == {"k": "v"}
        assert d["children"][0]["status"] == "error"
        assert "ValueError" in d["children"][0]["error"]
        assert d["children"][0]["parent_id"] == tree.span_id


class TestContextPropagation:
    def test_span_without_active_trace_is_the_shared_null(self):
        assert current_span() is None
        scope = span("db.insert", table="materials")
        assert scope is NULL_SPAN
        assert not scope
        with scope as s:
            s.set(rows=1)  # no-op, no error

    def test_nested_spans_parent_correctly_and_restore_context(self):
        t = tracer()
        with t.trace("root") as root:
            trace_id = root.trace_id
            assert current_trace_id() == trace_id
            with span("outer") as outer:
                assert current_span() is outer
                with span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                assert current_span() is outer
            assert current_span() is root
        assert current_span() is None
        tree = t.store.get(trace_id).root
        assert [c.name for c in tree.children] == ["outer"]
        (outer_span,) = tree.children
        assert [c.name for c in outer_span.children] == ["inner"]

    def test_exception_inside_span_marks_error_and_propagates(self):
        t = tracer()
        with pytest.raises(RuntimeError):
            with t.trace("root"):
                with span("work"):
                    raise RuntimeError("boom")
        record = t.store.summaries()[0]
        full = t.store.get(record["trace_id"])
        (child,) = full.root.children
        assert child.status == "error"
        assert "RuntimeError" in child.error

    def test_nested_trace_call_becomes_a_child_span(self):
        t = tracer()
        with t.trace("root") as root:
            with t.trace("inner") as inner:
                assert inner.trace_id == root.trace_id
                assert inner.parent_id == root.span_id
        assert len(t.store) == 1

    def test_threads_get_disjoint_contexts(self):
        t = tracer()
        seen = {}
        barrier = threading.Barrier(2)

        def work(tag):
            with t.trace(tag) as root:
                barrier.wait(timeout=10)  # both traces alive at once
                with span("child"):
                    seen[tag] = current_trace_id()
            assert current_span() is None

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30)
        assert len(set(seen.values())) == 2
        roots = {r.root.name: r for r in map(
            t.store.get, set(seen.values())
        )}
        for tag, trace_id in seen.items():
            record = roots[tag]
            assert record.trace_id == trace_id
            assert [c.name for c in record.root.children] == ["child"]


class TestRetention:
    def test_mode_off_produces_no_spans_at_all(self):
        t = tracer(mode=MODE_OFF)
        assert not t.enabled
        with t.trace("root") as root:
            assert root is NULL_SPAN
            assert span("child") is NULL_SPAN
        assert len(t.store) == 0
        assert t.stats()["started"] == 0

    def test_sampled_mode_keeps_every_nth(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=3)
        for _ in range(9):
            with t.trace("root"):
                pass
        assert t.stats() == {
            "started": 9, "retained": 3, "dropped": 6,
            "stored": 3, "evicted": 0,
        }
        assert all(
            s["retained_by"] == "sampled" for s in t.store.summaries()
        )

    def test_error_overrides_the_sampler(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=10**6)
        with t.trace("fine"):
            pass  # head-sampled (first trace)
        with t.trace("broken") as root:
            root.mark_error("http 500")
        summaries = t.store.summaries()
        assert [s["retained_by"] for s in summaries] == ["error", "sampled"]

    def test_slow_span_overrides_the_sampler(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=10**6, slow_ms=0.0)
        with t.trace("skipped-but-slow"):
            pass
        with t.trace("also-slow"):
            pass
        # Both exceed the (zero) slow threshold; the second would have
        # been sampled out but the slow override retains it anyway.
        assert [s["retained_by"] for s in t.store.summaries()] \
            == ["slow", "slow"]
        assert all(s["slow"] for s in t.store.summaries())

    def test_mode_all_retains_everything(self):
        t = tracer(mode=MODE_ALL, sample_every=10**6)
        for _ in range(4):
            with t.trace("root"):
                pass
        assert t.stats()["retained"] == 4
        assert {s["retained_by"] for s in t.store.summaries()} == {"all"}

    def test_configure_none_rereads_environment(self, monkeypatch):
        monkeypatch.setenv("CARCS_TRACE", "off")
        monkeypatch.setenv("CARCS_TRACE_SAMPLE", "7")
        monkeypatch.setenv("CARCS_TRACE_SLOW_MS", "5.5")
        t = Tracer()
        assert (t.mode, t.sample_every, t.slow_ms) == (MODE_OFF, 7, 5.5)
        t.configure(mode=MODE_ALL)  # explicit overrides env
        assert t.mode == MODE_ALL


class TestTraceStore:
    def test_bounded_with_eviction_count(self):
        store = TraceStore(capacity=2)
        t = Tracer(store, mode=MODE_ALL, slow_ms=1e9)
        ids = []
        for _ in range(5):
            with t.trace("root") as root:
                ids.append(root.trace_id)
        assert len(store) == 2
        assert store.evicted == 3
        assert store.get(ids[0]) is None
        assert store.get(ids[-1]) is not None
        # summaries are newest-first
        assert [s["trace_id"] for s in store.summaries()] == ids[:2:-1]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestMetricsBridge:
    def test_span_histograms_and_trace_counter(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=2)
        t.registry = MetricsRegistry()
        for _ in range(4):
            with t.trace("http.request"):
                with span("db.insert"):
                    pass
        t.stats()  # timings feed the registry when a read drains the queue
        export = t.registry.export()
        hists = export["histograms"]
        assert hists['carcs_span_seconds{span="http.request"}']["count"] == 4
        assert hists['carcs_span_seconds{span="db.insert"}']["count"] == 4
        counters = export["counters"]
        assert counters['carcs_traces_total{retained="true"}']["value"] == 2
        assert counters['carcs_traces_total{retained="false"}']["value"] == 2

    def test_feeding_is_deferred_until_stats_or_flush(self):
        t = tracer()
        t.registry = MetricsRegistry()
        with t.trace("http.request"):
            pass
        assert t.registry.export()["histograms"] == {}  # still buffered
        t.stats()  # any scrape-path read drains the buffer
        hists = t.registry.export()["histograms"]
        assert hists['carcs_span_seconds{span="http.request"}']["count"] == 1

    def test_exemplars_point_at_retained_traces_only(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=10**6)
        with t.trace("kept") as kept:  # first trace: head-sampled
            kept_id = kept.trace_id  # live handles don't outlive the block
            with span("cache.get"):
                pass
        with t.trace("dropped"):
            with span("search.query"):
                pass
        exemplars = t.exemplars()
        assert exemplars["kept"] == kept_id
        assert exemplars["cache.get"] == kept_id
        assert "search.query" not in exemplars
        assert t.store.get(exemplars["cache.get"]) is not None

    def test_reset_clears_store_counters_and_exemplars(self):
        t = tracer()
        with t.trace("root"):
            pass
        t.reset()
        assert len(t.store) == 0
        assert t.exemplars() == {}
        assert t.stats()["started"] == 0


class TestRenderText:
    def test_tree_layout_attributes_and_error_lines(self):
        t = tracer(slow_ms=0.0)
        with t.trace("GET /api/v1/search", status=200) as root:
            with span("search.query", mode="bm25"):
                with span("db.changes_since") as inner:
                    inner.mark_error("journal outrun")
        record = t.store.get(root.trace_id)
        text = render_text(record)
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {root.trace_id}")
        assert "spans=3" in lines[0]
        assert "SLOW" in lines[0]
        assert lines[1].startswith("- GET /api/v1/search")
        assert "[status=200]" in lines[1]
        assert lines[2].startswith("  - search.query")
        assert "[mode=bm25]" in lines[2]
        assert lines[3].startswith("    - db.changes_since !")
        assert lines[4].strip() == "error: journal outrun"

    def test_record_summary_shape(self):
        t = tracer()
        with t.trace("root") as root:
            with span("child"):
                pass
        record = t.store.get(root.trace_id)
        assert isinstance(record, TraceRecord)
        summary = record.summary()
        assert summary["spans"] == 2
        assert summary["name"] == "root"
        assert summary["duration_ms"] >= 0.0
        assert record.as_dict()["root"]["children"][0]["name"] == "child"


# Hand-built flat records for the renderer oracle.  Slots: name, parent
# index, attributes, t0, cpu0, wall s, cpu s, status, error, span id.
# Clocks are binary fractions, so every millisecond figure is exact.
_ORACLE_TID = "0123456789abcdef01234567"


def _oracle_record(records, *, slow=False):
    return TraceRecord(_ORACLE_TID, records, slow=slow, retained_by="error")


def _oracle_primary():
    return _oracle_record([
        ["GET /api/v2/materials/<int:id>", -1, {"method": "GET",
         "status": 500}, 10.0, 1.0, 0.5, 0.25, "error", "http 500",
         "aaaaaaaaaaaaaaaa"],
        ["core.repository.material", 0, {"id": 7}, 10.0625, 1.0, 0.125,
         0.0625, "ok", None, "bbbbbbbbbbbbbbbb"],
        ["db.select", 1, {"table": "materials"}, 10.125, 1.0, 0.03125,
         0.015625, "error",
         "DeadlineExceeded: deadline exceeded before db.select",
         "cccccccccccccccc"],
        ["search.query", 0, {}, 10.25, 1.0, 0.0625, 0.0625, "ok", None,
         "dddddddddddddddd"],
    ], slow=True)


def _oracle_worker():
    # Its root names a span of the primary segment: stitched beneath it.
    return _oracle_record([
        ["job.run", -1, {"kind": "classify",
         "remote_parent": "bbbbbbbbbbbbbbbb"}, 10.1, 2.0, 0.25, 0.125,
         "ok", None, "eeeeeeeeeeeeeeee"],
        ["jobs.classify", 0, {"materials": 3}, 10.15, 2.0, 0.1875, 0.125,
         "ok", None, "ffffffffffffffff"],
    ])


def _oracle_orphan():
    # Its caller's segment was never stored: rendered as unlinked.
    return _oracle_record([
        ["front.read", -1, {"backend": "replica-1",
         "remote_parent": "9999999999999999"}, 10.375, 3.0, 0.015625,
         0.0078125, "ok", None, "1111111111111111"],
    ])


class TestRendererOracle:
    """Exact ``carcs trace`` output for hand-built traces: both render
    modes, pinned byte for byte."""

    def test_render_text_of_a_local_trace(self):
        assert render_text(_oracle_primary()) == "\n".join([
            f"trace {_ORACLE_TID}  status=error  spans=4  "
            "duration=500.000ms  SLOW",
            "- GET /api/v2/materials/<int:id> !  500.000ms "
            "(self 312.500ms, cpu 250.000ms)  [method=GET status=500]",
            "  error: http 500",
            "  - core.repository.material  125.000ms "
            "(self 93.750ms, cpu 62.500ms)  [id=7]",
            "    - db.select !  31.250ms (self 31.250ms, cpu 15.625ms)"
            "  [table=materials]",
            "      error: DeadlineExceeded: deadline exceeded before "
            "db.select",
            "  - search.query  62.500ms (self 62.500ms, cpu 62.500ms)",
        ])

    def test_render_text_keeps_the_remote_parent_attribute(self):
        assert render_text(_oracle_worker()) == "\n".join([
            f"trace {_ORACLE_TID}  status=ok  spans=2  duration=250.000ms",
            "- job.run  250.000ms (self 62.500ms, cpu 125.000ms)"
            "  [kind=classify remote_parent=bbbbbbbbbbbbbbbb]",
            "  - jobs.classify  187.500ms (self 187.500ms, cpu 125.000ms)"
            "  [materials=3]",
        ])

    def test_render_tree_of_a_stitched_payload(self):
        payload = stitch_trace(_ORACLE_TID, [
            ("primary", _oracle_primary().root.as_dict()),
            ("worker", _oracle_worker().root.as_dict()),
            ("replica-1", _oracle_orphan().root.as_dict()),
        ])
        assert render_tree(payload) == "\n".join([
            f"trace {_ORACLE_TID}  spans=7  segments=3  "
            "processes=primary,replica-1,worker",
            "- GET /api/v2/materials/<int:id> ! @primary  500.000ms "
            "(self 312.500ms, cpu 250.000ms)  [method=GET status=500]",
            "  error: http 500",
            "  - core.repository.material  125.000ms "
            "(self 93.750ms, cpu 62.500ms)  [id=7]",
            "    - job.run @worker  250.000ms "
            "(self 62.500ms, cpu 125.000ms)  [kind=classify]",
            "      - jobs.classify  187.500ms "
            "(self 187.500ms, cpu 125.000ms)  [materials=3]",
            "    - db.select !  31.250ms (self 31.250ms, cpu 15.625ms)"
            "  [table=materials]",
            "      error: DeadlineExceeded: deadline exceeded before "
            "db.select",
            "  - search.query  62.500ms (self 62.500ms, cpu 62.500ms)",
            "unlinked segment (caller's segment not retained):",
            "  - front.read @replica-1  15.625ms "
            "(self 15.625ms, cpu 7.812ms)  [backend=replica-1]",
        ])

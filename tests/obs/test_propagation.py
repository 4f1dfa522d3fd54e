"""Cross-process trace context: the traceparent header, multi-segment
retention, and fleet-wide stitching/rendering."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.jobs import JobQueue, run_pending
from repro.obs import (
    MODE_ALL,
    NULL_SPAN,
    REMOTE_PARENT_ATTR,
    TraceStore,
    Tracer,
    current_traceparent,
    format_traceparent,
    parse_traceparent,
    render_tree,
    stitch_trace,
)


def make_tracer(**kwargs):
    kwargs.setdefault("mode", MODE_ALL)
    kwargs.setdefault("sample_every", 1)
    kwargs.setdefault("slow_ms", 1e9)
    return Tracer(TraceStore(capacity=64), **kwargs)


class TestTraceparentHeader:
    def test_format_parse_roundtrip(self):
        header = format_traceparent("deadbeefcafef00d", "12345678")
        assert header == "00-deadbeefcafef00d-12345678-01"
        assert parse_traceparent(header) == ("deadbeefcafef00d", "12345678")

    def test_full_w3c_lengths_accepted(self):
        header = "00-" + "a" * 32 + "-" + "b" * 16 + "-01"
        assert parse_traceparent(header) == ("a" * 32, "b" * 16)

    @pytest.mark.parametrize("bad", [
        None,
        "",
        "not a header",
        "00-deadbeefcafef00d-12345678",          # missing flags
        "00-deadbeefcafef00d-12345678-01-extra",  # too many parts
        "0-deadbeefcafef00d-12345678-01",         # short version
        "00-deadbeef-12345678-01",                # trace id too short
        "00-" + "a" * 33 + "-12345678-01",        # trace id too long
        "00-deadbeefcafef00d-1234-01",            # span id too short
        "00-deadbeefcafef00d-" + "b" * 17 + "-01",
        "00-deadbeefcafeXXXd-12345678-01",        # non-hex
    ])
    def test_malformed_headers_are_rejected(self, bad):
        assert parse_traceparent(bad) is None

    def test_uppercase_hex_is_normalized(self):
        assert parse_traceparent("00-DEADBEEFCAFEF00D-12345678-01") == \
            ("deadbeefcafef00d", "12345678")

    def test_current_traceparent_requires_an_active_trace(self):
        assert current_traceparent() is None
        tracer = make_tracer()
        with tracer.trace("op") as root:
            header = current_traceparent()
            assert header is not None
            trace_id, span_id = parse_traceparent(header)
            assert trace_id == root.trace_id
            assert span_id == root.span_id
        assert current_traceparent() is None

    def test_current_traceparent_names_the_innermost_span(self):
        from repro.obs import span

        tracer = make_tracer()
        with tracer.trace("outer"):
            with span("inner") as child:
                _, span_id = parse_traceparent(current_traceparent())
                assert span_id == child.span_id


class TestAdopt:
    @pytest.mark.parametrize("traceparent,trace_id,attributes", [
        # A parseable context wins over the fallback id, and the remote
        # parent is the root's last attribute.
        ("00-deadbeefcafef00d-12345678-01", "deadbeefcafef00d",
         {"method": "GET", "path": "/x", REMOTE_PARENT_ATTR: "12345678"}),
        # A malformed or absent one falls back to ``trace_id``.
        ("00-deadbeef-12345678-01", "fallback00000001",
         {"method": "GET", "path": "/x"}),
        (None, "fallback00000001", {"method": "GET", "path": "/x"}),
    ], ids=["propagated", "malformed", "absent"])
    def test_root_opens_under_the_adopted_context(self, traceparent,
                                                  trace_id, attributes):
        tracer = make_tracer()
        with tracer.adopt("http.request", traceparent,
                          trace_id="fallback00000001",
                          method="GET", path="/x") as root:
            assert root.trace_id == trace_id
        record = tracer.store.get(trace_id)
        assert record.root.name == "http.request"
        assert list(record.root.attributes.items()) == \
            list(attributes.items())

    def test_adopt_opens_a_fresh_segment_under_an_ambient_trace(self):
        tracer = make_tracer()
        with tracer.trace("outer", trace_id="outer0000000001"):
            with tracer.adopt("hop", None, trace_id="inner0000000001"):
                pass
        assert tracer.store.get("inner0000000001").root.name == "hop"

    def test_tracing_off_returns_the_null_span_without_parsing(
        self, monkeypatch,
    ):
        def parse(value):
            raise AssertionError("traceparent parsed with tracing off")

        monkeypatch.setattr("repro.obs.trace.parse_traceparent", parse)
        tracer = make_tracer(mode="off")
        root = tracer.adopt("http.request", "00-deadbeefcafef00d-12345678-01",
                            trace_id="fallback00000001")
        assert root is NULL_SPAN
        assert tracer.stats()["started"] == 0


class TestTraceStoreSegments:
    def test_same_trace_id_accumulates_segments(self):
        tracer = make_tracer()
        with tracer.trace("request", trace_id="shared-1"):
            pass
        with tracer.trace("job.run", trace_id="shared-1"):
            pass
        segments = tracer.store.segments("shared-1")
        assert [seg.root.name for seg in segments] == ["request", "job.run"]
        # get() keeps the original single-segment view: the first
        # (originating) segment.
        assert tracer.store.get("shared-1").root.name == "request"

    def test_summaries_and_records_flatten_segments(self):
        tracer = make_tracer()
        with tracer.trace("a", trace_id="t1"):
            pass
        with tracer.trace("b", trace_id="t1"):
            pass
        with tracer.trace("c", trace_id="t2"):
            pass
        names = {s["name"] for s in tracer.store.summaries()}
        assert names == {"a", "b", "c"}

    def test_segments_per_trace_are_bounded(self):
        store = TraceStore(capacity=8)
        tracer = Tracer(store, mode=MODE_ALL, sample_every=1, slow_ms=1e9)
        for i in range(TraceStore.MAX_SEGMENTS + 5):
            with tracer.trace(f"seg-{i}", trace_id="hot"):
                pass
        segments = store.segments("hot")
        assert len(segments) == TraceStore.MAX_SEGMENTS
        # Oldest segments dropped, newest kept.
        assert segments[-1].root.name == f"seg-{TraceStore.MAX_SEGMENTS + 4}"

    def test_unknown_trace_has_no_segments(self):
        assert TraceStore().segments("nope") == []


def _tree(name, span_id, children=(), attrs=None, start=0.0):
    return {
        "name": name,
        "span_id": span_id,
        "trace_id": "t",
        "start_ts": start,
        "wall_ms": 1.0,
        "cpu_ms": 0.5,
        "self_ms": 0.5,
        "status": "ok",
        "attributes": dict(attrs or {}),
        "children": list(children),
    }


class TestStitchTrace:
    def test_segments_attach_under_their_remote_parent(self):
        hop = _tree("front.write", "aaaa1111")
        router = _tree("front POST", "r00t0000", children=[hop])
        primary = _tree(
            "POST /api/v2/jobs/classify", "bbbb2222",
            attrs={REMOTE_PARENT_ATTR: "aaaa1111"}, start=1.0,
        )
        stitched = stitch_trace("t", [
            ("router", router), ("primary", primary),
        ])
        assert stitched["root"]["name"] == "front POST"
        assert stitched["processes"] == ["primary", "router"]
        assert stitched["segments"] == 2
        assert stitched["unlinked"] == []
        assert hop["children"][0]["name"] == "POST /api/v2/jobs/classify"
        assert hop["children"][0]["process"] == "primary"
        assert hop["children"][0]["parent_id"] == "aaaa1111"

    def test_job_segment_attaches_transitively(self):
        # router -> primary -> job: the job's remote parent lives inside
        # the primary's segment, which itself attached under the router.
        hop = _tree("front.write", "hop00001")
        router = _tree("front POST", "root0001", children=[hop])
        enqueue = _tree("jobs.enqueue", "enq00001")
        primary = _tree(
            "POST /api/v2/jobs/classify", "pri00001",
            attrs={REMOTE_PARENT_ATTR: "hop00001"}, children=[enqueue],
            start=1.0,
        )
        job = _tree(
            "job.run", "job00001",
            attrs={REMOTE_PARENT_ATTR: "enq00001"}, start=2.0,
        )
        stitched = stitch_trace("t", [
            ("router", router), ("primary", primary), ("primary", job),
        ])
        assert stitched["unlinked"] == []
        assert enqueue["children"][0]["name"] == "job.run"
        assert stitched["spans"] == 5

    def test_unknown_parent_surfaces_as_unlinked(self):
        orphan = _tree(
            "job.run", "job00001",
            attrs={REMOTE_PARENT_ATTR: "gone0000"}, start=1.0,
        )
        root = _tree("GET /x", "root0001")
        stitched = stitch_trace("t", [("node", root), ("node", orphan)])
        assert stitched["root"]["name"] == "GET /x"
        assert [t["name"] for t in stitched["unlinked"]] == ["job.run"]

    def test_mutually_referencing_segments_terminate(self):
        a = _tree("a", "aaaa0001", attrs={REMOTE_PARENT_ATTR: "bbbb0001"})
        b = _tree("b", "bbbb0001", attrs={REMOTE_PARENT_ATTR: "aaaa0001"},
                  start=1.0)
        stitched = stitch_trace("t", [("p1", a), ("p2", b)])
        # One of the two attaches; the cycle guard keeps the other top
        # level instead of looping forever.
        assert stitched["segments"] == 2
        assert stitched["root"] is not None

    def test_self_referential_root_stays_unlinked(self):
        selfie = _tree("a", "aaaa0001",
                       attrs={REMOTE_PARENT_ATTR: "aaaa0001"})
        stitched = stitch_trace("t", [("p", selfie)])
        assert stitched["root"] is None or stitched["root"]["name"] == "a"

    def test_render_tree_labels_processes(self):
        hop = _tree("front.read", "aaaa1111")
        router = _tree("front GET", "r00t0000", children=[hop])
        replica = _tree(
            "GET /api/v2/materials", "bbbb2222",
            attrs={REMOTE_PARENT_ATTR: "aaaa1111"}, start=1.0,
        )
        text = render_tree(stitch_trace("t", [
            ("router", router), ("replica-0", replica),
        ]))
        assert "trace t" in text
        assert "@router" in text
        assert "@replica-0" in text
        assert "front.read" in text
        # The stitching attribute itself is plumbing, not output.
        assert REMOTE_PARENT_ATTR not in text

    def test_render_tree_shows_unlinked_segments(self):
        root = _tree("GET /x", "root0001")
        orphan = _tree("job.run", "job00001",
                       attrs={REMOTE_PARENT_ATTR: "gone0000"}, start=1.0)
        text = render_tree(stitch_trace("t", [
            ("node", root), ("worker", orphan),
        ]))
        assert "unlinked segment" in text
        assert "job.run" in text


class TestJobTraceLinking:
    def test_enqueue_persists_the_traceparent(self):
        tracer = make_tracer()
        queue = JobQueue(Database("link-test"))
        with tracer.trace("POST /jobs", trace_id="beef0001beef0001beef0001") as root:
            job = queue.enqueue("noop", {})
            expected = format_traceparent("beef0001beef0001beef0001", root.span_id)
        assert queue.get(job["id"])["trace_context"] == expected

    def test_enqueue_without_a_trace_stores_nothing(self):
        queue = JobQueue(Database("link-test-2"))
        job = queue.enqueue("noop", {})
        assert queue.get(job["id"])["trace_context"] is None

    def test_job_run_opens_a_segment_in_the_request_trace(self):
        tracer = make_tracer()
        queue = JobQueue(Database("link-test-3"))
        with tracer.trace("POST /jobs", trace_id="beef0002beef0002beef0002") as root:
            queue.enqueue("noop", {})
            enqueue_span = root.span_id
        assert run_pending(queue, {"noop": lambda ctx: "ok"},
                           tracer=tracer) == 1
        segments = tracer.store.segments("beef0002beef0002beef0002")
        assert [seg.root.name for seg in segments] == \
            ["POST /jobs", "job.run"]
        job_root = segments[1].root
        assert job_root.attributes[REMOTE_PARENT_ATTR] == enqueue_span
        assert job_root.attributes["outcome"] == "done"
        assert job_root.attributes["kind"] == "noop"

    def test_failed_job_segment_is_marked_errored(self):
        from repro.jobs import FatalJobError

        tracer = make_tracer()
        queue = JobQueue(Database("link-test-4"), base_backoff=0.0)

        def broken(ctx):
            raise FatalJobError("kaput")

        with tracer.trace("POST /jobs", trace_id="beef0003beef0003beef0003"):
            queue.enqueue("broken", {})
        run_pending(queue, {"broken": broken}, tracer=tracer)
        job_root = tracer.store.segments("beef0003beef0003beef0003")[1].root
        assert job_root.status == "error"
        assert "kaput" in job_root.error
        assert job_root.attributes["outcome"] == "dead"

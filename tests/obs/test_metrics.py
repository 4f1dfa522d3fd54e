"""The observability substrate: metrics math + structured request log."""

import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    RequestLog,
    new_request_id,
)


class TestCounter:
    def test_counts_up(self):
        registry = MetricsRegistry()
        c = registry.counter("events_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("req", route="a").inc()
        registry.counter("req", route="b").inc(2)
        assert registry.counter("req", route="a").value == 1
        assert registry.counter("req", route="b").value == 2

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_concurrent_increments_do_not_lose_counts(self):
        registry = MetricsRegistry()
        c = registry.counter("hot")

        def spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestGauge:
    def test_set_and_add(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.add(-3)
        assert g.value == 7


class TestHistogramBucketMath:
    def test_observations_land_in_correct_buckets(self):
        h = Histogram(buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 2.0, 4.9, 100.0):
            h.observe(v)
        # bounds are inclusive upper edges: 1.0 -> first bucket, 2.0 -> second
        assert h.counts == [2, 2, 1, 1]   # last slot is +inf
        assert h.count == 6
        assert h.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 4.9 + 100.0)

    def test_cumulative_is_monotone_and_ends_at_total(self):
        h = Histogram(buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        cumulative = h.cumulative()
        counts = [n for _, n in cumulative]
        assert counts == sorted(counts)
        assert cumulative[-1] == (float("inf"), 4)

    def test_rejects_empty_or_duplicate_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_default_buckets_are_sorted_and_subsecond_heavy(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert sum(1 for b in DEFAULT_LATENCY_BUCKETS if b < 1.0) >= 8

    def test_export_shape(self):
        registry = MetricsRegistry()
        registry.counter("requests", route="GET /x").inc()
        registry.histogram("latency", route="GET /x").observe(0.003)
        registry.gauge("depth").set(2)
        out = registry.export()
        assert out["counters"]['requests{route="GET /x"}']["value"] == 1
        assert out["gauges"]["depth"]["value"] == 2
        hist = out["histograms"]['latency{route="GET /x"}']
        assert hist["count"] == 1
        assert hist["buckets"][-1]["le"] == "+inf"


class TestRequestLog:
    def test_records_are_structured_and_stamped(self):
        log = RequestLog()
        entry = log.record(request_id="abc", method="GET", status=200)
        assert entry["request_id"] == "abc"
        assert entry["ts"] > 0
        assert log.find("abc")[0]["method"] == "GET"

    def test_ring_bound_and_dropped_counter(self):
        log = RequestLog(capacity=3)
        for i in range(5):
            log.record(request_id=str(i))
        assert len(log) == 3
        assert log.dropped == 2
        assert [bool(log.find(str(i))) for i in range(5)] == [
            False, False, True, True, True,
        ]

    def test_find_by_request_id(self):
        log = RequestLog()
        log.record(request_id="one", status=200)
        log.record(request_id="two", status=500)
        assert log.find("two")[0]["status"] == 500
        assert log.find("nope") == []

    def test_request_ids_are_unique(self):
        ids = {new_request_id() for _ in range(1000)}
        assert len(ids) == 1000

    def test_drops_feed_the_registry_gauge(self):
        log = RequestLog(capacity=2)
        log.metrics = MetricsRegistry()
        for i in range(5):
            log.record(request_id=str(i))
        gauge = log.metrics.gauge("carcs_request_log_dropped")
        assert gauge.value == 3 == log.dropped

    def test_snapshot_carries_loss_accounting(self):
        log = RequestLog(capacity=2)
        for i in range(3):
            log.record(request_id=str(i))
        snap = log.snapshot(n=1)
        assert snap["capacity"] == 2
        assert snap["size"] == 2
        assert snap["dropped"] == 1
        assert [r["request_id"] for r in snap["records"]] == ["2"]

    def test_clear_resets_the_drop_counter(self):
        log = RequestLog(capacity=1)
        log.record(request_id="a")
        log.record(request_id="b")
        log.clear()
        assert log.dropped == 0 and len(log) == 0


class TestPrometheusExposition:
    def test_label_values_are_escaped(self):
        from repro.obs.metrics import escape_label_value

        assert escape_label_value('say "hi"\n\\x') == 'say \\"hi\\"\\n\\\\x'

    def test_exposition_covers_all_kinds(self):
        from repro.obs import render_prometheus

        registry = MetricsRegistry()
        registry.counter("requests_total", route='GET "/x"').inc(3)
        registry.gauge("depth").set(2.5)
        registry.histogram(
            "latency_seconds", buckets=(0.1, 1.0)
        ).observe(0.05)
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE requests_total counter" in lines
        assert 'requests_total{route="GET \\"/x\\""} 3' in lines
        assert "# TYPE depth gauge" in lines
        assert "depth 2.5" in lines
        assert "# TYPE latency_seconds histogram" in lines
        assert 'latency_seconds_bucket{le="0.1"} 1' in lines
        assert 'latency_seconds_bucket{le="1"} 1' in lines
        assert 'latency_seconds_bucket{le="+Inf"} 1' in lines
        assert "latency_seconds_sum 0.05" in lines
        assert "latency_seconds_count 1" in lines
        assert text.endswith("\n")

    def test_type_line_emitted_once_per_metric_name(self):
        from repro.obs import render_prometheus

        registry = MetricsRegistry()
        registry.counter("req_total", route="a").inc()
        registry.counter("req_total", route="b").inc()
        text = render_prometheus(registry)
        assert text.count("# TYPE req_total counter") == 1

"""The observability substrate: metrics math and exposition."""

import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
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

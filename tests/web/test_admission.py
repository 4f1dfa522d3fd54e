"""Admission control: deadlines, per-client rate limits, inflight caps.

The front door must shed with structured backpressure *before* doomed
work reaches the engine — and an armed deadline must propagate through
the trace contextvar so storage-layer work aborts once the client has
given up.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.repository import Repository
from repro.corpus.seed import seed_ontologies
from repro.obs import MetricsRegistry
from repro.obs import trace as _trace
from repro.web import (
    AdmissionMiddleware,
    CarCsApi,
    Client,
    FrontTier,
    LocalBackend,
    Request,
    TokenBucket,
)
from repro.web.api import API_PREFIX, API_V2_PREFIX
from repro.web.http import json_response
from repro.web.middleware import CLIENT_HEADER, DEADLINE_HEADER


def _api(**kwargs) -> CarCsApi:
    repo = Repository()
    seed_ontologies(repo)
    return CarCsApi(repo, **kwargs)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert [bucket.acquire(now=0.0) for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.acquire(now=0.0)
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        # Half a second later exactly one token has accrued.
        assert bucket.acquire(now=0.5) == 0.0
        assert bucket.acquire(now=0.5) > 0.0

    def test_burst_caps_idle_accrual(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.acquire(now=0.0)
        # An hour idle still only holds `burst` tokens.
        assert bucket.acquire(now=3600.0) == 0.0
        assert bucket.acquire(now=3600.0) == 0.0
        assert bucket.acquire(now=3600.0) > 0.0


class TestDeadlines:
    def test_expired_deadline_sheds_before_dispatch(self):
        client = Client(_api(), root="/api/v1")
        response = client.get("/stats", headers={DEADLINE_HEADER: "0"})
        assert response.status == 503
        assert response.headers["retry-after"] == "1"
        assert "deadline" in response.error["message"]

    def test_generous_deadline_admits(self):
        client = Client(_api(), root="/api/v1")
        response = client.get("/stats", headers={DEADLINE_HEADER: "30000"})
        assert response.ok

    def test_malformed_deadline_is_ignored(self):
        client = Client(_api(), root="/api/v1")
        for junk in ("banana", "", "inf", "nan"):
            assert client.get(
                "/stats", headers={DEADLINE_HEADER: junk}
            ).ok

    def test_deadline_exceeded_mid_dispatch_becomes_503(self):
        api = _api()

        def slow(request):
            time.sleep(0.02)
            _trace.check_deadline("slow handler")
            return json_response({"ok": True})

        api.router.add("GET", "/api/v1/slow", slow)
        client = Client(api)
        response = client.get("/api/v1/slow", headers={DEADLINE_HEADER: "5"})
        assert response.status == 503
        assert response.headers["retry-after"] == "1"
        assert api.admission.stats()["shed_deadline"] == 1
        # The deadline contextvar never leaks past the request.
        assert _trace.deadline_remaining() is None

    def test_db_layer_honors_the_deadline(self):
        api = _api()

        def db_write(request):
            time.sleep(0.02)
            # Every traced engine op checks the deadline at entry.
            api.repo.db.insert("authors", name="too-late")
            return json_response({"ok": True})

        api.router.add("GET", "/api/v1/dbwrite", db_write)
        client = Client(api)
        response = client.get(
            "/api/v1/dbwrite", headers={DEADLINE_HEADER: "5"}
        )
        assert response.status == 503
        # The abort happened before the engine touched anything.
        assert api.repo.db.table("authors").find_one(name="too-late") is None


class TestRateLimit:
    def test_per_client_buckets_answer_429_with_retry_after(self):
        client = Client(
            _api(rate_limit=1.0, rate_burst=2.0), root="/api/v1"
        )
        one = {CLIENT_HEADER: "alice"}
        assert client.get("/stats", headers=one).ok
        assert client.get("/stats", headers=one).ok
        limited = client.get("/stats", headers=one)
        assert limited.status == 429
        assert int(limited.headers["retry-after"]) >= 1
        # A different client has its own bucket.
        assert client.get("/stats", headers={CLIENT_HEADER: "bob"}).ok

    def test_rate_limit_off_by_default(self):
        client = Client(_api(), root="/api/v1")
        for _ in range(20):
            assert client.get("/stats").ok

    def test_env_configuration(self, monkeypatch):
        monkeypatch.setenv("CARCS_RATE_LIMIT", "1")
        monkeypatch.setenv("CARCS_RATE_BURST", "1")
        client = Client(_api(), root="/api/v1")
        assert client.get("/stats").ok
        assert client.get("/stats").status == 429

    def test_exempt_paths_never_shed(self):
        client = Client(_api(rate_limit=1.0, rate_burst=1.0), root="/api/v1")
        for _ in range(5):
            assert client.get("/healthz").ok
            assert client.get("/metrics").ok


@pytest.mark.parametrize("prefix", [API_PREFIX, API_V2_PREFIX])
def test_health_and_metrics_are_never_shed_on_either_prefix(prefix):
    client = Client(_api(rate_limit=0.001, rate_burst=1.0), root=prefix)
    assert client.get("/stats").ok
    assert client.get("/stats").status == 429
    for _ in range(3):
        assert client.get("/healthz").ok
        assert client.get("/metrics").ok


class TestInflightCap:
    def test_cap_sheds_the_overload_request(self):
        admission = AdmissionMiddleware(MetricsRegistry(), max_inflight=1)
        entered = threading.Event()
        release = threading.Event()

        def blocked(request):
            entered.set()
            release.wait(timeout=5)
            return json_response({"ok": True})

        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                admission(Request.build("GET", "/x"), blocked)
            )
        )
        thread.start()
        assert entered.wait(timeout=5)
        shed = admission(
            Request.build("GET", "/x"), lambda request: json_response(None)
        )
        release.set()
        thread.join(timeout=5)
        assert shed.status == 503
        assert shed.headers["retry-after"] == "1"
        assert results[0].ok
        stats = admission.stats()
        assert stats["shed_inflight"] == 1
        assert stats["inflight"] == 0


class TestFrontTierPropagation:
    def test_deadline_header_rewritten_to_remaining_budget(self):
        seen = {}

        def backend_app(request):
            seen["deadline"] = request.header(DEADLINE_HEADER)
            return json_response({"ok": True})

        front = FrontTier(LocalBackend("primary", backend_app))
        response = front(Request.build(
            "GET", "/api/v1/stats", headers={DEADLINE_HEADER: "5000"}
        ))
        assert response.ok
        forwarded = float(seen["deadline"])
        assert 0 < forwarded <= 5000

    def test_front_tier_sheds_expired_deadline_without_a_hop(self):
        calls = []

        def backend_app(request):
            calls.append(request.path)
            return json_response({"ok": True})

        front = FrontTier(LocalBackend("primary", backend_app))
        response = front(Request.build(
            "GET", "/api/v1/stats", headers={DEADLINE_HEADER: "-1"}
        ))
        assert response.status == 503
        assert calls == []
        assert front.status()["admission"]["shed_deadline"] == 1

    def test_front_tier_rate_limit(self):
        front = FrontTier(
            LocalBackend("primary", lambda r: json_response({"ok": True})),
            rate_limit=1.0, rate_burst=1.0,
        )
        first = front(Request.build("GET", "/api/v1/stats"))
        second = front(Request.build("GET", "/api/v1/stats"))
        assert first.ok
        assert second.status == 429

    def test_fleet_status_is_exempt(self):
        front = FrontTier(
            LocalBackend("primary", lambda r: json_response({"ok": True})),
            rate_limit=1.0, rate_burst=1.0,
        )
        for _ in range(5):
            assert front(Request.build("GET", "/api/v1/fleet")).ok


def _hammer(app, threads=8, per_thread=5, clients=4):
    """Statuses of ``threads`` x ``per_thread`` concurrent GETs spread
    over ``clients`` client identities."""
    statuses = []
    lock = threading.Lock()
    start = threading.Barrier(threads)

    def work(index):
        start.wait(timeout=10)
        for _ in range(per_thread):
            response = app(Request.build(
                "GET", "/api/v2/stats",
                headers={CLIENT_HEADER: f"client-{index % clients}"},
            ))
            with lock:
                statuses.append(response.status)

    pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=30)
    assert len(statuses) == threads * per_thread
    return statuses


class TestObservability:
    def test_concurrent_sheds_are_tallied_once(self):
        # One token per client and no refill to speak of: each of the 4
        # clients is admitted once, every other request is a 429.
        api = _api(rate_limit=0.001, rate_burst=1.0)
        statuses = _hammer(api)
        assert statuses.count(200) == 4
        limited = statuses.count(429)
        assert limited == len(statuses) - 4
        assert api.admission.stats()["shed_rate"] == limited
        assert api.metrics.counter(
            "carcs_shed_total", status="429", reason="rate-limit",
        ).value == limited

    def test_front_tier_reports_its_own_sheds(self):
        front = FrontTier(
            LocalBackend("primary", lambda r: json_response({"ok": True})),
            rate_limit=0.001, rate_burst=1.0,
        )
        statuses = _hammer(front)
        admission = front.status()["admission"]
        assert admission["shed_rate"] == statuses.count(429) == 36
        assert admission["shed_deadline"] == admission["shed_inflight"] == 0

    def test_admission_stats_export_as_gauges(self):
        api = _api(rate_limit=1.0, rate_burst=1.0)
        client = Client(api, root="/api/v1")
        assert client.get("/stats").ok
        assert client.get("/stats").status == 429
        gauges = client.get("/metrics").payload["metrics"]["gauges"]
        assert gauges["carcs_admission_shed_rate"]["value"] == 1
        assert "carcs_admission_inflight" in gauges

    def test_shed_counter_labels_reason(self):
        api = _api(rate_limit=1.0, rate_burst=1.0)
        client = Client(api, root="/api/v1")
        client.get("/stats")
        client.get("/stats")
        counters = api.metrics.export()["counters"]
        assert any(
            key.startswith("carcs_shed_total") and "rate-limit" in key
            for key in counters
        )

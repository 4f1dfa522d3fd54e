"""The instrumented request pipeline: middleware, envelopes, v1 surface."""

import logging

import pytest

from repro.core.repository import Repository
from repro.corpus.seed import seed_ontologies
from repro.obs import MODE_ALL, MODE_OFF, MetricsRegistry, TraceStore, Tracer
from repro.web import CarCsApi, Client
from repro.web.http import HttpError, Request, json_response
from repro.web.middleware import TelemetryMiddleware, compose


@pytest.fixture()
def api():
    repo = Repository()
    seed_ontologies(repo)
    return CarCsApi(repo)


@pytest.fixture()
def client(api):
    return Client(api, root="/api/v1")


class TestCompose:
    def test_middlewares_wrap_outermost_first(self):
        trace = []

        def make(tag):
            def middleware(request, call_next):
                trace.append(f"{tag}-in")
                response = call_next(request)
                trace.append(f"{tag}-out")
                return response
            return middleware

        handler = compose(
            [make("a"), make("b"), make("c")],
            lambda request: trace.append("endpoint") or json_response(None),
        )
        handler(Request.build("GET", "/x"))
        assert trace == [
            "a-in", "b-in", "c-in", "endpoint", "c-out", "b-out", "a-out",
        ]

    def test_api_chain_order(self, api):
        # The production chain keeps telemetry outermost (sheds and
        # 500s are recorded) and admission above the snapshot step (a
        # shed request never queues on the write lock).
        names = [type(m).__name__ for m in api.middlewares]
        assert names == [
            "TelemetryMiddleware",
            "AdmissionMiddleware",
            "SnapshotMiddleware",
        ]

    def test_read_only_chain_gains_the_refusal_above_the_pin(self):
        from repro.core.repository import Repository
        from repro.web import CarCsApi

        api = CarCsApi(Repository(), read_only=True)
        names = [type(m).__name__ for m in api.middlewares]
        assert names.index("ReadOnlyMiddleware") + 1 == names.index(
            "SnapshotMiddleware"
        )


class TestRequestIds:
    def test_every_response_carries_an_id(self, client):
        first = client.get("/healthz")
        second = client.get("/healthz")
        assert first.headers["x-request-id"]
        assert first.headers["x-request-id"] != second.headers["x-request-id"]

    def test_inbound_id_is_propagated(self, client):
        r = client.get("/healthz", headers={"x-request-id": "proxy-41"})
        assert r.headers["x-request-id"] == "proxy-41"

    def test_error_envelope_carries_the_request_id(self, client):
        r = client.get("/assignments/999999", headers={"x-request-id": "rid-7"})
        assert r.status == 404
        assert r.error == {
            "code": 404,
            "message": "no material with id 999999",
            "request_id": "rid-7",
        }


class TestErrorBoundary:
    def test_uncaught_exception_becomes_clean_500(self, caplog):
        registry = MetricsRegistry()

        def explode(request):
            raise RuntimeError("wires crossed")

        handler = compose(
            [TelemetryMiddleware(Tracer(mode="off"), registry)],
            explode,
        )
        with caplog.at_level(logging.ERROR, logger="repro.web.middleware"):
            response = handler(Request.build("GET", "/x"))
        assert response.status == 500
        assert response.error["message"] == "internal server error"
        request_id = response.error["request_id"]
        assert request_id
        # The internal detail is logged once, naming the request id, and
        # never leaked to the client.
        assert "wires crossed" not in str(response.payload)
        (record,) = caplog.records
        assert request_id in record.getMessage()
        assert record.exc_info[0] is RuntimeError
        assert str(record.exc_info[1]) == "wires crossed"
        assert registry.counter(
            "http_exceptions_total", type="RuntimeError"
        ).value == 1

    def test_exception_detail_lands_on_the_retained_root_span(self):
        # Tracing on: the 500's trace is kept by the error rule, and its
        # root carries the detail the client never sees.
        tracer = Tracer(TraceStore(capacity=4), mode="sampled",
                        sample_every=10**6, slow_ms=1e9)
        with tracer.trace("warm-up"):
            pass  # takes the head-sampled slot

        def explode(request):
            raise KeyError("no such shelf")

        handler = compose(
            [TelemetryMiddleware(tracer, MetricsRegistry())], explode,
        )
        response = handler(Request.build("GET", "/x"))
        assert response.status == 500
        record = tracer.store.get(response.headers["x-request-id"])
        assert record.retained_by == "error"
        assert record.root.attributes["exception"] == \
            "KeyError: 'no such shelf'"
        assert "no such shelf" not in str(response.payload)

    def test_http_error_from_middleware_keeps_its_status(self):
        def reject(request):
            raise HttpError(403, "nope")

        handler = compose(
            [TelemetryMiddleware(Tracer(mode="off"), MetricsRegistry())],
            reject,
        )
        assert handler(Request.build("GET", "/x")).status == 403

    def test_handler_exception_does_not_kill_subsequent_requests(self, api):
        # Register a broken v1 route directly, then hit it over the full
        # pipeline: the 500 must not poison the app for the next request.
        api.router.add(
            "GET", "/api/v1/broken",
            lambda request: (_ for _ in ()).throw(ValueError("boom")),
        )
        client = Client(api, root="/api/v1")
        assert client.get("/broken").status == 500
        assert client.get("/healthz").status == 200


class TestMetricsCollection:
    def test_per_route_counters_and_histograms(self, api, client):
        for _ in range(3):
            assert client.get("/ontologies").ok
        label = "GET /api/v1/ontologies"
        counter = api.metrics.counter(
            "http_requests_total", route=label, status="2xx"
        )
        assert counter.value == 3
        hist = api.metrics.histogram("http_request_seconds", route=label)
        assert hist.count == 3
        assert hist.sum > 0

    def test_status_classes_are_separated(self, api, client):
        client.get("/assignments/424242")  # 404
        label = "GET /api/v1/assignments/<int:id>"
        assert api.metrics.counter(
            "http_requests_total", route=label, status="4xx"
        ).value == 1

    def test_unmatched_paths_share_one_label(self, api, client):
        client.get("/definitely/not/a/route")
        assert api.metrics.counter(
            "http_requests_total", route="GET <unmatched>", status="4xx"
        ).value == 1


class TestMetricsEndpoint:
    def test_exports_route_series_and_repo_counters(self, client):
        assert client.get("/stats").ok
        body = client.get("/metrics").json()
        counters = body["metrics"]["counters"]
        key = 'http_requests_total{route="GET /api/v1/stats",status="2xx"}'
        assert counters[key]["value"] == 1
        hists = body["metrics"]["histograms"]
        assert 'http_request_seconds{route="GET /api/v1/stats"}' in hists
        gauges = body["metrics"]["gauges"]
        # db/cache counters from Repository.stats() surface as gauges.
        assert "carcs_version" in gauges
        assert "carcs_cache_hits" in gauges
        assert gauges["carcs_materials"]["value"] == 0

    def test_metrics_never_304(self, client):
        first = client.get("/metrics")
        assert "etag" not in first.headers
        again = client.get("/metrics", headers={"if-none-match": "*"})
        assert again.status == 200

    def test_healthz(self, client):
        body = client.get("/healthz").json()
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0
        assert body["version"] >= 0


class TestVersionedSurface:
    def test_index_lists_the_route_table(self, client):
        body = client.get("/").json()
        assert body["api_version"] == "v1"
        paths = {(r["method"], r["path"]) for r in body["routes"]}
        assert ("GET", "/api/v1/coverage") in paths
        assert ("POST", "/api/v1/assignments") in paths
        assert ("GET", "/api/v1/metrics") in paths
        # The v1 index lists the v1 routes only, never the v2 ones.
        assert all(p.startswith("/api/v1") for _, p in paths)

    def test_v1_routes_are_not_deprecated(self, client):
        r = client.get("/ontologies")
        assert r.ok
        assert "deprecation" not in r.headers

    def test_typed_params_reach_handlers_as_ints(self, client):
        # A non-numeric id never matches the <int:id> route at all.
        assert client.get("/assignments/abc").status == 404
        r = client.get("/assignments/1")
        assert r.status == 404  # empty repo, but the route *did* match
        assert "no material with id 1" in r.error["message"]


# One request, one telemetry event: each case drives a full CarCsApi and
# pins what the node records about the measured request.  Columns:
# case id, extra CarCsApi options, request headers, expected status,
# metrics route label, response header order.
_TELEMETRY_CASES = [
    ("200", {}, "/api/v2/stats", {}, 200, "GET /api/v2/stats",
     ["content-type", "etag", "x-carcs-version", "x-trace-id",
      "x-request-id"]),
    # The validator check runs before routing, so a 304 carries no route.
    ("304", {}, "/api/v2/stats", {"if-none-match": '"carcs-v{version}"'},
     304, "GET <unmatched>",
     ["etag", "x-carcs-version", "x-trace-id", "x-request-id"]),
    ("404", {}, "/api/v2/no/such/route", {}, 404, "GET <unmatched>",
     ["content-type", "x-carcs-version", "x-trace-id", "x-request-id"]),
    # Shed by admission: no route, and no snapshot version either.
    ("429", {"rate_limit": 0.001, "rate_burst": 1}, "/api/v2/stats", {},
     429, "GET <unmatched>",
     ["content-type", "retry-after", "x-trace-id", "x-request-id"]),
    ("500", {}, "/api/v2/broken", {}, 500, "GET /api/v2/broken",
     ["content-type", "x-trace-id", "x-request-id"]),
]


def _http_series(api):
    """``{(series, route, status): count}`` for the two http_* series."""
    out = {}
    for name, labels, metric in api.metrics.series():
        labels = dict(labels)
        if name == "http_requests_total":
            out[name, labels["route"], labels["status"]] = metric.value
        elif name == "http_request_seconds":
            out[name, labels["route"], None] = metric.count
    return out


class _CountingRegistry(MetricsRegistry):
    """Records the series name of every get-or-create call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def _get_or_create(self, name, labels, factory, kind):
        self.calls.append(name)
        return super()._get_or_create(name, labels, factory, kind)


class TestOneTelemetryEventPerRequest:
    @pytest.mark.parametrize("mode", [MODE_OFF, MODE_ALL])
    def test_a_request_touches_the_registry_for_http_series_only(self, mode):
        registry = _CountingRegistry()
        tracer = Tracer(TraceStore(capacity=16), mode=mode,
                        sample_every=1, slow_ms=1e9)
        api = CarCsApi(Repository(), metrics=registry, tracer=tracer)
        registry.calls.clear()
        response = api(Request.build("GET", "/api/v2/stats"))
        assert response.status == 200
        assert sorted(registry.calls) == [
            "http_request_seconds", "http_requests_total",
        ]

    @pytest.mark.parametrize(
        "options,path,headers,status,route,header_order",
        [case[1:] for case in _TELEMETRY_CASES],
        ids=[case[0] for case in _TELEMETRY_CASES],
    )
    def test_request_is_recorded_once(self, options, path, headers, status,
                                      route, header_order):
        repo = Repository()
        tracer = Tracer(TraceStore(capacity=16), mode=MODE_ALL,
                        sample_every=1, slow_ms=1e9)
        api = CarCsApi(repo, tracer=tracer, **options)
        api.router.add(
            "GET", "/api/v2/broken",
            lambda request: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        # A warm-up request: it drains the rate-limited client's only
        # token, and every case measures deltas past it.
        api(Request.build("GET", "/api/v2/stats"))
        before = _http_series(api)

        headers = {k: v.format(version=repo.version)
                   for k, v in headers.items()}
        response = api(Request.build("GET", path, headers=headers))

        assert response.status == status
        assert list(response.headers) == header_order
        request_id = response.headers["x-request-id"]
        assert response.headers["x-trace-id"] == request_id

        after = _http_series(api)
        delta = {key: value - before.get(key, 0)
                 for key, value in after.items()
                 if value != before.get(key, 0)}
        assert delta == {
            ("http_requests_total", route, f"{status // 100}xx"): 1,
            ("http_request_seconds", route, None): 1,
        }

        root = tracer.store.get(request_id).root
        assert root.name == route
        assert root.attributes["status"] == status
        if status >= 500:
            assert (root.status, root.error) == ("error", f"http {status}")
        else:
            assert (root.status, root.error) == ("ok", None)

"""The CAR-CS RESTful API: the application object and its route table.

Mirrors the resources the paper's prototype exposes at
``cs-materials.herokuapp.com``: material CRUD + classification editing
(Figure 1), ontology browsing with phrase search (Figure 1b), the
coverage resource behind Figure 2, and the similarity resource behind
Figure 3 — plus gap analysis and classification recommendation.

Each resource has one handler, in :mod:`repro.web.v2`, served under
``/api/v2``.  The older ``/api/v1`` surface is data, not code:
:data:`V1_ROUTES` binds each v1 path to its v2 handler, through a small
payload adapter where the v1 shape differs.  Every v1 response carries
a ``Sunset`` header.  The operational endpoints
(:data:`OPS_SUFFIXES`) answer identically on both prefixes.  All
requests flow through the three-step middleware chain in
:mod:`repro.web.middleware`: telemetry (request ids, the root span, the
500 boundary and the ``http_*`` metrics), admission control, and the
snapshot step (the MVCC pin for reads or the write lock for mutations,
conditional GET, and the version stamp).
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.core.repository import Repository
from repro.jobs import JobQueue, WorkerPool, default_handlers
from repro.obs import (
    MetricsRegistry,
    SloMonitor,
    Tracer,
    collect_runtime_metrics,
    get_tracer,
    render_prometheus,
)

from .http import (
    HttpError,
    Request,
    Response,
    json_response,
    paginated,
    text_response,
)
from .middleware import (
    AdmissionMiddleware,
    ReadOnlyMiddleware,
    SnapshotMiddleware,
    TelemetryMiddleware,
    compose,
)
from .router import Handler, Router
from .v2 import register_v2

#: The deprecated v1 prefix — served as a compatibility shim.
API_PREFIX = "/api/v1"

#: The current, resource-oriented surface (see :mod:`repro.web.v2`).
API_V2_PREFIX = "/api/v2"

#: RFC 8594 ``Sunset`` date stamped on every v1 response: the v1 shim
#: is scheduled to disappear; ``/api/v2`` is the successor.
V1_SUNSET = "Wed, 30 Jun 2027 00:00:00 GMT"

#: Operational endpoints that admission never sheds: operators need
#: them most when the node is overloaded.
_UNSHED_OPS = ("/metrics", "/healthz")

#: Operational endpoints, served by one handler on both prefixes.  They
#: describe the process rather than the repository, so they are exempt
#: from the version-derived ETag and never 304; a suffix also covers
#: nested paths (``/traces`` exempts ``/traces/<id>``).
OPS_SUFFIXES = _UNSHED_OPS + ("/traces", "/replication", "/slo")


def _on_both_prefixes(suffixes: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(
        prefix + suffix
        for prefix in (API_PREFIX, API_V2_PREFIX) for suffix in suffixes
    )


UNCONDITIONAL_PATHS = _on_both_prefixes(OPS_SUFFIXES)
ADMISSION_EXEMPT_PATHS = _on_both_prefixes(_UNSHED_OPS)
_UNCONDITIONAL_TREES = tuple(path + "/" for path in UNCONDITIONAL_PATHS)


def is_unconditional(path: str) -> bool:
    """The one ETag-exemption rule, shared by the snapshot middleware
    and the API docs: an unconditional path or any path under one."""
    return (path + "/").startswith(_UNCONDITIONAL_TREES)


# v1 payload adapters: each wraps a v2 handler and covers one real
# difference between the two shapes.

def _offset_pages(handler: Handler) -> Handler:
    """v1 lists page by ``limit``/``offset`` instead of a cursor."""
    return lambda request: handler(request, page=paginated)


def _offset_pages_without_kind(handler: Handler) -> Handler:
    """Offset pages whose items carry no ``kind`` (the v1 material list)."""

    def page(items: list, request: Request, *, default_limit: int,
             item: Callable[[Any], dict[str, Any]]) -> dict[str, Any]:
        def without_kind(entry: Any) -> dict[str, Any]:
            shaped = item(entry)
            del shaped["kind"]
            return shaped

        return paginated(items, request, default_limit=default_limit,
                         item=without_kind)

    return lambda request: handler(request, page=page)


def _unpaged_ontologies(handler: Handler) -> Handler:
    """v1 lists every ontology at once, under ``ontologies``."""

    def unpaged(items: list, request: Request, *,
                default_limit: int) -> dict[str, Any]:
        return {"ontologies": items}

    return lambda request: handler(request, page=unpaged)


def _without_location(handler: Handler) -> Handler:
    """v1 creation answers no ``Location`` header."""

    def adapted(request: Request) -> Response:
        response = handler(request)
        response.headers.pop("location", None)
        return response

    return adapted


Adapter = Callable[[Handler], Handler]

#: The v1 shim as data: (method, v1 path, v2 path, payload adapter).
#: Each row binds the v2 handler under ``/api/v1``, with ``Sunset``.
V1_ROUTES: tuple[tuple[str, str, str, Adapter | None], ...] = (
    ("GET", "/assignments", "/materials", _offset_pages_without_kind),
    ("GET", "/search", "/search", _offset_pages),
    ("GET", "/assignments/<int:id>/similar", "/materials/<int:id>/similar",
     None),
    ("POST", "/assignments", "/materials", _without_location),
    ("GET", "/assignments/<int:id>", "/materials/<int:id>", None),
    ("PATCH", "/assignments/<int:id>", "/materials/<int:id>", None),
    ("DELETE", "/assignments/<int:id>", "/materials/<int:id>", None),
    ("POST", "/assignments/<int:id>/classifications",
     "/materials/<int:id>/classifications", None),
    ("DELETE", "/assignments/<int:id>/classifications",
     "/materials/<int:id>/classifications", None),
    ("GET", "/ontologies", "/ontologies", _unpaged_ontologies),
    ("GET", "/ontologies/<name>/entries", "/ontologies/<name>/entries",
     _offset_pages),
    ("GET", "/coverage", "/coverage", None),
    ("GET", "/similarity", "/similarity", None),
    ("GET", "/gaps", "/gaps", None),
    ("POST", "/recommend", "/recommendations", None),
    ("GET", "/assignments/<int:id>/variants", "/materials/<int:id>/variants",
     None),
    ("GET", "/assignments/<int:id>/lint", "/materials/<int:id>/lint", None),
    ("GET", "/plan", "/plan", None),
    ("GET", "/stats", "/stats", None),
)


class CarCsApi:
    """Application object: a middleware pipeline around a routed repository.

    Every successful GET carries an ``ETag`` derived from the repository's
    mutation version; a GET with a matching ``If-None-Match`` validator
    short-circuits to an empty ``304 Not Modified`` *before* dispatch, so
    HTTP clients polling ``/api/v2/coverage`` or ``/api/v2/similarity``
    between mutations cost neither recomputation nor payload bytes.
    """

    def __init__(
        self,
        repo: Repository,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        replication: Any = None,
        read_only: bool = False,
        primary_url: str = "",
        queue: JobQueue | None = None,
        workers: int = 0,
        max_queued_jobs: int = 1_000,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        max_inflight: int | None = None,
    ) -> None:
        self.repo = repo
        # A PrimaryShipper or ReplicaApplier (anything with .status());
        # None on a standalone node.  Surfaces at /api/v2/replication
        # and as carcs_replication_* gauges.
        self.replication = replication
        self.read_only = read_only
        self.primary_url = primary_url
        self.router = Router()
        # The durable job queue backing /api/v2/jobs.  A replica must
        # not create the _jobs table locally (its state comes solely
        # from the primary's frame stream), so it gets a read-only view
        # that activates once the primary ships the table.
        self.queue = queue if queue is not None else JobQueue(
            repo.db, create=not read_only, max_queued=max_queued_jobs,
        )
        self.job_handlers = default_handlers(repo)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._search = repo.search_engine()
        # Index-size gauges, rebuild counters, the search latency
        # histogram and per-span duration histograms all land in the
        # same registry /api/v2/metrics exports.
        self._search.metrics = self.metrics
        self.tracer.registry = self.metrics
        # SLO burn rates derive from the same http_* series the telemetry
        # middleware feeds; the monitor snapshots them on read.
        self.slo = SloMonitor(self.metrics)
        self._started = time.monotonic()
        self._register()
        # In-process worker pool draining the queue beside the server
        # (``carcs serve --workers N``); 0 = external workers only.
        self.workers: WorkerPool | None = None
        if workers > 0 and not read_only:
            self.workers = WorkerPool(
                self.queue, self.job_handlers,
                size=workers, metrics=self.metrics, tracer=self.tracer,
                name="api",
            ).start()
        # Admission sits below telemetry (sheds get request ids,
        # metrics and trace spans) but above ReadOnly/Snapshot: a
        # shed request must never queue on the database write lock.
        self.admission = AdmissionMiddleware(
            self.metrics,
            rate_limit=rate_limit,
            rate_burst=rate_burst,
            max_inflight=max_inflight,
            exempt=ADMISSION_EXEMPT_PATHS,
        )
        self.middlewares = [
            TelemetryMiddleware(self.tracer, self.metrics),
            self.admission,
            *([ReadOnlyMiddleware(primary_url)] if read_only else []),
            SnapshotMiddleware(repo.db, is_unconditional),
        ]
        self._pipeline = compose(self.middlewares, self.router.dispatch)

    def close(self) -> None:
        """Stop the in-process worker pool (if one was started)."""
        if self.workers is not None:
            self.workers.stop()
            self.workers = None

    def _replication_status(self) -> dict[str, Any]:
        if self.replication is None:
            return {"role": "standalone", "version": self.repo.version}
        return self.replication.status()

    def __call__(self, request: Request) -> Response:
        return self._pipeline(request)

    # ------------------------------------------------------------ routes

    def _register(self) -> None:
        """Mount every route.  All of ``/api/v2`` goes first, so a v2
        request never scans the v1 table; then the v1 index, the ops
        endpoints again under ``/api/v1``, and :data:`V1_ROUTES`."""
        router = self.router

        def healthz(request: Request) -> Response:
            return json_response({
                "status": "ok",
                "version": self.repo.version,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
            })

        def metrics(request: Request) -> Response:
            # Mirror the repository/cache counters into gauges at scrape
            # time so one export carries the whole picture: per-route
            # request counts, latency histograms, db versions, cache
            # hits/misses, tracer retention counters.
            for key, value in self.repo.stats().items():
                self.metrics.gauge(f"carcs_{key}").set(value)
            self.metrics.gauge("carcs_uptime_seconds").set(
                round(time.monotonic() - self._started, 3)
            )
            for key, value in self.tracer.stats().items():
                self.metrics.gauge(f"carcs_traces_{key}").set(value)
            # Admission-control counters: in-flight level, tracked
            # client buckets, and shed totals by cause.
            for key, value in self.admission.stats().items():
                self.metrics.gauge(f"carcs_admission_{key}").set(value)
            # Replication lag/offset gauges (numbers only; booleans such
            # as `connected` export as 0/1, strings stay JSON-only).
            for key, value in self._replication_status().items():
                if isinstance(value, bool):
                    value = int(value)
                if isinstance(value, (int, float)):
                    self.metrics.gauge(f"carcs_replication_{key}").set(value)
            # Queue depth by job state (empty on a replica until the
            # primary ships the _jobs table).
            for state, value in self.queue.counts().items():
                self.metrics.gauge("carcs_jobs", state=state).set(value)
            # Process runtime gauges (build info, uptime, RSS, fds,
            # threads) and the carcs_slo_* target/ratio/burn gauges.
            collect_runtime_metrics(self.metrics)
            self.slo.export()
            if request.query_one("format") == "prometheus":
                return text_response(
                    render_prometheus(self.metrics),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            return json_response({
                "metrics": self.metrics.export(),
                # span name -> trace id of a recent retained trace
                # containing it: the histogram↔trace cross-reference.
                "exemplars": self.tracer.exemplars(),
            })

        def replication_status(request: Request) -> Response:
            return json_response(self._replication_status())

        def slo(request: Request) -> Response:
            # One fetch carries everything `carcs top` renders per
            # member: burn rates plus queue depth and replication lag.
            payload = self.slo.report()
            payload["jobs"] = self.queue.counts()
            payload["replication"] = self._replication_status()
            payload["uptime_seconds"] = round(
                time.monotonic() - self._started, 3
            )
            return json_response(payload)

        def list_traces(request: Request) -> Response:
            summaries = self.tracer.store.summaries()
            status = request.query_one("status")
            if status:
                summaries = [s for s in summaries if s["status"] == status]
            payload = paginated(summaries, request, default_limit=20)
            payload["tracer"] = self.tracer.stats()
            return json_response(payload)

        def get_trace(request: Request) -> Response:
            trace_id = request.params["trace_id"]
            record = self.tracer.store.get(trace_id)
            if record is None:
                raise HttpError(
                    404,
                    f"no retained trace {trace_id!r} (sampled out, evicted, "
                    "or never started)",
                )
            payload = record.as_dict()
            # All local segments sharing this trace id (a request and
            # the job it enqueued can both live in this process) — the
            # fleet stitcher consumes these.
            payload["segments"] = [
                seg.root.as_dict()
                for seg in self.tracer.store.segments(trace_id)
            ]
            return json_response(payload)

        ops = [
            ("/healthz", healthz), ("/metrics", metrics),
            ("/replication", replication_status), ("/slo", slo),
            ("/traces", list_traces), ("/traces/<trace_id>", get_trace),
        ]
        for path, handler in ops:
            router.add("GET", API_V2_PREFIX + path, handler)
        register_v2(self)

        @router.route("GET", API_PREFIX, sunset=V1_SUNSET)
        def api_index(request: Request) -> Response:
            return json_response({
                "service": "carcs",
                "api_version": "v1",
                "successor": API_V2_PREFIX,
                "sunset": V1_SUNSET,
                "routes": [
                    {"method": r.method, "path": r.pattern}
                    for r in router.routes()
                    if r.pattern.startswith(API_PREFIX)
                ],
            })

        for path, handler in ops:
            router.add("GET", API_PREFIX + path, handler, sunset=V1_SUNSET)
        v2_handlers = {(r.method, r.pattern): r.handler for r in router.routes()}
        for method, v1_path, v2_path, adapt in V1_ROUTES:
            handler = v2_handlers[method, API_V2_PREFIX + v2_path]
            if adapt is not None:
                handler = adapt(handler)
            router.add(method, API_PREFIX + v1_path, handler, sunset=V1_SUNSET)

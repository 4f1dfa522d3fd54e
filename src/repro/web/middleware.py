"""The request pipeline: composable middleware around router dispatch.

``CarCsApi.__call__`` used to inline its pre-dispatch logic (conditional
GET); everything cross-cutting now lives here as middleware — small
callables of ``(request, call_next) -> response`` composed into one
handler.  The production chain, outermost first:

1. :class:`RequestIdMiddleware` — stamps a per-request id (honouring an
   inbound ``X-Request-Id``), echoes it as a response header, and fills
   it into any error envelope produced further down.
2. :class:`TracingMiddleware` — opens the root span of the request's
   trace (the inbound ``traceparent`` context when a proxied hop
   carries one, else trace id == request id) and stamps ``X-Trace-Id``;
   every layer below contributes child spans through the ambient
   context.
3. :class:`MetricsMiddleware` — times the whole dispatch; per-route
   request counters by status class + latency histograms.
4. :class:`LoggingMiddleware` — one structured record per request.
5. :class:`ErrorMiddleware` — converts uncaught exceptions into clean
   ``500`` envelopes instead of killing the server thread.
6. :class:`SnapshotMiddleware` — storage concurrency: GETs pin the
   current MVCC snapshot (no lock at all) for the whole dispatch;
   mutating methods take the exclusive write lock, which only
   serializes writers against each other.
7. :class:`VersionHeaderMiddleware` — stamps the served database
   version (``x-carcs-version``, the replication offset) on every
   response, 304s included.
8. :class:`ConditionalGetMiddleware` — ETag / If-None-Match 304
   short-circuit (inside the pin, so the version read is consistent).

Replica nodes additionally run :class:`ReadOnlyMiddleware` above the
snapshot middleware, refusing local mutations with 403 and pointing at
the primary.

Ordering matters: metrics/logging sit outside the error boundary so
500s are counted and logged; the snapshot pin sits outside the
conditional-GET check so the ETag comparison and the dispatch it
guards see one repository version, and the version stamp sits between
them so reads report their pinned version while 304s still carry it.
Tracing sits directly under the request-id stamp (the trace reuses
that id) and above everything else so the root span's wall time covers
the full dispatch including write lock waits.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import OrderedDict
from typing import Callable, Iterable, Sequence

from repro.obs import MetricsRegistry, RequestLog, Tracer, new_request_id
from repro.obs import trace as _trace

from .http import (
    HttpError,
    Request,
    Response,
    error_response,
    etag_matches,
    not_modified,
)

Handler = Callable[[Request], Response]
Middleware = Callable[[Request, Handler], Response]

#: Route label used when no route matched (keeps metric cardinality
#: bounded — unmatched paths are attacker-controlled strings).
UNMATCHED = "<unmatched>"


def backpressure_response(
    status: int,
    message: str,
    request_id: str = "",
    *,
    retry_after: int = 1,
    metrics: MetricsRegistry | None = None,
    reason: str = "overload",
) -> Response:
    """The one way CAR-CS sheds load.

    Every "come back later" answer — the front tier's primary-outage
    503s and the job queue's saturation 429 — goes through here, so the
    ``Retry-After`` header, the uniform error envelope and the
    ``carcs_shed_total`` counter can never drift apart again.
    """
    response = error_response(status, message, request_id)
    response.headers["retry-after"] = str(retry_after)
    if metrics is not None:
        metrics.counter(
            "carcs_shed_total", status=str(status), reason=reason,
        ).inc()
    return response


def compose(middlewares: Sequence[Middleware], endpoint: Handler) -> Handler:
    """Fold ``middlewares`` (outermost first) around ``endpoint``."""
    handler = endpoint
    for middleware in reversed(middlewares):
        def handler(request, _mw=middleware, _next=handler):
            return _mw(request, _next)
    return handler


def route_label(request: Request) -> str:
    """Low-cardinality metrics label: ``"GET /api/v1/assignments/<int:id>"``."""
    return f"{request.method} {request.route_pattern or UNMATCHED}"


# -- admission control ------------------------------------------------------

#: Client-supplied request deadline, in milliseconds of remaining budget
#: (not a wall-clock instant, so clock skew between hops is irrelevant).
#: The front tier rewrites it to the *remaining* budget before each
#: proxied hop.
DEADLINE_HEADER = "x-carcs-deadline-ms"

#: Explicit client identity for per-client rate limiting.  Falls back to
#: the session cookie header, then the standard proxy header, then one
#: shared anonymous bucket.
CLIENT_HEADER = "x-carcs-client"

ENV_RATE_LIMIT = "CARCS_RATE_LIMIT"
ENV_RATE_BURST = "CARCS_RATE_BURST"
ENV_MAX_INFLIGHT = "CARCS_MAX_INFLIGHT"

#: Distinct per-client buckets retained; a rotating-identity client
#: cycles through the shared LRU instead of growing it without bound.
MAX_TRACKED_CLIENTS = 10_000


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    :meth:`acquire` is O(1) and lock-free (callers hold the admission
    lock); it returns 0.0 on admit or the seconds until the next token
    otherwise — which becomes the ``Retry-After`` hint, so a limited
    client is told exactly when trying again can succeed.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float,
                 now: float | None = None) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = time.monotonic() if now is None else now

    def acquire(self, now: float | None = None) -> float:
        if now is None:
            now = time.monotonic()
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class AdmissionMiddleware:
    """The front door: rate limits, concurrency caps, request deadlines.

    Runs *under* the error boundary (sheds are counted, logged and
    traced like any response) and *above* the snapshot middleware — a
    request this layer refuses never touches the storage engine and,
    crucially, never queues on the write lock.  Three independent
    checks, cheapest first:

    1. **Deadline** (always on): ``x-carcs-deadline-ms`` holds the
       client's remaining budget in milliseconds.  Already expired →
       immediate 503 (reason ``deadline``).  Otherwise the deadline is
       armed in the trace contextvar for the whole dispatch, so the db
       layer, planner scan strides and block page-ins abort work the
       client has given up on; the abort surfaces as the same 503.
    2. **Per-client token bucket** (on when ``rate_limit`` or
       ``CARCS_RATE_LIMIT`` is set): identity from ``x-carcs-client``,
       else the session header, else ``x-forwarded-for``, else one
       shared anonymous bucket; over rate → 429 (reason ``rate-limit``)
       with ``Retry-After`` computed from the bucket's actual refill.
    3. **Inflight cap** (on when ``max_inflight`` or
       ``CARCS_MAX_INFLIGHT`` is set): more concurrent requests than
       the cap → 503 (reason ``overload``) rather than a queue that
       grows until every request times out.

    Every refusal goes through :func:`backpressure_response` — one
    envelope, one ``Retry-After`` header, one ``carcs_shed_total``
    counter, exactly like the front tier's primary-outage 503s and the
    job queue's saturation 429s.  Requests for an ``exempt`` path skip
    all three checks (the API exempts its health and metrics endpoints,
    :data:`repro.web.api.ADMISSION_EXEMPT_PATHS`).
    """

    def __init__(self, metrics: MetricsRegistry | None = None, *,
                 rate_limit: float | None = None,
                 rate_burst: float | None = None,
                 max_inflight: int | None = None,
                 exempt: Iterable[str] = ()) -> None:
        self.metrics = metrics
        self.rate_limit = (
            rate_limit if rate_limit else _env_float(ENV_RATE_LIMIT)
        )
        burst = rate_burst if rate_burst else _env_float(ENV_RATE_BURST)
        self.rate_burst = burst if burst else (
            max(1.0, self.rate_limit) if self.rate_limit else 1.0
        )
        self.max_inflight = (
            max_inflight if max_inflight else _env_int(ENV_MAX_INFLIGHT)
        )
        self.exempt = frozenset(exempt)
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._inflight = 0
        self.shed_deadline = 0
        self.shed_rate = 0
        self.shed_inflight = 0

    # -- helpers -----------------------------------------------------------

    def _client_id(self, request: Request) -> str:
        return (
            request.header(CLIENT_HEADER)
            or request.header("x-carcs-session")
            or request.header("x-forwarded-for")
            or "anonymous"
        )

    @staticmethod
    def parse_deadline(raw: str | None) -> float | None:
        """Remaining budget in *seconds* from the header value, or
        ``None`` when absent/malformed (a garbage value from an
        arbitrary client must never break dispatch)."""
        if not raw:
            return None
        try:
            ms = float(raw)
        except ValueError:
            return None
        if not math.isfinite(ms):
            return None
        return ms / 1e3

    def _over_rate(self, request: Request) -> float:
        """0.0 = admitted; else seconds until this client's next token."""
        if self.rate_limit is None:
            return 0.0
        client = self._client_id(request)
        with self._lock:
            bucket = self._buckets.pop(client, None)
            if bucket is None:
                bucket = TokenBucket(self.rate_limit, self.rate_burst)
            self._buckets[client] = bucket
            while len(self._buckets) > MAX_TRACKED_CLIENTS:
                self._buckets.popitem(last=False)
            return bucket.acquire()

    def _shed(self, request: Request, status: int, message: str, *,
              retry_after: int, reason: str) -> Response:
        return backpressure_response(
            status, message, request.request_id,
            retry_after=retry_after, metrics=self.metrics, reason=reason,
        )

    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "inflight": self._inflight,
                "tracked_clients": len(self._buckets),
                "shed_deadline": self.shed_deadline,
                "shed_rate": self.shed_rate,
                "shed_inflight": self.shed_inflight,
            }

    # -- the middleware ----------------------------------------------------

    def __call__(self, request: Request, call_next: Handler) -> Response:
        if request.path in self.exempt:
            return call_next(request)

        budget = self.parse_deadline(request.header(DEADLINE_HEADER))
        if budget is not None and budget <= 0:
            self.shed_deadline += 1
            return self._shed(
                request, 503, "request deadline already expired",
                retry_after=1, reason="deadline",
            )

        wait = self._over_rate(request)
        if wait > 0:
            self.shed_rate += 1
            return self._shed(
                request, 429, "client request rate exceeded",
                retry_after=max(1, math.ceil(wait)), reason="rate-limit",
            )

        if self.max_inflight is not None:
            with self._lock:
                if self._inflight >= self.max_inflight:
                    self.shed_inflight += 1
                    over = True
                else:
                    self._inflight += 1
                    over = False
            if over:
                return self._shed(
                    request, 503, "server is at its concurrency limit",
                    retry_after=1, reason="overload",
                )
        else:
            with self._lock:
                self._inflight += 1
        if self.metrics is not None:
            self.metrics.gauge("carcs_inflight_requests").set(
                self.inflight()
            )

        token = _trace.set_deadline(budget) if budget is not None else None
        try:
            return call_next(request)
        except _trace.DeadlineExceeded as exc:
            # Work the deadline cancelled mid-flight: same shed shape as
            # a pre-expired deadline, so clients handle one contract.
            self.shed_deadline += 1
            return self._shed(
                request, 503, str(exc), retry_after=1, reason="deadline",
            )
        finally:
            if token is not None:
                _trace.clear_deadline(token)
            with self._lock:
                self._inflight -= 1
            if self.metrics is not None:
                self.metrics.gauge("carcs_inflight_requests").set(
                    self.inflight()
                )


class RequestIdMiddleware:
    """Stamp/propagate request ids and surface them everywhere."""

    def __call__(self, request: Request, call_next: Handler) -> Response:
        request.request_id = (
            request.header("x-request-id") or new_request_id()
        )
        response = call_next(request)
        response.headers.setdefault("x-request-id", request.request_id)
        envelope = response.error
        if envelope is not None and not envelope.get("request_id"):
            envelope["request_id"] = request.request_id
        return response


class TracingMiddleware:
    """Open the per-request root span; everything below adds children.

    An inbound ``traceparent`` header (stamped by the front tier on
    every proxied hop, or by any instrumented client) wins: the root
    opens under the *propagated* trace id with a ``remote_parent``
    attribute naming the caller's span, which is what lets the fleet
    stitcher hang this process's segment under the right hop.  Without
    one, the trace id reuses the request id (stamped by the middleware
    above us), so one identifier correlates the response headers, the
    request log and the stored trace.  When tracing is off this
    middleware is a plain pass-through — no span objects, no
    context-var writes.

    The root span is named after the *matched route* (low cardinality),
    which the router only knows after dispatch — so it opens under a
    placeholder name and is renamed on the way out.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __call__(self, request: Request, call_next: Handler) -> Response:
        if not self.tracer.enabled:
            return call_next(request)
        context = _trace.parse_traceparent(
            request.header(_trace.TRACEPARENT_HEADER)
        )
        if context is not None:
            trace_id, parent_span_id = context
            link = {_trace.REMOTE_PARENT_ATTR: parent_span_id}
        else:
            trace_id = request.request_id or None
            link = {}
        with self.tracer.trace(
            "http.request",
            trace_id=trace_id,
            fresh=True,
            method=request.method,
            path=request.path,
            **link,
        ) as root:
            response = call_next(request)
            root.name = route_label(request)
            root.set(status=response.status)
            if response.status >= 500:
                root.mark_error(f"http {response.status}")
            response.headers.setdefault("x-trace-id", root.trace_id)
            return response


class MetricsMiddleware:
    """Per-route request counters (by status class) + latency histograms."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def __call__(self, request: Request, call_next: Handler) -> Response:
        start = time.perf_counter()
        try:
            response = call_next(request)
        except BaseException:
            # Only reachable if no error boundary sits below us; count the
            # blow-up before letting it propagate.
            self._record(request, 500, time.perf_counter() - start)
            raise
        self._record(request, response.status, time.perf_counter() - start)
        return response

    def _record(self, request: Request, status: int, elapsed: float) -> None:
        label = route_label(request)
        self.registry.counter(
            "http_requests_total",
            route=label, status=f"{status // 100}xx",
        ).inc()
        self.registry.histogram(
            "http_request_seconds", route=label,
        ).observe(elapsed)


class LoggingMiddleware:
    """One structured record per request, correlated by request id."""

    def __init__(self, log: RequestLog) -> None:
        self.log = log

    def __call__(self, request: Request, call_next: Handler) -> Response:
        start = time.perf_counter()
        response = call_next(request)
        self.log.record(
            request_id=request.request_id,
            method=request.method,
            path=request.path,
            route=request.route_pattern or UNMATCHED,
            status=response.status,
            duration_ms=round((time.perf_counter() - start) * 1e3, 3),
        )
        return response


class ErrorMiddleware:
    """Uncaught exception -> clean 500 envelope (the thread survives)."""

    def __init__(self, registry: MetricsRegistry | None = None,
                 log: RequestLog | None = None) -> None:
        self.registry = registry
        self.log = log

    def __call__(self, request: Request, call_next: Handler) -> Response:
        try:
            return call_next(request)
        except HttpError as exc:
            # Handlers normally raise inside the router (which converts),
            # but a middleware below us may raise too.
            return error_response(exc.status, exc.message, request.request_id)
        except Exception as exc:  # noqa: BLE001 — the 500 boundary
            if self.registry is not None:
                self.registry.counter(
                    "http_exceptions_total", type=type(exc).__name__,
                ).inc()
            if self.log is not None:
                self.log.record(
                    request_id=request.request_id,
                    method=request.method,
                    path=request.path,
                    event="unhandled_exception",
                    exception=type(exc).__name__,
                    detail=str(exc),
                )
            # The internal detail stays in the log; clients get a generic
            # message plus the id that finds it.
            return error_response(
                500, "internal server error", request.request_id
            )


class SnapshotMiddleware:
    """MVCC concurrency for the whole dispatch.

    GET/HEAD/OPTIONS pin the currently published database snapshot —
    **no lock acquisition at all** — so any number of read requests
    proceed concurrently, each observing one immutable committed
    version even while writers commit mid-request.  Mutating methods
    take the exclusive write lock, which only serializes writers
    against each other (readers never wait and are never waited on).
    """

    READ_METHODS = frozenset({"GET", "HEAD", "OPTIONS"})

    def __init__(self, db) -> None:
        self.db = db

    def __call__(self, request: Request, call_next: Handler) -> Response:
        if request.method in self.READ_METHODS:
            with self.db.pinned() as snap:
                # Lock-free: the span records *which* version this request
                # reads (there is no wait to attribute — pinning is one
                # attribute read).
                with _trace.span(
                    "db.snapshot.pin",
                    version=snap.version if snap is not None else -1,
                ):
                    pass
                return call_next(request)
        lock = self.db.lock
        # The acquire gets its own span so lock *wait* is attributed
        # separately from the handler work it serializes.
        with _trace.span("db.lock.acquire", mode="write"):
            lock.acquire_write()
        try:
            return call_next(request)
        finally:
            lock.release_write()


class ReadOnlyMiddleware:
    """Reject mutations on a read-replica node with 403.

    Replicas converge by applying the primary's shipped frames; a local
    write would fork their history from the stream.  The front tier
    routes writes to the primary — a mutation landing here means a
    client bypassed it, so the refusal names the right door.  Sits above
    the snapshot middleware: a doomed write never queues on the write
    lock (which the replication applier is using).
    """

    MUTATING_METHODS = frozenset({"POST", "PUT", "PATCH", "DELETE"})

    def __init__(self, primary_url: str = "") -> None:
        self.primary_url = primary_url

    def __call__(self, request: Request, call_next: Handler) -> Response:
        if request.method in self.MUTATING_METHODS:
            detail = (
                f"this node is a read replica; send writes to "
                f"{self.primary_url}" if self.primary_url
                else "this node is a read replica; send writes to the primary"
            )
            response = error_response(403, detail, request.request_id)
            if self.primary_url:
                response.headers["x-carcs-primary"] = self.primary_url
            return response
        return call_next(request)


class VersionHeaderMiddleware:
    """Stamp ``x-carcs-version`` — the replication offset — on every
    response.

    For reads the value is the MVCC version the request was served from
    (it runs inside the snapshot pin, so ``db.version`` is the pinned
    version); for writes it is the post-commit version.  The front tier
    compares this header against each session's version floor to give
    read-your-writes across replicas, so it must also ride on 304s —
    which is why this sits *above* the conditional-GET short-circuit.
    """

    HEADER = "x-carcs-version"

    def __init__(self, db) -> None:
        self.db = db

    def __call__(self, request: Request, call_next: Handler) -> Response:
        response = call_next(request)
        response.headers.setdefault(self.HEADER, str(self.db.version))
        return response


class ConditionalGetMiddleware:
    """ETag / If-None-Match revalidation for GETs.

    ``exempt`` paths (metrics, health, traces) change without a
    repository mutation, so they never 304.  Each exempt entry also
    covers everything nested under it (``/api/v1/traces`` exempts
    ``/api/v1/traces/<id>``)."""

    def __init__(self, etag_fn: Callable[[], str],
                 exempt: Iterable[str] = ()) -> None:
        self.etag_fn = etag_fn
        self.exempt = frozenset(exempt)

    def _is_exempt(self, path: str) -> bool:
        return path in self.exempt or any(
            path.startswith(p + "/") for p in self.exempt
        )

    def __call__(self, request: Request, call_next: Handler) -> Response:
        if request.method != "GET" or self._is_exempt(request.path):
            return call_next(request)
        etag = self.etag_fn()
        if etag_matches(request.header("if-none-match"), etag):
            return not_modified(etag)
        response = call_next(request)
        if response.ok:
            response.headers.setdefault("etag", etag)
        return response

"""The request pipeline: composable middleware around router dispatch.

Everything cross-cutting lives here as middleware — small callables of
``(request, call_next) -> response`` composed into one handler.  The
production chain, outermost first:

1. :class:`TelemetryMiddleware` — the request id, the root span (under
   an inbound ``traceparent`` when a proxied hop carries one), the 500
   boundary, and the request's one telemetry record: the two ``http_*``
   series and the renamed root span.
2. :class:`AdmissionMiddleware` — request deadlines, per-client rate
   limits and the inflight cap.  It sits under the telemetry step, so
   sheds are counted and traced like any response, and above the
   snapshot step, so a shed request never queues on the write lock.
3. :class:`SnapshotMiddleware` — the database version a request sees:
   reads pin the current MVCC snapshot (no lock at all) and revalidate
   ETags inside the pin; writes take the exclusive write lock; every
   response carries the version it was served from.

Replica nodes additionally run :class:`ReadOnlyMiddleware` just above
the snapshot step, refusing local mutations with 403 and pointing at
the primary.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
from collections import OrderedDict
from typing import Callable, Iterable, Sequence

from repro.obs import MetricsRegistry, Tracer
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

_log = logging.getLogger(__name__)


def backpressure_response(
    status: int,
    message: str,
    request_id: str = "",
    *,
    retry_after: int = 1,
    metrics: MetricsRegistry,
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

#: Admission shed kind (its :meth:`AdmissionMiddleware.stats` key) →
#: the ``(status, reason)`` labels of the ``carcs_shed_total`` series
#: that counts it.
SHED_SERIES = {
    "shed_deadline": (503, "deadline"),
    "shed_rate": (429, "rate-limit"),
    "shed_inflight": (503, "overload"),
}


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

    Runs *under* the telemetry step (sheds are counted and traced like
    any response) and *above* the snapshot middleware — a
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
    job queue's saturation 429s; :meth:`stats` reads its shed counts
    back from that counter (:data:`SHED_SERIES`), and the scrape-time
    ``carcs_admission_*`` gauges export them with the inflight level.
    Requests for an ``exempt`` path skip
    all three checks (the API exempts its health and metrics endpoints,
    :data:`repro.web.api.ADMISSION_EXEMPT_PATHS`).
    """

    def __init__(self, metrics: MetricsRegistry, *,
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

    def _shed(self, request: Request, kind: str, message: str,
              retry_after: int = 1) -> Response:
        status, reason = SHED_SERIES[kind]
        return backpressure_response(
            status, message, request.request_id,
            retry_after=retry_after, metrics=self.metrics, reason=reason,
        )

    def stats(self) -> dict[str, int]:
        with self._lock:
            out = {
                "inflight": self._inflight,
                "tracked_clients": len(self._buckets),
            }
        for key, (status, reason) in SHED_SERIES.items():
            out[key] = self.metrics.value(
                "carcs_shed_total", status=status, reason=reason,
            )
        return out

    # -- the middleware ----------------------------------------------------

    def __call__(self, request: Request, call_next: Handler) -> Response:
        if request.path in self.exempt:
            return call_next(request)

        budget = self.parse_deadline(request.header(DEADLINE_HEADER))
        if budget is not None and budget <= 0:
            return self._shed(
                request, "shed_deadline", "request deadline already expired",
            )

        wait = self._over_rate(request)
        if wait > 0:
            return self._shed(
                request, "shed_rate", "client request rate exceeded",
                retry_after=max(1, math.ceil(wait)),
            )

        cap = self.max_inflight
        with self._lock:
            over = cap is not None and self._inflight >= cap
            if not over:
                self._inflight += 1
        if over:
            return self._shed(
                request, "shed_inflight", "server is at its concurrency limit",
            )

        token = _trace.set_deadline(budget) if budget is not None else None
        try:
            return call_next(request)
        except _trace.DeadlineExceeded as exc:
            # Work the deadline cancelled mid-flight: same shed shape as
            # a pre-expired deadline, so clients handle one contract.
            return self._shed(request, "shed_deadline", str(exc))
        finally:
            if token is not None:
                _trace.clear_deadline(token)
            with self._lock:
                self._inflight -= 1


class TelemetryMiddleware:
    """The node's one telemetry step: request id, root span, the 500
    boundary, and one record per request.

    The root span opens through :meth:`Tracer.adopt` (trace id ==
    request id unless an inbound ``traceparent`` names one) and is
    renamed to the matched route once the router has run.  Inside one
    ``perf_counter`` pair an :class:`HttpError` becomes its envelope and
    any other exception a generic 500: its detail is logged once with
    the request id and set as the root span's ``exception`` attribute,
    never sent to the client.  Every request, sheds and 500s included,
    then feeds ``http_requests_total`` and ``http_request_seconds`` —
    with the root span, the request's whole telemetry.
    """

    def __init__(self, tracer: Tracer, registry: MetricsRegistry) -> None:
        self.tracer = tracer
        self.registry = registry

    def _count(self, label: str, status: int, elapsed: float) -> None:
        self.registry.counter(
            "http_requests_total", route=label, status=f"{status // 100}xx",
        ).inc()
        self.registry.histogram(
            "http_request_seconds", route=label,
        ).observe(elapsed)

    def __call__(self, request: Request, call_next: Handler) -> Response:
        request_id = request.header("x-request-id") or _trace.new_trace_id()
        request.request_id = request_id
        tracer = self.tracer
        with tracer.adopt(
            "http.request",
            request.header(_trace.TRACEPARENT_HEADER)
            if tracer.enabled else None,
            trace_id=request_id,
            method=request.method,
            path=request.path,
        ) as root:
            start = time.perf_counter()
            try:
                response = call_next(request)
            except HttpError as exc:
                # Handlers raise inside the router (which converts), but
                # a middleware below may raise too.
                response = error_response(exc.status, exc.message, request_id)
            except Exception as exc:  # noqa: BLE001 — the 500 boundary
                self.registry.counter(
                    "http_exceptions_total", type=type(exc).__name__,
                ).inc()
                _log.error(
                    "unhandled exception in request %s (%s %s)",
                    request_id, request.method, request.path, exc_info=exc,
                )
                root.set(exception=f"{type(exc).__name__}: {exc}")
                response = error_response(
                    500, "internal server error", request_id
                )
            except BaseException:
                self._count(route_label(request), 500,
                            time.perf_counter() - start)
                raise
            elapsed = time.perf_counter() - start
            status = response.status
            label = route_label(request)
            self._count(label, status, elapsed)
            if root:
                root.name = label
                root.set(status=status)
                if status >= 500:
                    root.mark_error(f"http {status}")
                response.headers.setdefault("x-trace-id", root.trace_id)
        response.headers.setdefault("x-request-id", request_id)
        envelope = response.error
        if envelope is not None and not envelope.get("request_id"):
            envelope["request_id"] = request_id
            # Re-assign so the body is encoded again, with the id.
            response.payload = response.payload
        return response


class SnapshotMiddleware:
    """The database version a request sees.

    GET/HEAD/OPTIONS pin the published MVCC snapshot — no lock at all —
    so concurrent reads each observe one committed version while writers
    commit.  Inside the pin a GET's ETag ``"carcs-v<version>"`` is
    checked against ``If-None-Match`` (a match is an empty 304 before
    dispatch) and put on successful responses, except on paths the
    ``etag_exempt`` predicate accepts (they change without a repository
    mutation).  Mutating methods take the exclusive write lock, which
    only serializes writers against each other.  Every response, 304s
    included, carries ``x-carcs-version``: the pinned version for reads,
    the post-commit version (stamped before the lock is released) for
    writes.  The front tier compares it against each session's version
    floor for read-your-writes across replicas.
    """

    READ_METHODS = frozenset({"GET", "HEAD", "OPTIONS"})
    VERSION_HEADER = "x-carcs-version"

    def __init__(self, db, etag_exempt: Callable[[str], bool]) -> None:
        self.db = db
        self.etag_exempt = etag_exempt

    def __call__(self, request: Request, call_next: Handler) -> Response:
        db = self.db
        if request.method not in self.READ_METHODS:
            # The acquire gets its own span so lock *wait* is attributed
            # separately from the handler work it serializes.
            with _trace.span("db.lock.acquire", mode="write"):
                db.lock.acquire_write()
            try:
                response = call_next(request)
                response.headers.setdefault(
                    self.VERSION_HEADER, str(db.version)
                )
                return response
            finally:
                db.lock.release_write()
        with db.pinned() as snap:
            # Lock-free: the span records *which* version this request
            # reads (there is no wait to attribute — pinning is one
            # attribute read).
            with _trace.span(
                "db.snapshot.pin",
                version=snap.version if snap is not None else -1,
            ):
                pass
            version = db.version
            if request.method != "GET" or self.etag_exempt(request.path):
                response = call_next(request)
            else:
                etag = f'"carcs-v{version}"'
                if etag_matches(request.header("if-none-match"), etag):
                    response = not_modified(etag)
                else:
                    response = call_next(request)
                    if response.ok:
                        response.headers.setdefault("etag", etag)
            response.headers.setdefault(self.VERSION_HEADER, str(version))
            return response


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

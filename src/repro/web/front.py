"""The front tier: one entry point over a primary and N read replicas.

:class:`FrontTier` is itself an application callable (``(Request) ->
Response``) so it serves through the same :class:`~repro.web.server.
ApiServer` adapter as a single node.  It routes by method:

* **Writes** (POST/PUT/PATCH/DELETE) forward to the primary.  A primary
  transport failure answers ``503`` with ``Retry-After`` — while reads
  keep serving from the replicas.
* **Reads** fan out round-robin across healthy replicas.  A replica that
  fails at the transport level is **evicted** from the rotation and
  probed via its ``/api/v2/replication`` status after a cooldown;
  it is re-admitted once it reports connected with bounded lag.

**Session guarantees.**  Clients that send an ``x-carcs-session``
header get read-your-writes and monotonic reads across the fleet: the
front tier records the highest ``x-carcs-version`` each session has
observed (its *version floor*), and a replica response below the floor
is discarded in favour of the next replica, falling back to the
primary — which is always at least as new as any version the session
saw.  Sessionless requests take the fastest replica answer with no
guarantee beyond each node's own snapshot consistency.

Every response is stamped with ``x-carcs-backend`` and
``x-carcs-served-by`` naming the node that served it (the latter also
covers answers the router authors itself).  ``GET /api/v1/fleet``
answers from the front tier itself with per-backend health, eviction
state and session-table size.

**Fleet tracing.**  The router opens a root span per routed request
(adopting an inbound ``traceparent`` when one arrives) and injects its
active span's context into every proxied hop, so router →
primary/replica spans share one trace id.  ``GET /api/v2/traces/<id>``
fans out to every fleet member, collects each process's stored
segments for that id and stitches them into one tree
(:func:`repro.obs.trace.stitch_trace`) with per-hop process labels —
the fleet-wide view ``carcs trace --id`` renders.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import OrderedDict
from typing import Any, Callable

from repro.obs import trace as _trace

from repro.obs import MetricsRegistry, Tracer

from .api import ADMISSION_EXEMPT_PATHS
from .http import Request, Response, error_response, json_response
from .middleware import DEADLINE_HEADER, AdmissionMiddleware, backpressure_response

#: Method → forwarded to the primary (everything else is a read).
MUTATING_METHODS = frozenset({"POST", "PUT", "PATCH", "DELETE"})

SESSION_HEADER = "x-carcs-session"
VERSION_HEADER = "x-carcs-version"
BACKEND_HEADER = "x-carcs-backend"
SERVED_BY_HEADER = "x-carcs-served-by"

#: Seconds an evicted replica sits out before the first health probe.
DEFAULT_PROBE_COOLDOWN = 1.0
#: A probed replica re-admits only when its replication lag (in shipped
#: frames) is at or below this bound.
DEFAULT_MAX_LAG_FRAMES = 64
#: Advisory client back-off when the primary is unreachable.
DEFAULT_RETRY_AFTER = 1
#: Session floors retained (LRU) before the oldest session forgets its
#: guarantee and degrades to sessionless reads.
MAX_SESSIONS = 10_000


class BackendError(Exception):
    """Transport-level failure talking to a backend (not an HTTP error)."""


class LocalBackend:
    """An in-process application object as a backend (tests, benches)."""

    def __init__(self, name: str, app: Callable[[Request], Response]) -> None:
        self.name = name
        self.app = app

    def request(self, request: Request) -> Response:
        try:
            return self.app(Request(
                method=request.method,
                path=request.path,
                query=dict(request.query),
                body=request.body,
                headers=dict(request.headers),
            ))
        except Exception as exc:  # noqa: BLE001 — app object died
            raise BackendError(f"{self.name}: {exc}") from exc


#: Framing headers the router's own server writes: dropped from a
#: proxied answer, which keeps the backend's other headers and bytes.
_HOP_HEADERS = frozenset({"content-length", "date", "server", "connection",
                          "keep-alive", "transfer-encoding"})


class HttpBackend:
    """A real node reached over HTTP (``carcs serve`` processes)."""

    def __init__(self, name: str, base_url: str, *, timeout: float = 10.0) -> None:
        self.name = name
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _hop_timeout(self) -> float:
        """The socket timeout for one proxied hop: the configured cap,
        shrunk to the request's remaining deadline budget (plus a small
        grace so the backend's own deadline shed wins the race and the
        client gets its structured 503 rather than a torn transport)."""
        remaining = _trace.deadline_remaining()
        if remaining is None:
            return self.timeout
        return min(self.timeout, max(0.05, remaining + 0.1))

    def request(self, request: Request) -> Response:
        # Re-encode: request.query holds *decoded* values, and a space
        # or reserved character forwarded raw is an invalid URL.
        query = urllib.parse.urlencode(
            [(key, value)
             for key, values in request.query.items() for value in values]
        )
        url = self.base_url + request.path + (f"?{query}" if query else "")
        body = request.body
        if isinstance(body, (dict, list)):
            body = json.dumps(body)
        data = body.encode("utf-8") if isinstance(body, str) else body
        req = urllib.request.Request(
            url, data=data, method=request.method,
            headers={"content-type": "application/json", **request.headers},
        )
        try:
            with urllib.request.urlopen(req, timeout=self._hop_timeout()) as resp:
                status, headers, raw = resp.status, resp.headers, resp.read()
        except urllib.error.HTTPError as exc:
            # An HTTP status is a real answer from a live node, not a
            # transport failure — pass it through.
            status, headers, raw = exc.code, exc.headers, exc.read()
        except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
            raise BackendError(f"{self.name}: {exc}") from exc
        return Response(status, body=raw, headers={
            k.lower(): v for k, v in headers.items()
            if k.lower() not in _HOP_HEADERS})


class _ReplicaSlot:
    """Rotation state for one replica backend."""

    def __init__(self, backend: Any) -> None:
        self.backend = backend
        self.healthy = True
        self.evicted_at = 0.0
        self.last_probe = 0.0
        self.evictions = 0
        self.readmissions = 0


class FrontTier:
    """Route writes to the primary, fan reads across replicas."""

    def __init__(
        self,
        primary: Any,
        replicas: list[Any] | tuple[Any, ...] = (),
        *,
        probe_cooldown: float = DEFAULT_PROBE_COOLDOWN,
        max_lag_frames: int = DEFAULT_MAX_LAG_FRAMES,
        retry_after: int = DEFAULT_RETRY_AFTER,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        name: str = "router",
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        max_inflight: int | None = None,
    ) -> None:
        self.primary = primary
        self.probe_cooldown = probe_cooldown
        self.max_lag_frames = max_lag_frames
        self.retry_after = retry_after
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Fleet-wide front door: sheds happen *here*, before a doomed
        # request burns a backend hop.  The admitted deadline is armed
        # in this context, so proxied hops see the shrinking budget
        # (header rewrite in _inject_context, socket cap in HttpBackend).
        self.admission = AdmissionMiddleware(
            self.metrics,
            rate_limit=rate_limit,
            rate_burst=rate_burst,
            max_inflight=max_inflight,
            exempt=ADMISSION_EXEMPT_PATHS + ("/api/v1/fleet",),
        )
        #: The router's own process label in stitched traces and its
        #: ``x-carcs-served-by`` stamp on self-served answers.
        self.name = name
        self.tracer = tracer if tracer is not None else _trace.get_tracer()
        self._slots = [_ReplicaSlot(backend) for backend in replicas]
        self._rr = 0
        self._sessions: OrderedDict[str, int] = OrderedDict()
        self._lock = threading.Lock()
        # Counters for /api/v1/fleet.
        self.reads = 0
        self.writes = 0
        self.primary_errors = 0
        self.stale_retries = 0

    # -- session floors ----------------------------------------------------

    def _session_floor(self, session: str | None) -> int:
        if not session:
            return -1
        with self._lock:
            floor = self._sessions.get(session, -1)
            if floor >= 0:
                self._sessions.move_to_end(session)
            return floor

    def _raise_floor(self, session: str | None, response: Response) -> None:
        if not session:
            return
        raw = response.headers.get(VERSION_HEADER)
        if raw is None:
            return
        try:
            version = int(raw)
        except ValueError:
            return
        with self._lock:
            if version > self._sessions.get(session, -1):
                self._sessions[session] = version
            self._sessions.move_to_end(session)
            while len(self._sessions) > MAX_SESSIONS:
                self._sessions.popitem(last=False)

    # -- dispatch ----------------------------------------------------------

    def __call__(self, request: Request) -> Response:
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self.admission(request, self._route)
        # Adopt an inbound trace context (an instrumented client, or a
        # router chained behind another router); otherwise the inbound
        # request id seeds the trace id, matching single-node behaviour.
        with tracer.adopt(
            f"front {request.method}",
            request.header(_trace.TRACEPARENT_HEADER),
            trace_id=request.header("x-request-id") or None,
            path=request.path,
        ) as root:
            response = self.admission(request, self._route)
            root.set(status=response.status)
            if response.status >= 500:
                root.mark_error(f"http {response.status}")
            response.headers.setdefault("x-trace-id", root.trace_id)
            return response

    def _route(self, request: Request) -> Response:
        if request.method == "GET":
            path = request.path.rstrip("/")
            if path == "/api/v1/fleet":
                response = json_response(self.status())
                response.headers.setdefault(SERVED_BY_HEADER, self.name)
                return response
            trace_prefix = "/api/v2/traces/"
            if path.startswith(trace_prefix) and path[len(trace_prefix):]:
                response = self._stitched_trace(
                    request, path[len(trace_prefix):]
                )
                response.headers.setdefault(SERVED_BY_HEADER, self.name)
                return response
        session = request.header(SESSION_HEADER)
        if request.method in MUTATING_METHODS:
            response = self._dispatch_write(request)
        else:
            response = self._dispatch_read(request, session)
        self._raise_floor(session, response)
        if session:
            response.headers.setdefault(SESSION_HEADER, session)
        response.headers.setdefault(SERVED_BY_HEADER, self.name)
        return response

    @staticmethod
    def _inject_context(request: Request, span_: Any) -> None:
        """Stamp the active span's traceparent on the outbound hop so
        the backend's segment hangs under this exact span when
        stitched.  With tracing off the inbound header (if any) is
        forwarded untouched.

        Deadlines propagate the same way: the header carries *remaining
        budget* (milliseconds), so each hop rewrites it down by however
        long the request has already spent at this tier — the backend
        arms a deadline covering only what the client still waits for.
        """
        if span_:
            request.headers[_trace.TRACEPARENT_HEADER] = \
                _trace.format_traceparent(span_.trace_id, span_.span_id)
        remaining = _trace.deadline_remaining()
        if remaining is not None:
            request.headers[DEADLINE_HEADER] = format(
                max(0.0, remaining) * 1000.0, ".3f"
            )

    def _dispatch_write(self, request: Request) -> Response:
        self.writes += 1
        with _trace.span("front.write", backend=self.primary.name) as span_:
            self._inject_context(request, span_)
            try:
                response = self.primary.request(request)
            except BackendError as exc:
                self.primary_errors += 1
                return backpressure_response(
                    503, f"primary unavailable: {exc}", request.request_id,
                    retry_after=self.retry_after, metrics=self.metrics,
                    reason="primary-unavailable",
                )
        self._stamp_backend(response, self.primary.name)
        return response

    def _dispatch_read(self, request: Request, session: str | None) -> Response:
        self.reads += 1
        floor = self._session_floor(session)
        self._maybe_readmit()
        for slot in self._rotation():
            try:
                with _trace.span(
                    "front.read", backend=slot.backend.name
                ) as span_:
                    self._inject_context(request, span_)
                    response = slot.backend.request(request)
            except BackendError:
                self._evict(slot)
                continue
            if floor >= 0 and self._served_version(response) < floor:
                # This replica has not caught up to what the session
                # already saw — read-your-writes says try a fresher node.
                self.stale_retries += 1
                continue
            self._stamp_backend(response, slot.backend.name)
            return response
        # No replica could satisfy the read (none configured, all
        # evicted, or all below the session floor): the primary is the
        # freshest copy by definition.
        with _trace.span("front.read", backend=self.primary.name) as span_:
            self._inject_context(request, span_)
            try:
                response = self.primary.request(request)
            except BackendError as exc:
                self.primary_errors += 1
                return backpressure_response(
                    503, f"no backend can serve this read: {exc}",
                    request.request_id,
                    retry_after=self.retry_after, metrics=self.metrics,
                    reason="no-backend",
                )
        self._stamp_backend(response, self.primary.name)
        return response

    @staticmethod
    def _stamp_backend(response: Response, name: str) -> None:
        response.headers[BACKEND_HEADER] = name
        response.headers[SERVED_BY_HEADER] = name

    # -- fleet trace stitching --------------------------------------------

    def _stitched_trace(self, request: Request, trace_id: str) -> Response:
        """Fan ``GET /api/v2/traces/<id>`` out to every fleet member
        (healthy or not — an evicted replica can still hold segments)
        and stitch whatever comes back, plus the router's own segments,
        into one tree."""
        segments: list[tuple[str, dict[str, Any]]] = []
        members: list[dict[str, Any]] = []
        backends = [self.primary] + [slot.backend for slot in self._slots]
        for backend in backends:
            try:
                resp = backend.request(
                    Request(method="GET", path=f"/api/v2/traces/{trace_id}")
                )
            except BackendError:
                members.append({
                    "name": backend.name, "reachable": False, "found": False,
                })
                continue
            payload = resp.payload if isinstance(resp.payload, dict) else {}
            found = bool(resp.ok and payload.get("root"))
            members.append({
                "name": backend.name, "reachable": True, "found": found,
            })
            if not found:
                continue
            for tree in payload.get("segments") or [payload["root"]]:
                if isinstance(tree, dict):
                    segments.append((backend.name, tree))
        if self.tracer is not None:
            local = self.tracer.store.segments(trace_id)
            if local:
                members.append({
                    "name": self.name, "reachable": True, "found": True,
                })
            for record in local:
                segments.append((self.name, record.root.as_dict()))
        if not segments:
            return error_response(
                404,
                f"no fleet member retains trace {trace_id!r} "
                "(sampled out, evicted, or never started)",
                request.request_id,
            )
        stitched = _trace.stitch_trace(trace_id, segments)
        stitched["members"] = members
        return json_response(stitched)

    @staticmethod
    def _served_version(response: Response) -> int:
        try:
            return int(response.headers.get(VERSION_HEADER, "-1"))
        except ValueError:
            return -1

    def _rotation(self) -> list[_ReplicaSlot]:
        """Healthy replicas, starting after the last one used."""
        with self._lock:
            slots = list(self._slots)
            self._rr += 1
            start = self._rr
        ordered = slots[start % len(slots):] + slots[:start % len(slots)] \
            if slots else []
        return [slot for slot in ordered if slot.healthy]

    # -- replica health ----------------------------------------------------

    def _evict(self, slot: _ReplicaSlot) -> None:
        with self._lock:
            if slot.healthy:
                slot.healthy = False
                slot.evictions += 1
            slot.evicted_at = time.monotonic()

    def _maybe_readmit(self) -> None:
        """Probe evicted replicas whose cooldown elapsed; re-admit the
        ones that answer their replication status with bounded lag."""
        now = time.monotonic()
        with self._lock:
            due = [
                slot for slot in self._slots
                if not slot.healthy
                and now - slot.evicted_at >= self.probe_cooldown
                and now - slot.last_probe >= self.probe_cooldown
            ]
            for slot in due:
                slot.last_probe = now
        for slot in due:
            try:
                probe = slot.backend.request(
                    Request(method="GET", path="/api/v2/replication")
                )
            except BackendError:
                continue
            status = probe.payload if isinstance(probe.payload, dict) else {}
            lagging = status.get("lag_frames", 0) > self.max_lag_frames
            disconnected = status.get("role") == "replica" and not status.get(
                "connected", True
            )
            if probe.ok and not lagging and not disconnected:
                with self._lock:
                    slot.healthy = True
                    slot.readmissions += 1

    # -- observability -----------------------------------------------------

    def status(self) -> dict[str, Any]:
        with self._lock:
            replicas = [
                {
                    "name": slot.backend.name,
                    "url": getattr(slot.backend, "base_url", None),
                    "healthy": slot.healthy,
                    "evictions": slot.evictions,
                    "readmissions": slot.readmissions,
                }
                for slot in self._slots
            ]
            sessions = len(self._sessions)
        return {
            "role": "router",
            "name": self.name,
            "primary": self.primary.name,
            "primary_url": getattr(self.primary, "base_url", None),
            "replicas": replicas,
            "healthy_replicas": sum(1 for r in replicas if r["healthy"]),
            "sessions": sessions,
            "reads": self.reads,
            "writes": self.writes,
            "primary_errors": self.primary_errors,
            "stale_retries": self.stale_retries,
            "admission": self.admission.stats(),
        }

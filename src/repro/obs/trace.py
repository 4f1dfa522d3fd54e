"""Hierarchical request tracing: spans, context propagation, storage.

PR 2 gave the system counters and latency histograms; they answer *how
slow* a route is, never *where the time went*.  This module adds the
attribution layer: a :class:`Tracer` produces hierarchical
:class:`Span`\\ s (trace/span/parent ids, wall + CPU time, status,
structured attributes) carried through a ``contextvars.ContextVar`` so
nested calls attach to the active request automatically — the web
middleware opens the root, and the instrumentation points in
``core/cache.py``, ``core/repository.py``, ``core/search.py`` and
``db/engine.py`` hang their spans underneath without any plumbing.

Design rules, in overhead order:

* **The hot path is a flight recorder.**  While a trace is live, spans
  are flat list records (name, parent index, clocks, attrs) appended to
  a per-trace buffer; the :class:`Span` tree the API serves is built
  lazily on first read.  Call sites interact through small per-thread
  pooled handles, so opening+closing a span costs two clock reads, one
  list allocation and a few appends — no tree bookkeeping, no
  per-span context-variable writes, no id minting (span ids mint
  lazily when something asks for them).
* **The context is module-global.**  ``span(name, ...)`` (the function
  every instrumented layer calls) consults one ``ContextVar``; with no
  active trace it returns a shared no-op span, so un-traced work — bulk
  seeding, unit tests, CLI analytics — pays one dictionary-free lookup
  per instrumentation point and nothing else.
* **Spans are single-threaded.**  A trace belongs to the thread (more
  precisely: the context) that opened its root; the threaded HTTP
  server gives every request its own thread and therefore its own
  context, which is what keeps concurrent requests' spans disjoint.
* **Head sampling, with safety overrides.**  ``CARCS_TRACE`` selects
  ``off`` / ``sampled`` / ``all``.  In ``sampled`` mode every Nth trace
  (``CARCS_TRACE_SAMPLE``, default 1 = every trace) is retained — but a
  trace containing an error span or a span slower than
  ``CARCS_TRACE_SLOW_MS`` (default 100) is *always* retained, so the
  traces you need most never fall to the sampler.
* **Completed traces are bounded.**  The thread-safe
  :class:`TraceStore` keeps the newest ``capacity`` retained traces;
  ``GET /api/v1/traces`` pages over summaries and
  ``GET /api/v1/traces/<id>`` returns the full span tree.
* **Context propagates across processes.**  A W3C-``traceparent``-style
  header (``00-<trace id>-<span id>-01``) carries the active span's
  identity over every proxied hop: the front tier injects it
  (:func:`current_traceparent` / :func:`format_traceparent`), and each
  receiving root — the node's telemetry middleware, the front tier, a
  job run — opens through :meth:`Tracer.adopt`, under the *propagated*
  trace id plus a ``remote_parent`` attribute naming the caller's span.
  Each process still records only its own spans;
  :func:`stitch_trace` reassembles the per-process segments into
  one tree by attaching every remote root under the span whose id it
  names.  The same mechanism links asynchronous work: the job queue
  persists the enqueuing request's traceparent in the ``_jobs`` row and
  the worker opens its ``job.run`` root from it — so one trace id covers
  router → primary → worker.
* **Metrics cross-reference.**  Every finished trace feeds per-span-name
  duration histograms (``carcs_span_seconds{span=...}``) into an
  attached :class:`~repro.obs.metrics.MetricsRegistry`, and the tracer
  remembers one exemplar trace id per span name — the metrics export
  links a histogram back to a concrete retrievable trace.  The feed
  runs when the completion queue drains (on any read, ``stats()`` and
  every metrics scrape included, or once the queue fills), through
  metric handles cached per span name — the request thread never
  touches the registry.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import OrderedDict
from contextvars import ContextVar
from typing import Any, Iterator

ENV_MODE = "CARCS_TRACE"
ENV_SAMPLE = "CARCS_TRACE_SAMPLE"
ENV_SLOW_MS = "CARCS_TRACE_SLOW_MS"

MODE_OFF = "off"
MODE_SAMPLED = "sampled"
MODE_ALL = "all"

DEFAULT_SLOW_MS = 100.0
DEFAULT_CAPACITY = 512


def env_mode() -> str:
    """Tracing mode from ``CARCS_TRACE`` (unset/unknown → ``sampled``)."""
    raw = os.environ.get(ENV_MODE, MODE_SAMPLED).strip().lower()
    return raw if raw in (MODE_OFF, MODE_SAMPLED, MODE_ALL) else MODE_SAMPLED


def env_sample_every() -> int:
    """Head-sampling stride from ``CARCS_TRACE_SAMPLE`` (default 1)."""
    try:
        return max(1, int(os.environ.get(ENV_SAMPLE, "1")))
    except ValueError:
        return 1


def env_slow_ms() -> float:
    try:
        return float(os.environ.get(ENV_SLOW_MS, DEFAULT_SLOW_MS))
    except ValueError:
        return DEFAULT_SLOW_MS


# Ids come from a PRNG seeded once from the OS, not uuid4: a span id is
# minted on the request hot path and uuid4's per-call urandom read costs
# more than the rest of the span put together.  getrandbits is C-level
# and atomic under the GIL.
_ids = random.Random()


def new_trace_id() -> str:
    """A trace id in the same shape as request ids (96 random bits)."""
    return f"{_ids.getrandbits(96):024x}"


def new_span_id() -> str:
    return f"{_ids.getrandbits(64):016x}"


# -- cross-process context propagation ------------------------------------

#: Header carrying the caller's trace context over proxied hops
#: (W3C-traceparent-shaped; carcs trace ids are 24 hex chars, not 32).
TRACEPARENT_HEADER = "traceparent"

#: Root-span attribute naming the *remote* parent span id — the span in
#: the calling process this segment hangs under when stitched.
REMOTE_PARENT_ATTR = "remote_parent"

_HEX = frozenset("0123456789abcdef")


def format_traceparent(trace_id: str, span_id: str) -> str:
    """``00-<trace id>-<span id>-01``: the outbound header value."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(value: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a traceparent header, or
    ``None`` when the header is absent/malformed (a bad value from an
    arbitrary client must never break dispatch — it just starts a fresh
    trace)."""
    if not value:
        return None
    parts = value.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or not (2 <= len(flags) <= 2):
        return None
    if not (16 <= len(trace_id) <= 32 and 8 <= len(span_id) <= 16):
        return None
    for field in (version, trace_id, span_id, flags):
        if not set(field) <= _HEX:
            return None
    return trace_id, span_id


def current_traceparent() -> str | None:
    """The header value for the innermost open span of this context
    (``None`` outside any trace).  This mints the span id — the callee
    names it as ``remote_parent``, so it has to be pinned now."""
    handle = current_span()
    if handle is None:
        return None
    return format_traceparent(handle.trace_id, handle.span_id)


# -- request deadlines ------------------------------------------------------
#
# The admission middleware parses a client deadline and plants it here as
# an *absolute* monotonic instant; every instrumented layer below (db
# entry points, block page-ins, planner scan loops, job drains) calls
# check_deadline() at its natural abort points.  Work a client has
# already given up on is the cheapest load to shed — cancelling it frees
# capacity for requests that can still succeed, which is the whole
# graceful-degradation story docs/capacity.md tells.


class DeadlineExceeded(RuntimeError):
    """The context's request deadline has passed; abort and shed."""


#: Absolute ``perf_counter`` instant after which the current context's
#: work is abandoned (``None`` = no deadline).
_DEADLINE: ContextVar[float | None] = ContextVar(
    "carcs_deadline", default=None
)


def set_deadline(seconds: float):
    """Arm a deadline ``seconds`` from now; returns the reset token."""
    return _DEADLINE.set(_perf_counter() + seconds)


def clear_deadline(token: Any) -> None:
    _DEADLINE.reset(token)


def deadline_remaining() -> float | None:
    """Seconds until the ambient deadline (negative = past it), or
    ``None`` when no deadline is armed."""
    deadline = _DEADLINE.get()
    if deadline is None:
        return None
    return deadline - _perf_counter()


def check_deadline(what: str = "request") -> None:
    """Raise :class:`DeadlineExceeded` if the ambient deadline passed.

    One ContextVar read on the no-deadline path — cheap enough for
    per-operation call sites (db entry points, block page-ins, planner
    scan strides)."""
    deadline = _DEADLINE.get()
    if deadline is not None and _perf_counter() > deadline:
        raise DeadlineExceeded(f"deadline exceeded before {what}")


class no_deadline:
    """Scope that masks any ambient deadline — for work that must run to
    completion once started (replication apply, WAL checkpointing),
    where a leaked client deadline aborting midway would cost far more
    than it saves."""

    __slots__ = ("_token",)

    def __enter__(self) -> "no_deadline":
        self._token = _DEADLINE.set(None)
        return self

    def __exit__(self, *exc: Any) -> bool:
        _DEADLINE.reset(self._token)
        return False


#: Maps ``perf_counter`` readings onto the wall clock so spans need only
#: one monotonic read at open time instead of two clock syscalls.
_EPOCH = time.time() - time.perf_counter()

# Bound as globals: the clock pair runs twice per span, and LOAD_GLOBAL
# beats the attribute lookup on the time module.
_perf_counter = time.perf_counter
_thread_time = time.thread_time


# -- the flight-recorder hot path -----------------------------------------
#
# A live trace is a list of flat records, one per span.  Record slots:

_R_NAME = 0       # span name (str; the root is renamed after dispatch)
_R_PARENT = 1     # index of the parent record, -1 for the root
_R_ATTRS = 2      # structured attributes (dict)
_R_T0 = 3         # perf_counter at open
_R_CPU0 = 4       # thread_time at open
_R_WALL = 5       # wall seconds (None while open)
_R_CPU = 6        # CPU seconds (None while open)
_R_STATUS = 7     # "ok" | "error"
_R_ERROR = 8      # error detail (str | None)
_R_SPAN_ID = 9    # lazily minted span id (str | None)


class _Trace:
    """Mutable per-thread recorder for the one live trace of a context.

    Pooled in a ``threading.local`` and reset per root span: the
    ``records`` list is the only allocation that escapes (it becomes the
    retained trace), while the handle pool is reused request after
    request.
    """

    __slots__ = ("trace_id", "records", "stack", "handles")

    def __init__(self) -> None:
        self.trace_id = ""
        self.records: list[list[Any]] = []
        self.stack: list[int] = []
        self.handles: list["_Handle"] = []

    def open(self, name: str, attributes: dict[str, Any]) -> "_Handle":
        stack = self.stack
        depth = len(stack)
        records = self.records
        rec = [
            name, stack[depth - 1] if depth else -1, attributes,
            _perf_counter(), _thread_time(), None, None, "ok", None, None,
        ]
        stack.append(len(records))
        records.append(rec)
        handles = self.handles
        if depth < len(handles):
            handle = handles[depth]
        else:
            handle = _Handle(self)
            handles.append(handle)
        handle.rec = rec
        return handle


class _Handle:
    """The live-span object call sites see (``with span(...) as s:``).

    One handle per nesting depth per thread, reused across spans and
    requests — so a handle is only valid inside its ``with`` block;
    holding one past the block's end may alias a later span's record.
    """

    __slots__ = ("_trace", "rec")

    def __init__(self, trace: _Trace) -> None:
        self._trace = trace
        self.rec: list[Any] = []

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "_Handle":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        rec = self.rec
        self._trace.stack.pop()
        rec[_R_WALL] = _perf_counter() - rec[_R_T0]
        rec[_R_CPU] = _thread_time() - rec[_R_CPU0]
        if exc is not None:
            rec[_R_STATUS] = "error"
            rec[_R_ERROR] = f"{type(exc).__name__}: {exc}"
        return False

    def set(self, **attributes: Any) -> None:
        """Attach structured attributes (merged, last write wins)."""
        self.rec[_R_ATTRS].update(attributes)

    def mark_error(self, detail: str) -> None:
        rec = self.rec
        rec[_R_STATUS] = "error"
        rec[_R_ERROR] = detail

    @property
    def name(self) -> str:
        return self.rec[_R_NAME]

    @name.setter
    def name(self, value: str) -> None:
        # The telemetry middleware renames the root after dispatch, once
        # the router knows which route matched.
        self.rec[_R_NAME] = value

    @property
    def trace_id(self) -> str:
        return self._trace.trace_id

    @property
    def span_id(self) -> str:
        rec = self.rec
        sid = rec[_R_SPAN_ID]
        if sid is None:
            sid = rec[_R_SPAN_ID] = new_span_id()
        return sid

    @property
    def parent_id(self) -> str | None:
        parent = self.rec[_R_PARENT]
        if parent < 0:
            return None
        prec = self._trace.records[parent]
        sid = prec[_R_SPAN_ID]
        if sid is None:
            sid = prec[_R_SPAN_ID] = new_span_id()
        return sid


class Span:
    """One span of a *completed* trace: a node in the served span tree.

    Wall time comes from ``perf_counter``, CPU time from ``thread_time``
    (per-thread, so a span blocked on a lock shows near-zero CPU — the
    wall−CPU gap *is* the contention).  ``self_s`` subtracts finished
    children, attributing time to the layer that actually spent it.

    A read-only node: live tracing never builds these — call sites get
    flight-recorder handles, and :meth:`TraceRecord._build` is the only
    constructor, turning the flat records into a Span tree on first
    read.
    """

    __slots__ = (
        "name", "trace_id", "_span_id", "parent_id", "attributes",
        "_t0", "wall_s", "cpu_s", "status", "error", "children",
    )

    @property
    def span_id(self) -> str:
        sid = self._span_id
        if sid is None:
            sid = self._span_id = new_span_id()
        return sid

    @property
    def start_ts(self) -> float:
        """Wall-clock start time, derived from the monotonic reading."""
        return _EPOCH + self._t0

    @property
    def self_s(self) -> float:
        """Wall time spent in this span minus its finished children."""
        total = self.wall_s or 0.0
        spent = sum(c.wall_s or 0.0 for c in self.children)
        return max(0.0, total - spent)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ts": self.start_ts,
            "wall_ms": round((self.wall_s or 0.0) * 1e3, 3),
            "cpu_ms": round((self.cpu_s or 0.0) * 1e3, 3),
            "self_ms": round(self.self_s * 1e3, 3),
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [c.as_dict() for c in self.children],
        }
        if self.error is not None:
            out["error"] = self.error
        return out


class _NullSpan:
    """Shared no-op stand-in when no trace is active (falsy on purpose:
    call sites guard expensive attribute computation with ``if span:``)."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def set(self, **attributes: Any) -> None:
        pass

    def mark_error(self, detail: str) -> None:
        pass

    @property
    def trace_id(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL_SPAN = _NullSpan()

#: The live trace of the current context.  Module-global so every
#: layer's instrumentation reaches the same trace regardless of which
#: Tracer instance opened the root (threads get isolated contexts).
_CURRENT: ContextVar[_Trace | None] = ContextVar("carcs_trace", default=None)

#: Per-thread pooled recorder (see _Trace).
_LOCAL = threading.local()


def current_span() -> _Handle | None:
    """The innermost open span of the current context, if any."""
    trace = _CURRENT.get()
    if trace is None or not trace.stack:
        return None
    return trace.handles[len(trace.stack) - 1]


def current_trace_id() -> str | None:
    trace = _CURRENT.get()
    return trace.trace_id if trace is not None else None


def span(name: str, /, **attributes: Any):
    """Open a child span under the active trace.

    With no active trace this returns the shared :data:`NULL_SPAN` — the
    whole call costs one context-variable lookup, which is what lets the
    db/cache/search layers stay instrumented unconditionally.
    """
    trace = _CURRENT.get()
    if trace is None:
        return NULL_SPAN
    return trace.open(name, attributes)


class _TraceScope:
    """Context manager owning a root span: resets the thread's pooled
    recorder, activates it on entry, and hands the finished records to
    the tracer's retention pipeline on exit."""

    __slots__ = ("_tracer", "_trace", "_token")

    def __init__(self, tracer: "Tracer", trace_id: str, name: str,
                 attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        if _CURRENT.get() is None:
            try:
                trace = _LOCAL.trace
            except AttributeError:
                trace = _LOCAL.trace = _Trace()
        else:
            # The pooled recorder is busy with an enclosing trace on
            # this thread (an in-process proxied hop opening a fresh
            # segment): record on a private one and leave the outer
            # trace's records alone.  The ContextVar token restores the
            # outer trace on exit.
            trace = _Trace()
        trace.trace_id = trace_id
        trace.records = []
        trace.stack = []
        self._trace = trace
        trace.open(name, attributes)

    def __enter__(self) -> _Handle:
        trace = self._trace
        self._token = _CURRENT.set(trace)
        return trace.handles[0]

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _CURRENT.reset(self._token)
        trace = self._trace
        trace.stack.pop()
        rec = trace.records[0]
        rec[_R_WALL] = _perf_counter() - rec[_R_T0]
        rec[_R_CPU] = _thread_time() - rec[_R_CPU0]
        if exc is not None:
            rec[_R_STATUS] = "error"
            rec[_R_ERROR] = f"{type(exc).__name__}: {exc}"
        self._tracer._finish(trace)
        return False


class TraceRecord:
    """One retained trace: the flat span records plus derived views.

    The :class:`Span` tree is reconstructed lazily on first access —
    request threads only pay for recording, the (rare) trace reads pay
    for tree building.
    """

    __slots__ = ("trace_id", "records", "slow", "retained_by", "_root")

    def __init__(self, trace_id: str, records: list[list[Any]], *,
                 slow: bool, retained_by: str) -> None:
        self.trace_id = trace_id
        self.records = records
        self.slow = slow
        self.retained_by = retained_by
        self._root: Span | None = None

    @property
    def span_count(self) -> int:
        return len(self.records)

    @property
    def root(self) -> Span:
        root = self._root
        if root is None:
            root = self._root = self._build()
        return root

    def _build(self) -> Span:
        spans: list[Span] = []
        for rec in self.records:
            s = object.__new__(Span)
            s.name = rec[_R_NAME]
            s.trace_id = self.trace_id
            s._span_id = rec[_R_SPAN_ID]
            s.parent_id = None
            s.attributes = rec[_R_ATTRS]
            s._t0 = rec[_R_T0]
            s.wall_s = rec[_R_WALL]
            s.cpu_s = rec[_R_CPU]
            s.status = rec[_R_STATUS]
            s.error = rec[_R_ERROR]
            s.children = []
            spans.append(s)
        for i, rec in enumerate(self.records):
            parent = rec[_R_PARENT]
            if parent >= 0:
                spans[parent].children.append(spans[i])
                spans[i].parent_id = spans[parent].span_id
        return spans[0]

    def summary(self) -> dict[str, Any]:
        rec = self.records[0]
        return {
            "trace_id": self.trace_id,
            "name": rec[_R_NAME],
            "status": rec[_R_STATUS],
            "duration_ms": round((rec[_R_WALL] or 0.0) * 1e3, 3),
            "cpu_ms": round((rec[_R_CPU] or 0.0) * 1e3, 3),
            "spans": len(self.records),
            "started_ts": _EPOCH + rec[_R_T0],
            "slow": self.slow,
            "retained_by": self.retained_by,
        }

    def as_dict(self) -> dict[str, Any]:
        out = self.summary()
        out["root"] = self.root.as_dict()
        return out


class TraceStore:
    """Bounded, thread-safe store of completed traces (newest wins).

    Inserts happen when the owning tracer drains its completion queue,
    off the request path, so each entry is stored as its
    :class:`TraceRecord` straight away; the record still builds its span
    tree lazily, on first read.  Memory stays strictly bounded by
    ``capacity``.

    One trace id may hold several *segments*: with cross-process
    propagation an HTTP request and the job it enqueued share a trace
    id, and both can finish inside the same process (``carcs serve
    --workers``).  Each entry is therefore a list of segments in
    completion order; :meth:`get` answers the first (the originating
    request — the view single-process callers always had) and
    :meth:`segments` exposes them all for stitching.
    """

    #: Segments retained per trace id — bounds a pathological client
    #: reusing one traceparent forever.
    MAX_SEGMENTS = 32

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: trace id -> its segments, in completion order
        self._traces: "OrderedDict[str, list[TraceRecord]]" = OrderedDict()
        self._evicted = 0
        #: Set by the owning Tracer: read paths call it first so traces
        #: still sitting in the tracer's completion queue become visible
        #: before the store answers.  Lock order is always tracer → store
        #: (the hook runs before this store's lock is taken).
        self._drain_hook: Any = None

    def _sync(self) -> None:
        hook = self._drain_hook
        if hook is not None:
            hook()

    def add(self, record: TraceRecord) -> None:
        with self._lock:
            traces = self._traces
            existing = traces.pop(record.trace_id, None)
            if existing is None:
                traces[record.trace_id] = [record]
            else:
                existing.append(record)
                if len(existing) > self.MAX_SEGMENTS:
                    del existing[0]
                traces[record.trace_id] = existing
            while len(traces) > self.capacity:
                traces.popitem(last=False)
                self._evicted += 1

    def get(self, trace_id: str) -> TraceRecord | None:
        """The trace's first segment (its originating request)."""
        self._sync()
        with self._lock:
            entries = self._traces.get(trace_id)
            return entries[0] if entries else None

    def segments(self, trace_id: str) -> list[TraceRecord]:
        """Every stored segment of a trace, in completion order."""
        self._sync()
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def summaries(self) -> list[dict[str, Any]]:
        """Newest-first summary dicts (the ``/api/v1/traces`` payload)."""
        return [r.summary() for r in self.records()]

    def records(self) -> list[TraceRecord]:
        """Newest-first stored segments (exemplar derivation, the CLI)."""
        self._sync()
        with self._lock:
            stored = [r for entries in self._traces.values() for r in entries]
        return stored[::-1]

    @property
    def evicted(self) -> int:
        self._sync()
        return self._evicted

    def __len__(self) -> int:
        self._sync()
        return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._evicted = 0


class Tracer:
    """Opens root spans, applies retention rules, feeds store + metrics.

    Child spans are created by the module-level :func:`span` function and
    attach through the shared context; the tracer only decides whether a
    *root* opens (mode) and what happens when it closes (retention,
    histograms, exemplars).
    """

    def __init__(self, store: TraceStore | None = None, *,
                 mode: str | None = None,
                 sample_every: int | None = None,
                 slow_ms: float | None = None) -> None:
        self.store = store if store is not None else TraceStore()
        #: Optional MetricsRegistry receiving per-span-name histograms;
        #: the web layer attaches its registry (same pattern as
        #: ``SearchEngine.metrics``).
        self.registry = None
        self._lock = threading.Lock()
        self._started = 0
        self._retained = 0
        self._dropped = 0
        # Completion queue: finished traces land here as raw
        # (trace_id, records, mode-at-completion) tuples and the whole
        # retention pipeline — slow/error scan, sampling decision,
        # counters, store insert, span histograms — runs when something
        # *reads* (any stats/metrics scrape or store lookup drains the
        # queue first, via the store's drain hook), or inline once the
        # queue hits its bound.  A request thread therefore pays one
        # list append for trace completion.
        self._queue: list[tuple[str, list[list[Any]], str]] = []
        # Metric handles by span name (and retained label), so a drain
        # pays the registry's get-or-create once per name, not per span.
        self._metric_cache: dict[Any, Any] = {}
        self._cached_registry: Any = None
        self.store._drain_hook = self._drain
        self.configure(mode=mode, sample_every=sample_every, slow_ms=slow_ms)

    def configure(self, *, mode: str | None = None,
                  sample_every: int | None = None,
                  slow_ms: float | None = None) -> "Tracer":
        """Override knobs; ``None`` re-reads the environment default."""
        self.mode = mode if mode in (MODE_OFF, MODE_SAMPLED, MODE_ALL) \
            else env_mode()
        self.sample_every = (
            max(1, sample_every) if sample_every is not None
            else env_sample_every()
        )
        self.slow_ms = slow_ms if slow_ms is not None else env_slow_ms()
        return self

    @property
    def enabled(self) -> bool:
        return self.mode != MODE_OFF

    def stats(self) -> dict[str, int]:
        self._drain()
        return {
            "started": self._started,
            "retained": self._retained,
            "dropped": self._dropped,
            "stored": len(self.store),
            "evicted": self.store.evicted,
        }

    def exemplars(self) -> dict[str, str]:
        """span name → trace id of the newest *stored* trace that
        contains it (the metrics↔traces cross-reference).

        Derived from the store on read, so every exemplar is actually
        retrievable via ``/api/v1/traces/<id>`` — an id is never left
        dangling after its trace is evicted — and the request hot path
        pays nothing for it.
        """
        out: dict[str, str] = {}
        for record in self.store.records():  # newest first
            tid = record.trace_id
            for rec in record.records:
                name = rec[_R_NAME]
                if name not in out:
                    out[name] = tid
        return out

    def reset(self) -> None:
        """Drop stored traces, counters and exemplars (tests, benches)."""
        with self._lock:
            self._queue.clear()
            self._started = self._retained = self._dropped = 0
        self.store.clear()

    def _drain(self) -> None:
        """Run the retention pipeline over every queued trace."""
        with self._lock:
            self._drain_locked()

    def _drain_locked(self) -> None:
        queue = self._queue
        if not queue:
            return
        self._queue = []
        slow_s = self.slow_ms * 1e-3
        registry = self.registry
        if registry is not self._cached_registry:
            self._metric_cache = {}
            self._cached_registry = registry
        cache = self._metric_cache
        store = self.store
        sample_every = self.sample_every
        kept = lost = 0
        for trace_id, records, mode in queue:
            slow = errored = False
            for rec in records:
                wall = rec[_R_WALL]
                if wall is not None and wall >= slow_s:
                    slow = True
                if rec[_R_STATUS] == "error":
                    errored = True
                if registry is not None:
                    name = rec[_R_NAME]
                    hist = cache.get(name)
                    if hist is None:
                        hist = cache[name] = registry.histogram(
                            "carcs_span_seconds", span=name
                        )
                    hist.observe(wall if wall is not None else 0.0)
            self._started += 1
            # Retention uses the mode that was live when the trace
            # completed, so reconfiguring between completion and drain
            # (the benches flip modes constantly) cannot misclassify.
            if mode == MODE_ALL:
                retained_by = "all"
            elif errored:
                retained_by = "error"
            elif slow:
                retained_by = "slow"
            elif (self._started - 1) % sample_every == 0:
                retained_by = "sampled"
            else:
                retained_by = ""
            if retained_by:
                kept += 1
                store.add(TraceRecord(
                    trace_id, records, slow=slow, retained_by=retained_by,
                ))
            else:
                lost += 1
        self._retained += kept
        self._dropped += lost
        if registry is None:
            return
        for label, count in (("true", kept), ("false", lost)):
            if count:
                counter = cache.get(("retained", label))
                if counter is None:
                    counter = cache[("retained", label)] = registry.counter(
                        "carcs_traces_total", retained=label
                    )
                counter.inc(count)

    # -- root spans -------------------------------------------------------

    def trace(self, name: str, /, *, trace_id: str | None = None,
              fresh: bool = False, **attributes: Any):
        """Open the root span of a new trace.

        No-op when the tracer is off; when a trace is already active the
        "root" is just a child span of it — unless ``fresh`` is set, in
        which case a new trace *segment* opens even under an ambient
        trace.  Propagation boundaries (:meth:`adopt`, used by the
        telemetry middleware, the front tier and job runs) pass
        ``fresh=True``: their span is the root of this process's
        segment even when the calling hop runs in the same process
        (LocalBackend, inline job drains).
        """
        if self.mode == MODE_OFF:
            return NULL_SPAN
        trace = _CURRENT.get()
        if trace is not None and not fresh:
            return trace.open(name, attributes)
        return _TraceScope(self, trace_id or new_trace_id(), name, attributes)

    def adopt(self, name: str, traceparent: str | None, /, *,
              trace_id: str | None = None, **attributes: Any):
        """Open this process's root segment under an inbound context.

        A parseable ``traceparent`` wins: the root opens under the
        propagated trace id, with :data:`REMOTE_PARENT_ATTR` (the
        caller's span) as its last attribute, so the stitcher hangs the
        segment under the right hop.  Otherwise it opens under
        ``trace_id`` (a fresh id when ``None``).  With tracing off
        nothing is parsed and :data:`NULL_SPAN` comes back.
        """
        if self.mode == MODE_OFF:
            return NULL_SPAN
        context = parse_traceparent(traceparent)
        if context is not None:
            trace_id, attributes[REMOTE_PARENT_ATTR] = context
        return self.trace(name, trace_id=trace_id, fresh=True, **attributes)

    # -- completion -------------------------------------------------------

    def _finish(self, trace: _Trace) -> None:
        # The request thread only enqueues: slow/error scanning,
        # sampling, counters, the store insert and histogram feeding all
        # happen in _drain_locked, on the next read or once the queue
        # fills.  The bound keeps memory flat (and the pipeline cost
        # amortized) even if nothing ever scrapes.
        with self._lock:
            queue = self._queue
            queue.append((trace.trace_id, trace.records, self.mode))
            if len(queue) >= 1024:
                self._drain_locked()


#: Process-wide default tracer (the CLI and any bare ``CarCsApi`` use
#: it); tests and benchmarks construct private tracers and hand them to
#: the web layer instead.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


# -- rendering ------------------------------------------------------------


def _format_attributes(attributes: dict[str, Any]) -> str:
    if not attributes:
        return ""
    inner = " ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
    return f"  [{inner}]"


def _emit(lines: list[str], node: dict[str, Any], depth: int,
          hidden: str | None = None) -> None:
    """Append one span node (``Span.as_dict`` shape) and its subtree,
    indented by ``depth``; the attribute named ``hidden`` is left out."""
    marker = " !" if node.get("status") == "error" else ""
    process = node.get("process")
    label = f" @{process}" if process else ""
    attrs = {
        k: v for k, v in (node.get("attributes") or {}).items() if k != hidden
    }
    lines.append(
        f"{'  ' * depth}- {node.get('name', '?')}{marker}{label}  "
        f"{node.get('wall_ms', 0.0):.3f}ms "
        f"(self {node.get('self_ms', 0.0):.3f}ms, "
        f"cpu {node.get('cpu_ms', 0.0):.3f}ms)"
        f"{_format_attributes(attrs)}"
    )
    if node.get("error"):
        lines.append(f"{'  ' * (depth + 1)}error: {node['error']}")
    for child in node.get("children") or ():
        _emit(lines, child, depth + 1, hidden)


def render_text(record: TraceRecord) -> str:
    """Indented span tree with per-span wall/self/CPU time — the
    ``carcs trace`` output for one local segment."""
    lines = [
        f"trace {record.trace_id}  status={record.root.status}  "
        f"spans={record.span_count}  "
        f"duration={(record.root.wall_s or 0.0) * 1e3:.3f}ms"
        + ("  SLOW" if record.slow else "")
    ]
    _emit(lines, record.root.as_dict(), 0)
    return "\n".join(lines)


# -- cross-process stitching ----------------------------------------------


def stitch_trace(
    trace_id: str,
    segments: list[tuple[str, dict[str, Any]]],
) -> dict[str, Any]:
    """Merge per-process span trees into one fleet-wide tree.

    ``segments`` is ``(process label, span-tree dict)`` pairs — each
    tree the ``root`` of one process's stored segment (``Span.as_dict``
    shape).  A segment whose root carries a ``remote_parent`` attribute
    is attached as a child of the span with that id, wherever it lives;
    segment roots are labelled with their ``process`` so the rendered
    tree shows every hop.  Children are ordered by ``start_ts`` under
    every segment root and every span that received a segment.  Roots that name an unknown parent (their
    caller's segment was sampled out or evicted) surface under
    ``unlinked`` rather than vanishing.
    """
    roots: list[dict[str, Any]] = []
    nodes: dict[str, dict[str, Any]] = {}
    owner: dict[str, int] = {}  # span id -> index of its segment root
    for index, (process, tree) in enumerate(segments):
        if not isinstance(tree, dict) or "name" not in tree:
            continue
        tree["process"] = process
        stack = [tree]
        while stack:
            node = stack.pop()
            sid = node.get("span_id")
            if sid and sid not in nodes:
                nodes[sid] = node
                owner[sid] = index
            stack.extend(node.get("children") or ())
        roots.append(tree)

    attached_to: dict[int, int] = {}  # segment index -> parent segment index

    def _would_cycle(child: int, parent: int) -> bool:
        seen = {child}
        cursor: int | None = parent
        while cursor is not None:
            if cursor in seen:
                return True
            seen.add(cursor)
            cursor = attached_to.get(cursor)
        return False

    top: list[dict[str, Any]] = []
    # Spans whose children gained a remote segment, and so need re-sorting.
    grafted: dict[str, dict[str, Any]] = {}
    for index, tree in enumerate(roots):
        parent_id = (tree.get("attributes") or {}).get(REMOTE_PARENT_ATTR)
        parent = nodes.get(parent_id) if parent_id else None
        if parent is not None and not _would_cycle(index, owner[parent_id]):
            parent.setdefault("children", []).append(tree)
            tree["parent_id"] = parent_id
            attached_to[index] = owner[parent_id]
            grafted[parent_id] = parent
        else:
            top.append(tree)
    top.sort(key=lambda t: t.get("start_ts") or 0.0)
    for node in (*roots, *grafted.values()):
        children = node.get("children")
        if children:
            children.sort(key=lambda c: c.get("start_ts") or 0.0)
    return {
        "trace_id": trace_id,
        "spans": len(nodes),
        "segments": len(roots),
        "processes": sorted({t["process"] for t in roots}),
        "root": top[0] if top else None,
        "unlinked": top[1:],
    }


def render_tree(payload: dict[str, Any]) -> str:
    """Render a stitched trace payload (dict span trees, as served by
    the front tier's ``GET /api/v2/traces/<id>``) — the fleet-wide
    ``carcs trace --id`` output.  Segment roots carry ``@process``
    labels so every hop is visible."""
    processes = ",".join(payload.get("processes") or ()) or "?"
    lines = [
        f"trace {payload.get('trace_id', '?')}  "
        f"spans={payload.get('spans', 0)}  "
        f"segments={payload.get('segments', 0)}  "
        f"processes={processes}"
    ]
    root = payload.get("root")
    if root:
        _emit(lines, root, 0, REMOTE_PARENT_ATTR)
    for tree in payload.get("unlinked") or ():
        lines.append("unlinked segment (caller's segment not retained):")
        _emit(lines, tree, 1, REMOTE_PARENT_ATTR)
    return "\n".join(lines)

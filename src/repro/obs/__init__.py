"""Observability substrate: metrics + tracing.

The paper's prototype was a hosted web service with no way to answer
"how fast is /coverage right now?" or "which routes are erroring?".
This package provides the two primitives the ROADMAP's production
target needs: a process-local :class:`MetricsRegistry` (counters,
gauges, fixed-bucket latency histograms — all thread-safe) and a
:class:`Tracer` producing hierarchical per-request :class:`Span` trees
that attribute latency across the web → core → db layers.  The web
middleware chain records one telemetry event per request — the two
``http_*`` series plus the root span, whose trace id is the request id;
``GET /api/v1/metrics`` exports the registry (JSON or Prometheus text)
and ``GET /api/v1/traces`` pages over retained traces.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from .runtime import collect_runtime_metrics
from .slo import SloMonitor
from .trace import (
    MODE_ALL,
    MODE_OFF,
    MODE_SAMPLED,
    NULL_SPAN,
    REMOTE_PARENT_ATTR,
    TRACEPARENT_HEADER,
    TRACER,
    Span,
    TraceRecord,
    Tracer,
    TraceStore,
    current_span,
    current_trace_id,
    current_traceparent,
    format_traceparent,
    get_tracer,
    parse_traceparent,
    render_text,
    render_tree,
    span,
    stitch_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MODE_ALL",
    "MODE_OFF",
    "MODE_SAMPLED",
    "MetricsRegistry",
    "NULL_SPAN",
    "REMOTE_PARENT_ATTR",
    "SloMonitor",
    "Span",
    "TRACEPARENT_HEADER",
    "TRACER",
    "TraceRecord",
    "TraceStore",
    "Tracer",
    "collect_runtime_metrics",
    "current_span",
    "current_trace_id",
    "current_traceparent",
    "format_traceparent",
    "get_tracer",
    "parse_traceparent",
    "render_prometheus",
    "render_text",
    "render_tree",
    "span",
    "stitch_trace",
]

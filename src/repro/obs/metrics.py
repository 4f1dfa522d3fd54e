"""Thread-safe in-process metrics: counters, gauges, histograms.

Deliberately Prometheus-shaped (names + label sets, cumulative-bucket
histograms) but dependency-free and JSON-exportable, so the registry can
be served straight from ``GET /api/v1/metrics`` and scraped, diffed or
asserted on in tests.  All mutation goes through per-metric locks; the
registry itself locks only metric creation, so hot-path increments never
contend on a global lock.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable

# Upper bounds (seconds) tuned for an in-process API: sub-millisecond
# cache hits up to multi-second cold similarity passes.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

Labels = tuple[tuple[str, str], ...]


def _freeze_labels(labels: dict[str, Any]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, double quote, newline.

    Without this, a label value containing ``"`` or a newline (route
    labels are derived from request data) produces exposition output no
    scraper can parse.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_suffix(labels: Labels, extra: Labels = ()) -> str:
    items = (*labels, *extra)
    if not items:
        return ""
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in items)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def as_dict(self) -> dict[str, Any]:
        return {"value": self._value}


class Gauge:
    """A value that can go up and down (queue depth, cache size, ...)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> dict[str, Any]:
        return {"value": self._value}


class Histogram:
    """Fixed-bucket histogram (latencies, sizes).

    ``bounds`` are inclusive upper edges; one implicit +inf bucket catches
    the overflow.  ``observe`` is O(log buckets); export reports both raw
    per-bucket counts and Prometheus-style cumulative counts.
    """

    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate bucket bounds")
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last slot = +inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def counts(self) -> list[int]:
        """Raw per-bucket counts (last element is the +inf bucket)."""
        return list(self._counts)

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, count_at_or_below)`` pairs, ending at +inf."""
        out = []
        running = 0
        with self._lock:
            for bound, n in zip(self.bounds, self._counts):
                running += n
                out.append((bound, running))
            out.append((float("inf"), running + self._counts[-1]))
        return out

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in zip(self.bounds, self._counts)
            ] + [{"le": "+inf", "count": self._counts[-1]}],
        }


class MetricsRegistry:
    """Named, labelled metrics with get-or-create semantics.

    ``registry.counter("http_requests_total", route="GET /api/v1/stats",
    status="2xx").inc()`` — the (name, labels) pair identifies the series;
    re-registering the same series with a different metric kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, Labels], Any] = {}

    def _get_or_create(self, name: str, labels: dict[str, Any],
                       factory, kind: str):
        key = (name, _freeze_labels(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, labels, Counter, "counter")

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, labels, Gauge, "gauge")

    def histogram(self, name: str, *, buckets: Iterable[float] | None = None,
                  **labels: Any) -> Histogram:
        factory = (lambda: Histogram(buckets)) if buckets is not None else Histogram
        return self._get_or_create(name, labels, factory, "histogram")

    def value(self, name: str, **labels: Any) -> float:
        """A counter's or gauge's current value, 0 when the series does
        not exist — a read that never adds an empty series to the
        export."""
        metric = self._metrics.get((name, _freeze_labels(labels)))
        return metric.value if metric is not None else 0

    def series(self) -> list[tuple[str, Labels, Any]]:
        with self._lock:
            return [(name, labels, metric)
                    for (name, labels), metric in sorted(self._metrics.items())]

    def __len__(self) -> int:
        return len(self._metrics)

    def export(self) -> dict[str, dict[str, Any]]:
        """JSON-ready snapshot grouped by metric kind; series keys are
        ``name{label=value,...}`` strings."""
        out: dict[str, dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name, labels, metric in self.series():
            key = name + _label_suffix(labels)
            out[metric.kind + "s"][key] = metric.as_dict()
        return out

    def reset(self) -> None:
        """Drop every series (tests and bench harnesses)."""
        with self._lock:
            self._metrics.clear()


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition (format 0.0.4) of the whole registry.

    Histograms expand to cumulative ``_bucket`` series (``le`` upper
    bounds, ``+Inf`` last) plus ``_sum``/``_count``; label values are
    escaped so routes containing quotes or newlines stay parseable.
    Served by ``GET /api/v1/metrics?format=prometheus``.
    """
    lines: list[str] = []
    typed: set[str] = set()
    for name, labels, metric in registry.series():
        if name not in typed:
            lines.append(f"# TYPE {name} {metric.kind}")
            typed.add(name)
        if metric.kind == "histogram":
            for bound, cum in metric.cumulative():
                le = (("le", _format_number(bound)),)
                lines.append(
                    f"{name}_bucket{_label_suffix(labels, le)} {cum}"
                )
            lines.append(
                f"{name}_sum{_label_suffix(labels)} "
                f"{_format_number(metric.sum)}"
            )
            lines.append(
                f"{name}_count{_label_suffix(labels)} {metric.count}"
            )
        else:
            lines.append(
                f"{name}{_label_suffix(labels)} "
                f"{_format_number(metric.value)}"
            )
    return "\n".join(lines) + "\n"

"""Windowed SLOs with multi-window burn rates over the live registry.

The metrics layer (PR 2) exports *cumulative* counters and histograms —
`http_requests_total` only ever grows, so it can say "42 errors since
boot" but never "are we burning error budget **right now**?".  This
module adds the rate layer on top without touching the hot path: a
:class:`SloMonitor` snapshots the registry's request counters and
latency histograms whenever it is read (at most once per
``min_sample_interval``), keeps a bounded ring of samples, and derives
per-window rates by diffing the freshest sample against the one closest
to each window's start.

Two objectives, in the shape SRE practice expects:

* **Availability** — the fraction of requests that did not answer 5xx
  (4xx is the client's budget, not ours).  Target
  ``CARCS_SLO_AVAILABILITY`` (default 0.999).
* **Latency** — the fraction of requests at or under
  ``CARCS_SLO_LATENCY_MS`` (default 100 ms, a bucket bound of the
  default latency histogram), target ``CARCS_SLO_LATENCY_TARGET``
  (default 0.95).

Each objective reports per window (default 5 m and 1 h) its ratio and
its **burn rate** — bad-event ratio divided by the budget ``1 −
target``.  Burn 1.0 means the budget exactly lasts the SLO period;
a sustained 5-minute burn above ~14 pages, a 1-hour burn above ~2
warns: the classic fast/slow multi-window policy falls out of the two
windows without any extra machinery.  ``GET /api/v2/slo`` serves
:meth:`SloMonitor.report` and :meth:`SloMonitor.export` mirrors it into
``carcs_slo_*`` gauges on every metrics scrape.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Callable

from .metrics import MetricsRegistry

ENV_AVAILABILITY = "CARCS_SLO_AVAILABILITY"
ENV_LATENCY_MS = "CARCS_SLO_LATENCY_MS"
ENV_LATENCY_TARGET = "CARCS_SLO_LATENCY_TARGET"

DEFAULT_AVAILABILITY_TARGET = 0.999
DEFAULT_LATENCY_THRESHOLD_MS = 100.0
DEFAULT_LATENCY_TARGET = 0.95

#: (label, seconds) — the short window catches fast budget burn, the
#: long one filters noise; both serve from the same sample ring.
DEFAULT_WINDOWS = (("5m", 300.0), ("1h", 3600.0))

#: Series the monitor reads (produced by the web telemetry middleware).
REQUESTS_METRIC = "http_requests_total"
LATENCY_METRIC = "http_request_seconds"


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except ValueError:
        return default


class _Sample:
    """One point-in-time aggregation of the request counters."""

    __slots__ = ("ts", "requests", "errors", "latency_total",
                 "latency_fast", "cumulative")

    def __init__(self, ts: float, requests: int, errors: int,
                 latency_total: int, latency_fast: int,
                 cumulative: dict[float, int]) -> None:
        self.ts = ts
        self.requests = requests
        self.errors = errors
        self.latency_total = latency_total
        self.latency_fast = latency_fast
        #: histogram upper bound -> cumulative count, summed over routes.
        self.cumulative = cumulative


class SloMonitor:
    """Derive windowed availability/latency SLOs from a registry.

    Reading (:meth:`report` / :meth:`export`) is what advances the
    sample ring — the request hot path is never touched.  The clock is
    injectable so tests drive windows deterministically.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        availability_target: float | None = None,
        latency_target: float | None = None,
        latency_threshold_ms: float | None = None,
        windows: tuple[tuple[str, float], ...] = DEFAULT_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
        min_sample_interval: float = 1.0,
        max_samples: int = 4096,
    ) -> None:
        self.registry = registry
        self.availability_target = (
            availability_target if availability_target is not None
            else _env_float(ENV_AVAILABILITY, DEFAULT_AVAILABILITY_TARGET)
        )
        self.latency_target = (
            latency_target if latency_target is not None
            else _env_float(ENV_LATENCY_TARGET, DEFAULT_LATENCY_TARGET)
        )
        self.latency_threshold_ms = (
            latency_threshold_ms if latency_threshold_ms is not None
            else _env_float(ENV_LATENCY_MS, DEFAULT_LATENCY_THRESHOLD_MS)
        )
        self.windows = tuple(windows)
        self.clock = clock
        self.min_sample_interval = float(min_sample_interval)
        self._samples: deque[_Sample] = deque(maxlen=max_samples)
        self._lock = threading.Lock()
        # Seed a baseline at construction so the very first scrape of a
        # long-running server reports its traffic since start instead
        # of an empty two-sample-minimum window.
        self._samples.append(self._collect())

    # -- collection --------------------------------------------------------

    def _collect(self) -> _Sample:
        threshold_s = self.latency_threshold_ms * 1e-3
        requests = errors = 0
        latency_total = latency_fast = 0
        cumulative: dict[float, int] = {}
        for name, labels, metric in self.registry.series():
            if name == REQUESTS_METRIC and metric.kind == "counter":
                requests += metric.value
                if dict(labels).get("status") == "5xx":
                    errors += metric.value
            elif name == LATENCY_METRIC and metric.kind == "histogram":
                fast = 0
                for bound, cum in metric.cumulative():
                    cumulative[bound] = cumulative.get(bound, 0) + cum
                    if bound <= threshold_s:
                        # Cumulative counts grow with the bound, so the
                        # last bound at/under the threshold wins.
                        fast = cum
                latency_total += metric.count
                latency_fast += fast
        return _Sample(
            self.clock(), requests, errors,
            latency_total, latency_fast, cumulative,
        )

    def sample(self, *, force: bool = False) -> _Sample:
        """Append a fresh sample unless one was taken within
        ``min_sample_interval``; returns the freshest sample."""
        with self._lock:
            samples = self._samples
            now = self.clock()
            if samples and not force \
                    and now - samples[-1].ts < self.min_sample_interval:
                return samples[-1]
            current = self._collect()
            samples.append(current)
            return current

    # -- derivation --------------------------------------------------------

    def _baseline(self, now: float, seconds: float) -> _Sample | None:
        """The oldest sample still inside the window (or the oldest we
        have, when history is shorter than the window)."""
        with self._lock:
            base = None
            for s in reversed(self._samples):
                if now - s.ts > seconds:
                    break
                base = s
            if base is None and self._samples:
                base = self._samples[0]
            return base

    @staticmethod
    def _p99_ms(current: _Sample, base: _Sample) -> float:
        """Bucket-resolution p99 of the window's latency diff."""
        bounds = sorted(
            b for b in current.cumulative if b != float("inf")
        )
        total = (
            current.cumulative.get(float("inf"), 0)
            - base.cumulative.get(float("inf"), 0)
        )
        if total <= 0:
            return 0.0
        target = 0.99 * total
        for bound in bounds:
            diff = (
                current.cumulative.get(bound, 0)
                - base.cumulative.get(bound, 0)
            )
            if diff >= target:
                return round(bound * 1e3, 3)
        return round(bounds[-1] * 1e3, 3) if bounds else 0.0

    def _window_report(self, label: str, seconds: float,
                       current: _Sample) -> dict[str, Any]:
        base = self._baseline(current.ts, seconds) or current
        span = max(current.ts - base.ts, 0.0)
        requests = max(current.requests - base.requests, 0)
        errors = max(current.errors - base.errors, 0)
        lat_total = max(current.latency_total - base.latency_total, 0)
        lat_fast = max(current.latency_fast - base.latency_fast, 0)
        availability = 1.0 - (errors / requests) if requests else 1.0
        ok_ratio = (lat_fast / lat_total) if lat_total else 1.0
        avail_budget = max(1.0 - self.availability_target, 1e-9)
        lat_budget = max(1.0 - self.latency_target, 1e-9)
        return {
            "window": label,
            "seconds": seconds,
            "span_s": round(span, 3),
            "requests": requests,
            "req_s": round(requests / span, 3) if span else 0.0,
            "errors": errors,
            "availability": round(availability, 6),
            "availability_burn": round(
                (1.0 - availability) / avail_budget, 3
            ),
            "slow": lat_total - lat_fast,
            "latency_ok_ratio": round(ok_ratio, 6),
            "latency_burn": round((1.0 - ok_ratio) / lat_budget, 3),
            "p99_ms": self._p99_ms(current, base),
        }

    def report(self) -> dict[str, Any]:
        """The ``GET /api/v2/slo`` payload: targets, per-window rates,
        lifetime totals.  Taking the report is what samples the
        registry, so burn rates always reflect the live histograms."""
        current = self.sample()
        return {
            "targets": {
                "availability": self.availability_target,
                "latency_target": self.latency_target,
                "latency_threshold_ms": self.latency_threshold_ms,
            },
            "windows": {
                label: self._window_report(label, seconds, current)
                for label, seconds in self.windows
            },
            "totals": {
                "requests": current.requests,
                "errors": current.errors,
                "samples": len(self._samples),
            },
        }

    def export(self, registry: MetricsRegistry | None = None) -> dict[str, Any]:
        """Mirror the report into ``carcs_slo_*`` gauges (on ``registry``
        or the monitored one) and return it — called at scrape time so
        one exposition carries objectives beside the raw series."""
        target = registry if registry is not None else self.registry
        report = self.report()
        target.gauge("carcs_slo_target", slo="availability").set(
            report["targets"]["availability"]
        )
        target.gauge("carcs_slo_target", slo="latency").set(
            report["targets"]["latency_target"]
        )
        for label, window in report["windows"].items():
            target.gauge(
                "carcs_slo_ratio", slo="availability", window=label,
            ).set(window["availability"])
            target.gauge(
                "carcs_slo_burn_rate", slo="availability", window=label,
            ).set(window["availability_burn"])
            target.gauge(
                "carcs_slo_ratio", slo="latency", window=label,
            ).set(window["latency_ok_ratio"])
            target.gauge(
                "carcs_slo_burn_rate", slo="latency", window=label,
            ).set(window["latency_burn"])
        return report


__all__ = [
    "DEFAULT_AVAILABILITY_TARGET",
    "DEFAULT_LATENCY_TARGET",
    "DEFAULT_LATENCY_THRESHOLD_MS",
    "DEFAULT_WINDOWS",
    "SloMonitor",
]

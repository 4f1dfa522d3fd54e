"""Structured request logging with per-request ids.

Every request that flows through the web middleware gets a short unique
id (or reuses the ``X-Request-Id`` a proxy already stamped); the same id
appears in the response headers, in error envelopes, and in the records
kept here — so one grep correlates a client-reported failure with the
server-side record.  Records are plain dicts in a bounded ring buffer,
optionally mirrored to a stdlib logger as single-line JSON.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import uuid
from collections import deque
from typing import Any


def new_request_id() -> str:
    """A short, collision-resistant request id (96 random bits, hex)."""
    return uuid.uuid4().hex[:24]


class RequestLog:
    """Bounded, thread-safe ring buffer of structured request records."""

    def __init__(self, capacity: int = 1024,
                 logger: logging.Logger | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.logger = logger
        #: Optional MetricsRegistry; when attached (the web layer does),
        #: every drop updates the ``carcs_request_log_dropped`` gauge so
        #: scrapers see record loss as it happens, not only at scrape
        #: time.
        self.metrics = None
        self._lock = threading.Lock()
        self._records: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._dropped = 0

    def record(self, **fields: Any) -> dict[str, Any]:
        """Append one structured record; ``ts`` is stamped automatically."""
        entry = {"ts": time.time(), **fields}
        with self._lock:
            dropped = len(self._records) == self.capacity
            if dropped:
                self._dropped += 1
            self._records.append(entry)
        if dropped and self.metrics is not None:
            self.metrics.gauge("carcs_request_log_dropped").set(self._dropped)
        if self.logger is not None:
            self.logger.info(json.dumps(entry, sort_keys=True, default=str))
        return entry

    def find(self, request_id: str) -> list[dict[str, Any]]:
        with self._lock:
            return [r for r in self._records if r.get("request_id") == request_id]

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound (visibility into loss)."""
        return self._dropped

    def snapshot(self, n: int = 50) -> dict[str, Any]:
        """Bounded view of the log *including* its loss accounting —
        consumers of the records can tell how much history is missing."""
        with self._lock:
            records = list(self._records)
        return {
            "capacity": self.capacity,
            "size": len(records),
            "dropped": self._dropped,
            "records": records[-n:],
        }

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._dropped = 0

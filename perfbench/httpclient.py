"""The closed-loop HTTP client of the ``browse`` and ``curate`` workloads:
one keep-alive HTTP/1.1 connection to a live ``ApiServer``."""

from __future__ import annotations

import http.client
import json
from typing import Any

from harness import SpanLog


class KeepAliveClient:
    """Sends one request at a time and waits for the whole reply.

    ``sent_bytes`` counts request body bytes (the user bytes a curator
    writes). The request is timed by the caller; the client-side span
    (layer ``web.http``) covers request, reply and body read, so its
    self time is the socket and ``http.server`` cost around the
    application call.
    """

    def __init__(self, port: int, log: SpanLog | None = None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.log = log
        self.sent_bytes = 0

    def call(self, method: str, path: str,
             body: Any = None) -> tuple[int, bytes]:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["content-type"] = "application/json"
            self.sent_bytes += len(payload)
        if self.log is not None and self.log.active:
            with self.log.span("http.request", "web.http", cross=True):
                return self._send(method, path, payload, headers)
        return self._send(method, path, payload, headers)

    def _send(self, method, path, payload, headers) -> tuple[int, bytes]:
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def decode(reply: tuple[int, bytes], *statuses: int) -> Any:
    """The JSON body of a reply whose status is one of ``statuses``."""
    status, body = reply
    if status not in statuses:
        raise AssertionError(f"HTTP {status}: {body[:200]!r}")
    return json.loads(body)

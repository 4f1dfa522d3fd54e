"""Serve the CAR-CS API over real HTTP (stdlib ``http.server``).

The in-process application object is transport-agnostic; this adapter
binds it to a TCP socket so the prototype can actually be browsed or
curl'ed, standing in for the paper's Heroku deployment.  Threaded by
default — the application pipeline is concurrency-safe (lock-free
snapshot reads, one writer lock around the repository's mutations,
locked caches, thread-safe metrics), so one slow ``/similarity`` no
longer blocks every other client.  Pass
``threaded=False`` for a strictly serial server (e.g. when bisecting a
concurrency bug).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from typing import Callable

from .http import Request, Response, error_response


def _make_handler(app: Callable[[Request], Response]):
    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 enables keep-alive: clients (and the throughput
        # benches) reuse one connection instead of paying a TCP
        # handshake + handler thread per request.  Safe because every
        # response carries an explicit content-length.  TCP_NODELAY is
        # required alongside it — headers and body go out as separate
        # writes, and Nagle + delayed ACK otherwise stalls every
        # keep-alive response by ~40ms.
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        # Keep test logs quiet; real deployments would override this.
        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass

        def _dispatch(self, method: str) -> None:
            try:
                length = int(self.headers.get("content-length") or 0)
                if length < 0:
                    raise ValueError(length)
                body = self.rfile.read(length).decode("utf-8") if length else None
            except UnicodeDecodeError:
                response = error_response(
                    400, "request body is not valid UTF-8"
                )
            except ValueError:
                # Body framing is lost: answer, then close the connection
                # (the header makes the handler stop reading) rather than
                # parse the body as the next request.
                response = error_response(400, "invalid content-length header")
                response.headers["connection"] = "close"
            else:
                response = app(Request.build(
                    method, self.path, body=body,
                    headers={k.lower(): v for k, v in self.headers.items()},
                ))
            content_type = response.headers.get("content-type", "")
            if response.status == 304:
                # 304 carries validators (ETag) but no body.
                payload = b""
                headers = dict(response.headers)
            elif (
                isinstance(response.payload, str)
                and content_type
                and "application/json" not in content_type
            ):
                # Plain-text payloads (Prometheus exposition) go out
                # verbatim under their declared content type.
                payload = response.payload.encode("utf-8")
                headers = dict(response.headers)
            else:
                payload = json.dumps(response.payload, default=str).encode("utf-8")
                headers = {"content-type": "application/json", **response.headers}
            self.send_response(response.status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("content-length", str(len(payload)))
            self.end_headers()
            if payload:
                self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        def do_PATCH(self) -> None:  # noqa: N802
            self._dispatch("PATCH")

        def do_DELETE(self) -> None:  # noqa: N802
            self._dispatch("DELETE")

    return Handler


class ApiServer:
    """A CAR-CS API bound to ``host:port``.

    Use as a context manager in tests::

        with ApiServer(app, port=0) as server:
            urllib.request.urlopen(f"http://127.0.0.1:{server.port}/stats")
    """

    def __init__(
        self,
        app: Callable[[Request], Response],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        threaded: bool = True,
    ) -> None:
        server_cls = ThreadingHTTPServer if threaded else HTTPServer
        self._httpd = server_cls((host, port), _make_handler(app))
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ApiServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def serve_forever(self) -> None:
        """Blocking serve (Ctrl-C to stop) — the ``carcs``-style dev server."""
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()

    def __enter__(self) -> "ApiServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

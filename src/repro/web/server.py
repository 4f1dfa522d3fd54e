"""Serve the CAR-CS API over real HTTP.

The in-process application object is transport-agnostic; this adapter
binds it to a TCP socket so the prototype can actually be browsed or
curl'ed, standing in for the paper's Heroku deployment.  It keeps the
stdlib ``http.server`` connection loop (keep-alive, request-line and
version errors, 414/431, ``Expect: 100-continue``), reads each header
block straight into a dict (:func:`read_headers`) and writes each
response — status line, headers and the body the response already
carries encoded — with one ``sendall``.  Threaded by
default — the application pipeline is concurrency-safe (lock-free
snapshot reads, one writer lock around the repository's mutations,
locked caches, thread-safe metrics), so one slow ``/similarity`` no
longer blocks every other client.  Pass
``threaded=False`` for a strictly serial server (e.g. when bisecting a
concurrency bug).
"""

from __future__ import annotations

import re
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from typing import BinaryIO, Callable

from .http import Request, Response, error_response

#: ``http.client``'s limits: bytes in one header line, and lines in one
#: header block (the blank line ending it included).
MAX_LINE = 65536
MAX_HEADERS = 100

#: Lines as the ``email`` parser splits a header block (a bare CR ends
#: a line too), each with its line end.
_LINES = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
#: The ``email`` parser's test for a line of the header block: a field
#: name and colon, a fold (leading blank) or a ``From `` envelope line.
#: Any other line (the blank one included) ends the block.
_HEADER_LINE = re.compile(r"From |[\041-\071\073-\176]*:|[\t ]")


class HeaderBlockError(Exception):
    """A header block over :data:`MAX_LINE` or :data:`MAX_HEADERS`."""

    def __init__(self, message: str, explain: str) -> None:
        super().__init__(explain)
        self.message = message
        self.explain = explain


def read_headers(rfile: BinaryIO) -> tuple[dict[str, str], dict[str, str]]:
    """Read one request's header block as ``http.client.parse_headers``
    and its ``email`` parser read it.

    Returns two dicts keyed by lower-cased field name: each field's last
    value (what the application sees) and its first (what framing reads:
    ``Content-Length``, ``Connection``, ``Expect``).  A folded value
    keeps its line breaks; a line without a field name ends the block,
    whose remaining lines are read and dropped.
    """
    block = []
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeaderBlockError(
                "Line too long",
                f"got more than {MAX_LINE} bytes when reading header line",
            )
        block.append(line)
        if len(block) > MAX_HEADERS:
            raise HeaderBlockError(
                "Too many headers", f"got more than {MAX_HEADERS} headers",
            )
        if line in (b"\r\n", b"\n", b""):
            break
    fields = []  # [name, value] per field, its folds appended
    field = None
    for line in _LINES.findall(b"".join(block).decode("iso-8859-1")):
        if not _HEADER_LINE.match(line):
            break
        if line[0] in " \t":
            if field is not None:
                field[1] += line
            continue
        field = None
        colon = line.find(":")
        # An envelope line or a missing name is skipped, with its folds.
        if colon > 0 and not line.startswith("From "):
            field = [line[:colon].lower(), line[colon + 1:].lstrip(" \t")]
            fields.append(field)
    last: dict[str, str] = {}
    first: dict[str, str] = {}
    for name, value in fields:
        value = value.rstrip("\r\n")
        last[name] = value
        first.setdefault(name, value)
    return last, first


def _make_handler(app: Callable[[Request], Response]):
    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 enables keep-alive: clients (and the throughput
        # benches) reuse one connection instead of paying a TCP
        # handshake + handler thread per request.  Safe because every
        # response carries an explicit content-length.  TCP_NODELAY
        # keeps the tail segment of a large response from waiting on
        # the client's delayed ACK (~40ms per keep-alive response).
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        # Keep test logs quiet; real deployments would override this.
        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass

        def parse_request(self) -> bool:
            """The stdlib's request-line checks, with the header block
            read by :func:`read_headers` into ``self.headers`` (last
            values) and ``self.first_headers`` (first values)."""
            self.command = None
            self.request_version = version = self.default_request_version
            self.close_connection = True
            requestline = str(self.raw_requestline, "iso-8859-1")
            requestline = requestline.rstrip("\r\n")
            self.requestline = requestline
            words = requestline.split()
            if not words:
                return False
            if len(words) >= 3:
                version = words[-1]
                base = version[5:]
                numbers = base.split(".")
                if not (
                    version.startswith("HTTP/") and len(numbers) == 2
                    and all(n.isdigit() and len(n) <= 10 for n in numbers)
                ):
                    self.send_error(HTTPStatus.BAD_REQUEST,
                                    f"Bad request version ({version!r})")
                    return False
                number = int(numbers[0]), int(numbers[1])
                if number >= (1, 1):
                    self.close_connection = False
                if number >= (2, 0):
                    self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                    f"Invalid HTTP version ({base})")
                    return False
                self.request_version = version
            if not 2 <= len(words) <= 3:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad request syntax ({requestline!r})")
                return False
            command, path = words[:2]
            if len(words) == 2:
                self.close_connection = True
                if command != "GET":
                    self.send_error(HTTPStatus.BAD_REQUEST,
                                    f"Bad HTTP/0.9 request type ({command!r})")
                    return False
            # A leading '//' would read as a scheme-less absolute URI.
            if path.startswith("//"):
                path = "/" + path.lstrip("/")
            self.command, self.path = command, path
            try:
                self.headers, self.first_headers = read_headers(self.rfile)
            except HeaderBlockError as exc:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                                exc.message, exc.explain)
                return False
            connection = self.first_headers.get("connection", "").lower()
            if connection == "close":
                self.close_connection = True
            elif connection == "keep-alive":
                self.close_connection = False
            expect = self.first_headers.get("expect", "")
            if (expect.lower() == "100-continue"
                    and self.request_version >= "HTTP/1.1"):
                return self.handle_expect_100()
            return True

        def _dispatch(self, method: str) -> None:
            try:
                length = int(self.first_headers.get("content-length") or 0)
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
                    method, self.path, body=body, headers=self.headers,
                ))
            self._send(response)

        def _send(self, response: Response) -> None:
            """Status line, headers and body in one write."""
            body = response.body
            if self.request_version == "HTTP/0.9":
                if body:
                    self.wfile.write(body)
                return
            status = response.status
            reason = self.responses.get(status, ("",))[0]
            head = [
                f"{self.protocol_version} {status} {reason}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
            ]
            headers = response.headers
            if status != 304 and "content-type" not in headers:
                head.append("content-type: application/json\r\n")
            for name, value in headers.items():
                head.append(f"{name}: {value}\r\n")
                if name.lower() == "connection":
                    if value.lower() == "close":
                        self.close_connection = True
                    elif value.lower() == "keep-alive":
                        self.close_connection = False
            head.append(f"content-length: {len(body)}\r\n\r\n")
            self.wfile.write("".join(head).encode("latin-1", "strict") + body)

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

"""Header conformance of the socket server against ``http.client``.

The server reads each request's header block itself.  Every row of the
table goes over a real socket to an echo application, and what the
application sees must equal what ``http.client.parse_headers`` (with
its ``email`` parser) makes of the same bytes, read the way
``BaseHTTPRequestHandler`` reads them:

* ``Request.headers`` maps each lower-cased name to its *last* value;
* body framing uses the *first* ``Content-Length``;
* more than 100 header lines, or a line over 65536 bytes, is a 431;
* ``Connection`` and ``Expect: 100-continue`` keep their stdlib meaning.
"""

import http.client
import io
import json
import socket

import pytest

from repro.web.http import Request, Response, json_response
from repro.web.server import ApiServer


def echo(request: Request) -> Response:
    return json_response({"headers": request.headers, "body": request.body})


@pytest.fixture(scope="module")
def server():
    with ApiServer(echo, port=0) as srv:
        yield srv


def _connect(server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=5)


def _read_response(sock: socket.socket) -> http.client.HTTPResponse:
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response


def _closed(sock: socket.socket) -> bool:
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False


#: Header blocks (without the blank line ending them) and a body.
ROWS = {
    "mixed case": (b"Host: x\r\nX-Mixed-Case: v\r\nACCEPT: a/b\r\n", b""),
    "duplicates keep the last": (b"X-Dup: 1\r\nx-dup: 2\r\nX-DUP: 3\r\n", b""),
    "duplicate content-length frames by the first": (
        b"Content-Length: 2\r\nContent-Length: 9\r\n", b"ab"),
    "obs-fold": (b"X-Fold: a\r\n b\r\n\tc\r\nX-After: d\r\n", b""),
    "empty values": (b"X-Empty:\r\nX-Blank: \r\n", b""),
    "padding": (b"X-Pad:   v  \r\nX-Url: http://a:b/c\r\n", b""),
    "a line without a colon ends the block": (
        b"X-A: 1\r\ngarbage\r\nX-B: 2\r\n", b""),
    "a name with a space ends the block": (
        b"X-A: 1\r\nBad Name: 2\r\nX-B: 3\r\n", b""),
    "missing name is skipped with its folds": (
        b"X-A: 1\r\n: v\r\n c\r\nX-B: 2\r\n", b""),
    "leading fold is skipped": (b" lead\r\nX-A: 1\r\n", b""),
    "envelope lines are skipped": (
        b"From nobody\r\nX-A: 1\r\nFrom x\r\n c\r\nX-B: 2\r\n", b""),
    "bare CR splits a line": (b"X-A: 1\rX-B: 2\r\n", b""),
    "CR CR LF ends the block": (b"X-A: 1\r\r\nX-B: 2\r\n", b""),
    "bare LF line ends": (b"X-A: 1\n b\nX-B: 2\n", b""),
    "latin-1 values": ("X-L: caf\xe9\r\n".encode("latin-1"), b""),
    "form feed and NEL stay inside a value": (
        b"X-A: a\x0cb\r\nX-B: c\x85d\x1ce\r\n", b""),
    "99 headers": (b"".join(b"X-H%d: %d\r\n" % (i, i) for i in range(99)),
                   b""),
    "longest line": (b"X-Long: " + b"v" * (65536 - 10) + b"\r\n", b""),
}


def _expected(block: bytes, body: bytes) -> dict:
    """What the stdlib path hands the application for ``block``."""
    message = http.client.parse_headers(io.BytesIO(block + b"\r\n"))
    length = int(message.get("content-length") or 0)
    return {
        "headers": {name.lower(): value for name, value in message.items()},
        "body": body[:length].decode() if length else None,
    }


@pytest.mark.parametrize("name", list(ROWS))
def test_header_block_reads_as_http_client_reads_it(server, name):
    block, body = ROWS[name]
    sock = _connect(server)
    try:
        sock.sendall(b"POST /echo HTTP/1.1\r\n" + block + b"\r\n" + body)
        response = _read_response(sock)
        assert response.status == 200
        assert json.loads(response.read()) == _expected(block, body)
        # Framing held: the connection serves a second request.
        sock.sendall(b"GET /echo HTTP/1.1\r\nX-Next: 1\r\n\r\n")
        follow_up = _read_response(sock)
        assert json.loads(follow_up.read())["headers"] == {"x-next": "1"}
    finally:
        sock.close()


@pytest.mark.parametrize("block, reason", [
    (b"".join(b"X-H%d: %d\r\n" % (i, i) for i in range(100)),
     "Too many headers"),
    (b"X-Long: " + b"v" * (65536 - 9) + b"\r\n", "Line too long"),
])
def test_oversized_block_is_a_431_and_closes(server, block, reason):
    sock = _connect(server)
    try:
        sock.sendall(b"GET /echo HTTP/1.1\r\n" + block + b"\r\n")
        response = _read_response(sock)
        assert (response.status, response.reason) == (431, reason)
        assert response.getheader("connection") == "close"
        response.read()
        assert _closed(sock)
    finally:
        sock.close()


@pytest.mark.parametrize("connection, stays_open", [
    (None, False),
    ("keep-alive", True),
    ("Keep-Alive", True),
])
def test_http10_closes_unless_kept_alive(server, connection, stays_open):
    head = b"GET /echo HTTP/1.0\r\n"
    if connection is not None:
        head += b"Connection: " + connection.encode() + b"\r\n"
    sock = _connect(server)
    try:
        sock.sendall(head + b"\r\n")
        response = _read_response(sock)
        assert response.status == 200
        response.read()
        if stays_open:
            sock.sendall(b"GET /echo HTTP/1.1\r\n\r\n")
            assert _read_response(sock).status == 200
        else:
            assert _closed(sock)
    finally:
        sock.close()


def test_http11_connection_close_closes(server):
    sock = _connect(server)
    try:
        sock.sendall(b"GET /echo HTTP/1.1\r\nConnection: close\r\n\r\n")
        response = _read_response(sock)
        assert response.status == 200
        response.read()
        assert _closed(sock)
    finally:
        sock.close()


def test_expect_100_continue_gets_an_interim_response(server):
    sock = _connect(server)
    try:
        sock.sendall(b"POST /echo HTTP/1.1\r\nContent-Length: 4\r\n"
                     b"Expect: 100-continue\r\n\r\n")
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            chunk = sock.recv(1)
            assert chunk, "connection closed before 100 Continue"
            interim += chunk
        assert interim.startswith(b"HTTP/1.1 100 Continue\r\n")
        sock.sendall(b"ping")
        response = _read_response(sock)
        assert response.status == 200
        assert json.loads(response.read())["body"] == "ping"
    finally:
        sock.close()


def _reply(sock: socket.socket) -> bytes:
    """Everything the server sends before it closes the connection."""
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


@pytest.mark.parametrize("line, status, status_line", [
    # A version error is answered before the version is known, so the
    # stdlib answers it HTTP/0.9-style: the error page without a head.
    (b"GET /echo HTTP/2.0", 505, False),
    (b"GET /echo HTTP/1.x", 400, False),
    (b"GET /echo FTP/1.1", 400, False),
    (b"GET /echo extra HTTP/1.1", 400, True),
    (b"POST /echo", 400, False),
    (b"BREW /echo HTTP/1.1", 501, True),
])
def test_request_line_errors_keep_their_answer(server, line, status,
                                               status_line):
    sock = _connect(server)
    try:
        sock.sendall(line + b"\r\n\r\n")
        reply = _reply(sock)
        assert b"<p>Error code: %d</p>" % status in reply
        assert reply.startswith(b"HTTP/1.1 %d " % status) == status_line
    finally:
        sock.close()


def test_http09_get_is_answered_without_a_head(server):
    sock = _connect(server)
    try:
        # The stdlib still reads a (here empty) header block.
        sock.sendall(b"GET /echo\r\n\r\n")
        reply = _reply(sock)
        assert json.loads(reply) == {"headers": {}, "body": None}
    finally:
        sock.close()


def test_overlong_request_line_is_a_414(server):
    sock = _connect(server)
    try:
        sock.sendall(b"GET /" + b"a" * 65537 + b" HTTP/1.1\r\n\r\n")
        response = _read_response(sock)
        assert response.status == 414
    finally:
        sock.close()

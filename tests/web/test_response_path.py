"""The socket server's response path costs one JSON encode and one write.

Each request below runs over a real keep-alive connection while
``json.dumps`` and ``socket.socket.sendall`` are counted: a JSON
response is encoded once (by ``json_response``, whose bytes the server
writes as they are), and status line, headers and body leave the server
in a single ``sendall``.  A 304 and the Prometheus text export encode
no JSON at all.  A router in front of a node passes the node's bytes
through: no decode and no second encode.
"""

import http.client
import json
import socket

import pytest

from repro.web import CarCsApi
from repro.web.front import FrontTier, HttpBackend
from repro.web.server import ApiServer


@pytest.fixture(scope="module")
def server(seeded_repo):
    with ApiServer(CarCsApi(seeded_repo), port=0) as srv:
        yield srv


class _Counts:
    def __init__(self, port: int) -> None:
        self.port = port
        self.encodes = 0
        self.writes = 0


@pytest.fixture
def counted(server, monkeypatch):
    """Counts every ``json.dumps`` call, and every ``sendall`` made on a
    socket bound to the server's port (the server's side only)."""
    counts = _Counts(server.port)
    dumps = json.dumps
    sendall = socket.socket.sendall

    def counting_dumps(*args, **kwargs):
        counts.encodes += 1
        return dumps(*args, **kwargs)

    def counting_sendall(sock, data, *args):
        if sock.getsockname()[1] == counts.port:
            counts.writes += 1
        return sendall(sock, data, *args)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
    return counts


def _exchange(server, counts, path, headers=None):
    """One GET on a fresh keep-alive connection; (status, body, encodes,
    writes) of that request alone."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    try:
        conn.connect()
        counts.encodes = counts.writes = 0
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        return response, body, counts.encodes, counts.writes
    finally:
        conn.close()


def test_json_get_is_one_encode_and_one_write(server, counted):
    response, body, encodes, writes = _exchange(
        server, counted, "/api/v2/materials/1")
    assert response.status == 200
    assert json.loads(body)["id"] == 1
    assert int(response.getheader("content-length")) == len(body)
    assert (encodes, writes) == (1, 1)


def test_not_modified_is_one_write_without_an_encode(server, counted):
    first, _, _, _ = _exchange(server, counted, "/api/v2/stats")
    etag = first.getheader("etag")
    response, body, encodes, writes = _exchange(
        server, counted, "/api/v2/stats", {"If-None-Match": etag})
    assert response.status == 304
    assert body == b""
    assert (encodes, writes) == (0, 1)


def test_error_envelope_is_one_encode_and_one_write(server, counted):
    response, body, encodes, writes = _exchange(
        server, counted, "/api/v2/no-such-resource",
        {"x-request-id": "count-404"})
    assert response.status == 404
    assert json.loads(body)["error"] == {
        "code": 404, "message": "no route for /api/v2/no-such-resource",
        "request_id": "count-404",
    }
    assert (encodes, writes) == (1, 1)


def test_v1_material_list_drops_kind_before_its_one_encode(server, counted):
    response, body, encodes, writes = _exchange(
        server, counted, "/api/v1/assignments?limit=3&offset=2")
    assert response.status == 200
    payload = json.loads(body)
    assert [sorted(item) for item in payload["items"]] == [
        ["collection", "id", "score", "title"]] * 3
    assert (payload["limit"], payload["offset"]) == (3, 2)
    assert (encodes, writes) == (1, 1)


def test_prometheus_text_is_one_write_without_an_encode(server, counted):
    response, body, encodes, writes = _exchange(
        server, counted, "/api/v2/metrics?format=prometheus")
    assert response.status == 200
    assert response.getheader("content-type").startswith("text/plain")
    assert b"http_requests_total" in body
    assert (encodes, writes) == (0, 1)


@pytest.fixture(scope="module")
def router(server):
    """A router on its own socket, proxying to ``server`` over HTTP."""
    front = FrontTier(HttpBackend("primary", server.url), [], name="router")
    with ApiServer(front, port=0) as srv:
        yield srv


def test_router_passes_the_backend_bytes_through(server, router, monkeypatch):
    """A proxied JSON 200 carries one of each framing header and the
    body bytes the backend wrote; the backend's encode is the only JSON
    work, so the router encodes and decodes nothing."""
    counts = {"encodes": 0, "decodes": 0}
    sent = []
    dumps, loads = json.dumps, json.loads
    sendall = socket.socket.sendall

    def counting_dumps(*args, **kwargs):
        counts["encodes"] += 1
        return dumps(*args, **kwargs)

    def counting_loads(*args, **kwargs):
        counts["decodes"] += 1
        return loads(*args, **kwargs)

    def recording_sendall(sock, data, *args):
        if sock.getsockname()[1] == server.port:
            sent.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
    conn = http.client.HTTPConnection("127.0.0.1", router.port, timeout=5)
    try:
        conn.request("GET", "/api/v2/materials/1")
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    work = dict(counts)
    assert response.status == 200
    for name in ("server", "date", "content-length", "content-type"):
        assert len(response.msg.get_all(name)) == 1, name
    assert int(response.getheader("content-length")) == len(body)
    [wire] = sent
    assert body == wire.partition(b"\r\n\r\n")[2]
    assert work == {"encodes": 1, "decodes": 0}

"""The real-HTTP adapter over the in-process application."""

import http.client
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.web import CarCsApi
from repro.web.server import ApiServer


@pytest.fixture(scope="module")
def server(seeded_repo):
    with ApiServer(CarCsApi(seeded_repo), port=0) as srv:
        yield srv


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.loads(response.read())


class TestHttpServer:
    def test_stats_over_tcp(self, server):
        status, body = get_json(f"{server.url}/api/v1/stats")
        assert status == 200
        assert body["materials"] >= 97

    def test_coverage_over_tcp(self, server):
        status, body = get_json(
            f"{server.url}/api/v1/coverage?collection=peachy&ontology=PDC12"
        )
        assert status == 200
        assert body["n_materials"] == 11

    def test_404_status_propagates(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            get_json(f"{server.url}/nonexistent")
        assert exc.value.code == 404

    def test_post_with_body(self, server):
        data = json.dumps({
            "text": "parallel sorting with OpenMP tasks",
        }).encode()
        request = urllib.request.Request(
            f"{server.url}/api/v1/recommend", data=data, method="POST",
            headers={"content-type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            body = json.loads(response.read())
        assert "suggestions" in body

    def test_port_assigned(self, server):
        assert server.port > 0
        assert str(server.port) in server.url


def raw_exchange(server, request: bytes, *, timeout: float = 3.0):
    """Send raw bytes on a fresh connection; return the parsed response
    and the still-open socket (the caller closes it)."""
    sock = socket.create_connection(("127.0.0.1", server.port),
                                    timeout=timeout)
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    body = json.loads(response.read())
    return response, body, sock


def post_head(content_length: str) -> bytes:
    return (
        "POST /api/v2/recommendations HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode()


class TestFraming:
    """Malformed framing gets an answer, never a dropped or hung socket."""

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_a_400_and_closes(self, server, length):
        response, body, sock = raw_exchange(
            server, post_head(length) + b'{"text": "mpi"}',
        )
        try:
            assert response.status == 400
            assert body["error"]["code"] == 400
            assert body["error"]["message"] == "invalid content-length header"
            assert response.getheader("connection") == "close"
            # Framing is lost, so the server hangs up instead of reading
            # the body as the next request.
            assert sock.recv(1) == b""
        finally:
            sock.close()

    def test_non_utf8_body_is_a_400_and_keeps_the_connection(self, server):
        payload = b'{"text": "\xff\xfe"}'
        response, body, sock = raw_exchange(
            server, post_head(str(len(payload))) + payload,
        )
        try:
            assert response.status == 400
            assert body["error"] == {
                "code": 400,
                "message": "request body is not valid UTF-8",
                "request_id": "",
            }
            # The body was consumed whole, so the connection still serves.
            sock.sendall(b"GET /api/v2/healthz HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            follow_up = http.client.HTTPResponse(sock)
            follow_up.begin()
            assert follow_up.status == 200
            assert json.loads(follow_up.read())["status"] == "ok"
        finally:
            sock.close()

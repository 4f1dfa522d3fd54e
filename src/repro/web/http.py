"""In-process HTTP request/response model.

The CAR-CS prototype is "a web service hosted on Heroku ... A Django web
server provides a RESTful API" (Section III-B).  This package replaces
that substrate with an in-process equivalent: the request/response types,
router and handlers mirror a conventional web framework, but no sockets
are involved — the test client calls the application object directly.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit


class HttpError(Exception):
    """Raise inside a handler to short-circuit with an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One in-process HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    body: Any = None
    headers: dict[str, str] = field(default_factory=dict)
    # Filled by the router when the route matches.  Values are typed
    # according to the route pattern (``<int:id>`` arrives as ``int``).
    params: dict[str, Any] = field(default_factory=dict)
    # Stamped by the telemetry middleware before dispatch.
    request_id: str = ""
    # Filled by the router on a match: the canonical route pattern (the
    # low-cardinality label metrics aggregate on).
    route_pattern: str | None = None

    def __post_init__(self) -> None:
        # Header names are stored lower-cased once, so a lookup is one
        # dict probe however the caller spelled them.
        self.headers = {
            name.lower(): value for name, value in self.headers.items()
        }

    @classmethod
    def build(
        cls, method: str, url: str, body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> "Request":
        parts = urlsplit(url)
        return cls(
            method=method.upper(),
            path=parts.path or "/",
            query=parse_qs(parts.query),
            body=body,
            headers=headers or {},
        )

    def header(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive header lookup (HTTP headers are)."""
        return self.headers.get(name.lower(), default)

    def query_one(self, name: str, default: str | None = None) -> str | None:
        values = self.query.get(name)
        return values[0] if values else default

    def query_int(self, name: str, default: int | None = None) -> int | None:
        raw = self.query_one(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name!r} must be an integer")

    def query_size(self, name: str, default: int | None = None) -> int | None:
        """:meth:`query_int` for counts and limits: 400 when negative."""
        value = self.query_int(name, default)
        if value is not None:
            non_negative(value, f"query parameter {name!r}")
        return value

    def json(self) -> dict[str, Any]:
        """The request body as a JSON object; 400 on malformed input."""
        body = self.body
        if body is None:
            raise HttpError(400, "request body required")
        if isinstance(body, (bytes, str)):
            try:
                body = json.loads(body)
            except json.JSONDecodeError as exc:
                raise HttpError(400, f"malformed JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise HttpError(400, "JSON object body required")
        return body


#: ``Response._payload`` of a response not yet decoded from its body.
_UNDECODED = object()


class Response:
    """One HTTP response: status, headers and a body encoded once.

    :func:`json_response` encodes the payload to :attr:`body` bytes, and
    the socket server writes those bytes as they are.  In-process
    callers read :attr:`payload`, which is decoded from the bytes on
    first access and cached, so it shows the JSON normalisation
    (``default=str``, tuples as lists, string keys).  Assigning
    :attr:`payload` drops the bytes; :attr:`body` encodes the new value
    when it is next read.
    """

    __slots__ = ("status", "headers", "_payload", "_body")

    def __init__(self, status: int = 200, payload: Any = _UNDECODED,
                 headers: dict[str, str] | None = None, *,
                 body: bytes | None = None) -> None:
        self.status = status
        self.headers = {} if headers is None else headers
        if payload is _UNDECODED and body is None:
            payload = None
        self._payload = payload
        self._body = body

    @property
    def payload(self) -> Any:
        """Decoded from the body, as :attr:`body` encodes it: ``None``
        for no bytes, text under a non-JSON content type, JSON
        otherwise."""
        if self._payload is _UNDECODED:
            body = self._body
            content_type = self.headers.get("content-type", "")
            if not body:
                self._payload = None
            elif content_type and "application/json" not in content_type:
                self._payload = body.decode("utf-8")
            else:
                self._payload = json.loads(body)
        return self._payload

    @payload.setter
    def payload(self, value: Any) -> None:
        self._payload = value
        self._body = None

    @property
    def body(self) -> bytes:
        """The bytes on the wire: none for a 304, a ``str`` payload
        verbatim under a non-JSON content type, JSON otherwise."""
        if self.status == 304:
            return b""
        if self._body is None:
            payload = self._payload
            content_type = self.headers.get("content-type", "")
            if (isinstance(payload, str) and content_type
                    and "application/json" not in content_type):
                self._body = payload.encode("utf-8")
            else:
                self._body = json.dumps(payload, default=str).encode("utf-8")
        return self._body

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def error(self) -> dict[str, Any] | None:
        """The error envelope (``{"code", "message", "request_id"}``) of a
        4xx/5xx response, or ``None`` on success (which decodes nothing)."""
        if self.status < 400:
            return None
        payload = self.payload
        if isinstance(payload, dict):
            envelope = payload.get("error")
            if isinstance(envelope, dict):
                return envelope
        return None

    def json(self) -> Any:
        return self.payload

    def text(self) -> str:
        return json.dumps(self.payload, indent=2, sort_keys=True, default=str)


def json_response(payload: Any, status: int = 200) -> Response:
    """A JSON response, encoded here once: an unserializable payload
    fails inside its handler, and the socket server writes these bytes."""
    return Response(status, headers={"content-type": "application/json"},
                    body=json.dumps(payload, default=str).encode("utf-8"))


def text_response(
    body: str, status: int = 200,
    content_type: str = "text/plain; charset=utf-8",
) -> Response:
    """A plain-text response (Prometheus exposition, raw trace dumps).

    The payload stays a ``str``; the socket server writes it verbatim
    instead of JSON-serializing.
    """
    return Response(status, payload=body,
                    headers={"content-type": content_type},
                    body=body.encode("utf-8"))


def error_response(status: int, message: str, request_id: str = "") -> Response:
    """The uniform v1 error envelope.

    Every 4xx/5xx the API emits has this shape; the telemetry middleware
    fills ``request_id`` in for envelopes created below it in the chain.
    """
    return json_response(
        {"error": {"code": status, "message": message,
                   "request_id": request_id}},
        status=status,
    )


def non_negative(value: int, what: str) -> int:
    """``value``, or a 400 when a size would slice from the end."""
    if value < 0:
        raise HttpError(400, f"{what} must be >= 0")
    return value


#: A list endpoint's rows: the whole list, or ``fetch(offset=, limit=)``
#: answering only the window, as a list whose ``total`` counts every row
#: (:class:`~repro.core.search.SearchHits`; ``/search``, ``/materials``).
#: The page parses and checks its parameters before it fetches, so a
#: rejected page reads nothing.
Rows = list | Callable[..., list]


def _window(items: Rows, start: int, stop: int,
            item: Callable[[Any], Any] | None) -> tuple[int, list]:
    if callable(items):
        window = items(offset=start, limit=stop - start)
        total = window.total
    else:
        total, window = len(items), items[start:stop]
    return total, list(window) if item is None else [item(x) for x in window]


def paginated(items: Rows, request: Request, *, default_limit: int,
              item: Callable[[Any], Any] | None = None) -> dict[str, Any]:
    """Slice ``items`` by ``limit``/``offset`` query params into the
    uniform list envelope ``{"items", "total", "limit", "offset"}``.

    ``total`` counts the full result set before windowing, so clients can
    page without a separate count request.  ``item`` shapes each entry
    of the window (and only those) into its JSON form; ``items`` is as
    for :data:`Rows`."""
    limit = request.query_int("limit", default_limit)
    offset = request.query_int("offset", 0)
    assert limit is not None and offset is not None
    if limit < 0:
        raise HttpError(400, "query parameter 'limit' must be >= 0")
    if offset < 0:
        raise HttpError(400, "query parameter 'offset' must be >= 0")
    total, window = _window(items, offset, offset + limit, item)
    return {
        "items": window,
        "total": total,
        "limit": limit,
        "offset": offset,
    }


def encode_cursor(offset: int) -> str:
    """Opaque continuation token for :func:`cursor_page`.

    Deliberately *opaque* (URL-safe base64 over a tiny JSON document)
    so clients treat it as a bookmark instead of arithmetic — the
    server is free to change the underlying scheme without breaking
    pagination loops."""
    raw = json.dumps({"o": int(offset)}).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def decode_cursor(token: str) -> int:
    """Inverse of :func:`encode_cursor`; 400 on anything malformed."""
    try:
        padded = token + "=" * (-len(token) % 4)
        raw = base64.urlsafe_b64decode(padded.encode("ascii"))
        document = json.loads(raw.decode("utf-8"))
        offset = document["o"]
        if not isinstance(offset, int) or offset < 0:
            raise ValueError(offset)
        return offset
    except (binascii.Error, ValueError, KeyError, TypeError,
            UnicodeDecodeError) as exc:
        raise HttpError(
            400, f"invalid pagination cursor {token!r}"
        ) from exc


def cursor_page(items: Rows, request: Request, *, default_limit: int,
                item: Callable[[Any], Any] | None = None) -> dict[str, Any]:
    """Window ``items`` into the v2 list envelope ``{"items", "total",
    "limit", "next_cursor"}``.

    Clients pass the previous response's ``next_cursor`` back as the
    ``cursor`` query parameter; ``next_cursor`` is ``None`` on the last
    page.  ``total`` still counts the full result set.  ``item`` is as
    for :func:`paginated`."""
    limit = request.query_size("limit", default_limit)
    assert limit is not None
    token = request.query_one("cursor")
    offset = decode_cursor(token) if token else 0
    next_offset = offset + limit
    total, window = _window(items, offset, next_offset, item)
    has_more = limit > 0 and next_offset < total
    return {
        "items": window,
        "total": total,
        "limit": limit,
        "next_cursor": encode_cursor(next_offset) if has_more else None,
    }


def not_modified(etag: str) -> Response:
    """A 304 Not Modified carrying only the validator, no body."""
    return Response(status=304, payload=None, headers={"etag": etag})


def etag_matches(if_none_match: str | None, etag: str) -> bool:
    """RFC 7232 ``If-None-Match`` evaluation against one current ETag.

    Accepts a comma-separated candidate list and the ``*`` wildcard;
    weak-validator prefixes (``W/``) are ignored on both sides, as the
    weak comparison the header mandates for 304 decisions requires.
    """
    if if_none_match is None:
        return False
    current = etag.strip()
    if current.startswith("W/"):
        current = current[2:]
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate == "*":
            return True
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == current:
            return True
    return False

"""URL routing with typed path parameters.

Routes are declared as ``"/assignments/<int:id>"``-style patterns; the
router dispatches (method, path) to the first matching handler, filling
``request.params`` with *converted* values — an ``<int:id>`` segment
arrives as an ``int``, so handlers never re-cast by hand.  Unknown paths
yield 404, known paths with the wrong method yield 405 — the behaviours
REST clients depend on.

A ``sunset`` date adds an RFC 8594 ``Sunset`` header (every v1
route).  Several routes may share one handler: the v1 table binds its
patterns straight to the v2 handlers, so each request's
``route_pattern`` is still the pattern it matched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .http import HttpError, Request, Response, error_response

Handler = Callable[[Request], Response]

_PARAM = re.compile(r"<(?:(int|str):)?([a-zA-Z_][a-zA-Z0-9_]*)>")

# Applied to raw (string) match groups before the handler runs.
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "str": str,
}


def _compile(pattern: str) -> tuple[re.Pattern, dict[str, str]]:
    """Translate a route pattern into a regex + param-type map."""
    types: dict[str, str] = {}

    def replace(match: re.Match) -> str:
        kind = match.group(1) or "str"
        name = match.group(2)
        types[name] = kind
        if kind == "int":
            return f"(?P<{name}>\\d+)"
        return f"(?P<{name}>[^/]+)"

    regex = _PARAM.sub(replace, pattern.rstrip("/") or "/")
    return re.compile(f"^{regex}/?$"), types


@dataclass(frozen=True)
class Route:
    """One (method, pattern) -> handler binding."""

    method: str
    pattern: str                 # the source pattern, e.g. "/things/<int:id>"
    regex: re.Pattern
    types: dict[str, str]
    handler: Handler
    #: RFC 8594 ``Sunset`` header value (an HTTP-date) announcing when
    #: the route is scheduled to disappear; ``None`` for none.
    sunset: str | None = None


class Router:
    """Ordered route table."""

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add(self, method: str, pattern: str, handler: Handler, *,
            sunset: str | None = None) -> None:
        regex, types = _compile(pattern)
        self._routes.append(Route(
            method=method.upper(), pattern=pattern, regex=regex,
            types=types, handler=handler, sunset=sunset,
        ))

    def route(self, method: str, pattern: str, *, sunset: str | None = None):
        """Decorator form: ``@router.route("GET", "/things/<int:id>")``."""

        def register(handler: Handler) -> Handler:
            self.add(method, pattern, handler, sunset=sunset)
            return handler

        return register

    def dispatch(self, request: Request) -> Response:
        path_matched = False
        for route in self._routes:
            match = route.regex.match(request.path)
            if match is None:
                continue
            path_matched = True
            if route.method != request.method:
                continue
            request.params = {
                name: _CONVERTERS[route.types.get(name, "str")](value)
                for name, value in match.groupdict().items()
            }
            request.route_pattern = route.pattern
            try:
                response = route.handler(request)
            except HttpError as exc:
                response = error_response(
                    exc.status, exc.message, request.request_id
                )
            if route.sunset is not None:
                response.headers.setdefault("sunset", route.sunset)
            return response
        if path_matched:
            return error_response(
                405, f"method {request.method} not allowed", request.request_id
            )
        return error_response(
            404, f"no route for {request.path}", request.request_id
        )

    def routes(self) -> list[Route]:
        """The route table in registration order — the API index."""
        return list(self._routes)

"""In-process test client for the CAR-CS API.

Plays the role of the jQuery front end's asynchronous calls: build a
:class:`~repro.web.http.Request`, dispatch it through the application,
return the :class:`~repro.web.http.Response` — no network involved.

Pass ``root="/api/v2"`` (or ``"/api/v1"``) to pin the client to one
surface; without it every URL carries its own prefix.  Error responses
expose the uniform envelope via ``response.error`` (``{"code",
"message", "request_id"}``).
"""

from __future__ import annotations

from typing import Any, Callable

from .http import Request, Response


class Client:
    """Convenience wrapper over an application callable.

    ``root`` is prefixed onto every path-absolute URL, so
    ``Client(app, root="/api/v1").get("/stats")`` requests
    ``/api/v1/stats``.
    """

    def __init__(self, app: Callable[[Request], Response],
                 root: str = "") -> None:
        self.app = app
        self.root = root.rstrip("/")

    def request(
        self, method: str, url: str, body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> Response:
        if self.root and url.startswith("/"):
            url = self.root + url
        return self.app(Request.build(method, url, body=body, headers=headers))

    def get(self, url: str, headers: dict[str, str] | None = None) -> Response:
        return self.request("GET", url, headers=headers)

    def post(self, url: str, body: Any = None,
             headers: dict[str, str] | None = None) -> Response:
        return self.request("POST", url, body=body, headers=headers)

    def patch(self, url: str, body: Any = None,
              headers: dict[str, str] | None = None) -> Response:
        return self.request("PATCH", url, body=body, headers=headers)

    def delete(self, url: str, headers: dict[str, str] | None = None) -> Response:
        return self.request("DELETE", url, headers=headers)

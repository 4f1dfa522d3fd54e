"""In-process REST substrate (replaces the paper's Django/Heroku stack)."""

from .api import API_PREFIX, API_V2_PREFIX, CarCsApi
from .client import Client
from .front import BackendError, FrontTier, HttpBackend, LocalBackend
from .http import (
    HttpError,
    Request,
    Response,
    cursor_page,
    decode_cursor,
    encode_cursor,
    error_response,
    json_response,
    paginated,
    text_response,
)
from .middleware import (
    AdmissionMiddleware,
    ReadOnlyMiddleware,
    SnapshotMiddleware,
    TelemetryMiddleware,
    TokenBucket,
    backpressure_response,
    compose,
)
from .router import Route, Router
from .server import ApiServer

__all__ = [
    "API_PREFIX",
    "API_V2_PREFIX",
    "AdmissionMiddleware",
    "ApiServer",
    "BackendError",
    "CarCsApi",
    "Client",
    "FrontTier",
    "HttpBackend",
    "HttpError",
    "LocalBackend",
    "ReadOnlyMiddleware",
    "Request",
    "Response",
    "Route",
    "Router",
    "SnapshotMiddleware",
    "TelemetryMiddleware",
    "TokenBucket",
    "backpressure_response",
    "compose",
    "cursor_page",
    "decode_cursor",
    "encode_cursor",
    "error_response",
    "json_response",
    "paginated",
    "text_response",
]

"""Every 4xx/5xx the system emits shares one error envelope.

The shape is ``{"error": {"code", "message", "request_id"}}`` — router
404/405s, handler 400s, the 500 boundary, replica 403s, the front
tier's 503s and the job queue's 429 all flow through the same builder
(:func:`repro.web.http.error_response`), so clients parse one shape.
"""

from __future__ import annotations

import pytest

from repro.core.material import Material
from repro.core.repository import Repository
from repro.corpus.seed import seed_ontologies
from repro.web import CarCsApi, Client, FrontTier, LocalBackend, Request
from repro.web.api import API_PREFIX, API_V2_PREFIX


def _api(**kwargs) -> CarCsApi:
    repo = Repository()
    seed_ontologies(repo)
    return CarCsApi(repo, **kwargs)


def _explode(request):
    raise RuntimeError("kaboom")


def _broken_backend() -> LocalBackend:
    return LocalBackend("primary", _explode)


CASES = {
    "router-404": lambda: Client(_api()).get("/api/v2/not-a-resource"),
    "router-405": lambda: Client(_api()).delete("/api/v2/search"),
    # Only /api/v2 and /api/v1 are routed: a bare v1 path is a 404.
    "unprefixed-404": lambda: Client(_api()).get("/assignments/31337"),
    "resource-404": lambda: Client(_api()).get("/api/v2/materials/12345"),
    "validation-400": lambda: Client(_api()).post(
        "/api/v2/materials", body={}
    ),
    "cursor-400": lambda: Client(_api()).get("/api/v2/materials?cursor=@@"),
    "boundary-500": lambda: Client(_crashing_api()).get("/api/v2/crash"),
    "replica-403": lambda: Client(
        _api(read_only=True, primary_url="http://primary:8080")
    ).post("/api/v2/materials", body={"title": "x"}),
    "front-tier-503": lambda: FrontTier(_broken_backend())(
        Request.build("POST", "/api/v2/materials", body={"title": "x"})
    ),
    "queue-429": lambda: _saturated_queue_response(),
}


def _crashing_api() -> CarCsApi:
    api = _api()
    api.router.add("GET", f"{API_V2_PREFIX}/crash", _explode)
    return api


def _saturated_queue_response():
    client = Client(_api(max_queued_jobs=1), root=API_V2_PREFIX)
    assert client.post("/jobs/classify", body={}).status == 202
    return client.post("/jobs/classify", body={})


EXPECTED_STATUS = {
    "router-404": 404,
    "router-405": 405,
    "unprefixed-404": 404,
    "resource-404": 404,
    "validation-400": 400,
    "cursor-400": 400,
    "boundary-500": 500,
    "replica-403": 403,
    "front-tier-503": 503,
    "queue-429": 429,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_error_envelope_shape(case):
    response = CASES[case]()
    assert response.status == EXPECTED_STATUS[case]
    envelope = response.error
    assert envelope is not None, "4xx/5xx must carry the error envelope"
    assert set(envelope) == {"code", "message", "request_id"}
    assert envelope["code"] == response.status
    assert isinstance(envelope["message"], str) and envelope["message"]
    assert isinstance(envelope["request_id"], str)
    assert "deprecation" not in response.headers


@pytest.mark.parametrize("case", sorted(set(CASES) - {"front-tier-503"}))
def test_request_id_is_filled_through_the_pipeline(case):
    """Inside the middleware chain the id middleware stamps every
    envelope (the front tier sits outside it and has no request ids)."""
    response = CASES[case]()
    assert response.error["request_id"]
    assert response.error["request_id"] == response.headers["x-request-id"]


@pytest.mark.parametrize("case", ["front-tier-503", "queue-429"])
def test_shed_responses_carry_retry_after(case):
    response = CASES[case]()
    assert int(response.headers["retry-after"]) >= 1


#: Malformed input that once escaped as a 500 (or was silently
#: misread) and must answer a 400 envelope on v2 and on the v1 shim:
#: (method, v2 path, body, expected message).  Negative sizes share the
#: cursor pages' ">= 0" message.
MALFORMED = {
    "authors-not-a-list": ("POST", "/materials",
                           {"title": "t", "authors": 5},
                           "'authors' must be a list of strings"),
    "authors-a-string": ("POST", "/materials",
                         {"title": "t", "authors": "Ann"},
                         "'authors' must be a list of strings"),
    "classifications-not-a-list": ("POST", "/materials",
                                   {"title": "t", "classifications": 5},
                                   "'classifications' must be a list"),
    "year-not-an-int": ("POST", "/materials", {"title": "t", "year": "abc"},
                        "'year' must be an integer or null"),
    "patch-title-not-a-string": ("PATCH", "/materials/1", {"title": 5},
                                 "'title' must be a string"),
    "recommend-top-not-an-int": ("POST", "/recommendations",
                                 {"text": "parallel", "top": "x"},
                                 "'top' must be an integer"),
    "recommend-selected-not-a-list": ("POST", "/recommendations",
                                      {"selected": 5},
                                      "'selected' must be a list of strings"),
    "recommend-top-negative": ("POST", "/recommendations",
                               {"text": "parallel", "top": -3},
                               "'top' must be >= 0"),
    "similar-limit-negative": ("GET", "/materials/1/similar?limit=-1", None,
                               "query parameter 'limit' must be >= 0"),
    "jobs-top-not-an-int": ("POST", "/jobs/classify", {"top": "many"},
                            "'top' must be an integer or null"),
}


def _v1_path(path: str) -> str:
    return (path.replace("/materials", "/assignments")
                .replace("/recommendations", "/recommend"))


@pytest.fixture(scope="module")
def one_material_api() -> CarCsApi:
    api = _api()
    api.repo.add_material(Material(
        title="Hurricane Tracker", description="Track storms with arrays.",
    ))
    return api


@pytest.mark.parametrize("case,surface", [
    (case, surface)
    for case in sorted(MALFORMED)
    for surface in ("v2", "v1")
    if not (surface == "v1" and MALFORMED[case][1].startswith("/jobs"))
])
def test_malformed_input_is_a_400_on_both_surfaces(
    one_material_api, case, surface,
):
    method, path, body, message = MALFORMED[case]
    url = (API_V2_PREFIX + path if surface == "v2"
           else API_PREFIX + _v1_path(path))
    response = Client(one_material_api).request(method, url, body=body)
    assert response.status == 400, response.payload
    assert response.error["message"] == message

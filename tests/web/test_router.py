"""Routing semantics: matching, params, 404/405."""

from repro.web.http import HttpError, Request, json_response
from repro.web.router import Router


def make_router():
    router = Router()

    @router.route("GET", "/things")
    def list_things(request):
        return json_response(["a", "b"])

    @router.route("GET", "/things/<int:id>")
    def get_thing(request):
        return json_response({"id": request.params["id"]})

    @router.route("POST", "/things")
    def create_thing(request):
        return json_response({"created": True}, status=201)

    @router.route("GET", "/by-name/<name>")
    def by_name(request):
        return json_response({"name": request.params["name"]})

    @router.route("GET", "/boom")
    def boom(request):
        raise HttpError(418, "teapot")

    return router


class TestDispatch:
    def test_static_route(self):
        r = make_router().dispatch(Request.build("GET", "/things"))
        assert r.json() == ["a", "b"]

    def test_int_param_extracted(self):
        # <int:...> params are converted by the router: handlers get ints.
        r = make_router().dispatch(Request.build("GET", "/things/42"))
        assert r.json() == {"id": 42}

    def test_int_param_rejects_non_numeric(self):
        r = make_router().dispatch(Request.build("GET", "/things/abc"))
        assert r.status == 404

    def test_str_param(self):
        r = make_router().dispatch(Request.build("GET", "/by-name/uno"))
        assert r.json() == {"name": "uno"}

    def test_str_param_does_not_cross_slashes(self):
        r = make_router().dispatch(Request.build("GET", "/by-name/a/b"))
        assert r.status == 404

    def test_trailing_slash_tolerated(self):
        r = make_router().dispatch(Request.build("GET", "/things/"))
        assert r.ok

    def test_404_for_unknown_path(self):
        r = make_router().dispatch(Request.build("GET", "/nope"))
        assert r.status == 404

    def test_405_for_wrong_method(self):
        r = make_router().dispatch(Request.build("DELETE", "/things"))
        assert r.status == 405

    def test_method_routing(self):
        r = make_router().dispatch(Request.build("POST", "/things"))
        assert r.status == 201

    def test_http_error_becomes_response(self):
        r = make_router().dispatch(Request.build("GET", "/boom"))
        assert r.status == 418
        assert r.json()["error"]["message"] == "teapot"
        assert r.json()["error"]["code"] == 418

    def test_routes_listing(self):
        table = make_router().routes()
        assert ("GET", "/things") in [(r.method, r.pattern) for r in table]

    def test_typed_param_conversion_in_dispatch(self):
        captured = {}

        router = Router()

        @router.route("GET", "/pair/<int:left>/<right>")
        def pair(request):
            captured.update(request.params)
            return json_response(None)

        router.dispatch(Request.build("GET", "/pair/7/seven"))
        assert captured == {"left": 7, "right": "seven"}
        assert isinstance(captured["left"], int)

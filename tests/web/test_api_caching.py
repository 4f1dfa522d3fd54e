"""HTTP conditional GET: ETag / If-None-Match round trips.

The API derives a single ETag from the repository's mutation version, so
a client that revalidates with ``If-None-Match`` gets a cheap 304 until
any mutation lands — then a 200 with a fresh validator.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.repository import Repository
from repro.corpus import keys as K
from repro.corpus.seed import seed_all, seed_ontologies
from repro.web import ApiServer, CarCsApi, Client


@pytest.fixture()
def client():
    return Client(CarCsApi(seed_all()), root="/api/v1")


def make_material(client, title="Cache probe"):
    response = client.post("/assignments", body={
        "title": title,
        "description": "etag test material",
        "collection": "etag-demo",
        "classifications": [{"ontology": "PDC12", "key": K.A_SCAN}],
    })
    assert response.status == 201
    return response.json()["id"]


class TestEtagRoundTrip:
    def test_get_carries_etag(self, client):
        response = client.get("/coverage?collection=itcs3145&ontology=PDC12")
        assert response.ok
        etag = response.headers.get("etag")
        assert etag and etag.startswith('"carcs-v')

    def test_revalidation_returns_304_with_empty_body(self, client):
        first = client.get("/coverage?collection=itcs3145&ontology=PDC12")
        etag = first.headers["etag"]
        second = client.get(
            "/coverage?collection=itcs3145&ontology=PDC12", headers={"if-none-match": etag}
        )
        assert second.status == 304
        assert second.payload is None
        assert second.headers["etag"] == etag

    def test_mutation_invalidates_etag(self, client):
        first = client.get("/coverage?collection=itcs3145&ontology=PDC12")
        stale = first.headers["etag"]

        mid = make_material(client)

        # The stale validator no longer matches: full 200 + new ETag.
        after = client.get("/coverage?collection=itcs3145&ontology=PDC12", headers={"if-none-match": stale})
        assert after.status == 200
        fresh = after.headers["etag"]
        assert fresh != stale
        # The new validator revalidates until the next mutation.
        assert client.get(
            "/coverage?collection=itcs3145&ontology=PDC12", headers={"if-none-match": fresh}
        ).status == 304

        client.delete(f"/assignments/{mid}")
        assert client.get(
            "/coverage?collection=itcs3145&ontology=PDC12", headers={"if-none-match": fresh}
        ).status == 200

    def test_etag_shared_across_get_resources(self, client):
        """One repository version ⇒ one validator for every GET."""
        cov = client.get("/coverage?collection=itcs3145&ontology=PDC12").headers["etag"]
        stats = client.get("/stats").headers["etag"]
        assert cov == stats
        assert client.get(
            "/assignments", headers={"if-none-match": cov}
        ).status == 304

    def test_wildcard_and_weak_validators(self, client):
        assert client.get(
            "/coverage?collection=itcs3145&ontology=PDC12", headers={"if-none-match": "*"}
        ).status == 304
        etag = client.get("/stats").headers["etag"]
        assert client.get(
            "/stats", headers={"if-none-match": f"W/{etag}"}
        ).status == 304
        assert client.get(
            "/stats", headers={"if-none-match": f'"other", {etag}'}
        ).status == 304

    def test_non_matching_validator_gets_200(self, client):
        response = client.get(
            "/coverage?collection=itcs3145&ontology=PDC12", headers={"if-none-match": '"carcs-v0"'}
        )
        assert response.status == 200
        assert response.payload is not None

    def test_header_lookup_is_case_insensitive(self, client):
        etag = client.get("/stats").headers["etag"]
        assert client.get(
            "/stats", headers={"If-None-Match": etag}
        ).status == 304

    def test_post_and_errors_bypass_conditional_logic(self, client):
        # Non-GET requests are never short-circuited to 304.
        etag = client.get("/stats").headers["etag"]
        response = client.post(
            "/recommend", body={"text": "mpi"},
            headers={"if-none-match": etag},
        )
        assert response.status == 200
        # Error responses carry no ETag (the payload is not cacheable).
        missing = client.get("/assignments/999999")
        assert missing.status == 404
        assert "etag" not in missing.headers


class TestEtagOverRealHttp:
    @pytest.fixture(scope="class")
    def server(self):
        repo = Repository()
        seed_ontologies(repo)
        with ApiServer(CarCsApi(repo), port=0) as srv:
            yield srv

    def test_304_over_the_wire(self, server):
        with urllib.request.urlopen(f"{server.url}/api/v1/stats") as resp:
            assert resp.status == 200
            etag = resp.headers["etag"]
            assert json.loads(resp.read())

        request = urllib.request.Request(
            f"{server.url}/api/v1/stats", headers={"If-None-Match": etag}
        )
        # urllib raises on any non-2xx status, including 304.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 304
        assert excinfo.value.headers["etag"] == etag
        assert excinfo.value.read() == b""

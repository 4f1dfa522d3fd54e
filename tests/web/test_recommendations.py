"""``POST /recommendations`` over the shared classify model.

An empty repository answers 200 with no suggestions on every surface,
and a retag of a training material reaches the next answer: the model's
text includes tags, so its memo must not outlive a tag write.
"""

from __future__ import annotations

import pytest

from repro.core.classification import ClassificationSet
from repro.core.material import Material
from repro.core.repository import Repository
from repro.corpus import keys as K
from repro.corpus.seed import seed_ontologies
from repro.web import CarCsApi, Client

#: Surface -> (root, recommendation path).
SURFACES = {
    "v2": ("/api/v2", "/recommendations"),
    "v1": ("/api/v1", "/recommend"),
}


def _empty_repo() -> Repository:
    repo = Repository()
    seed_ontologies(repo)
    return repo


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("body", [
    {"text": "parallel loops with OpenMP"},
    {"selected": [K.SDF_ARRAYS]},
    {"text": "parallel loops", "selected": [K.SDF_ARRAYS]},
])
def test_empty_repository_suggests_nothing(surface, body):
    root, path = SURFACES[surface]
    r = Client(CarCsApi(_empty_repo()), root=root).post(path, body=body)
    assert r.status == 200
    assert r.json() == {"suggestions": []}


def test_retag_of_a_training_material_reaches_next_recommendations():
    repo = _empty_repo()
    for title, key in (("parallel loops", K.P_OPENMP),
                       ("message passing", K.P_PTHREADS)):
        cs = ClassificationSet()
        cs.add("PDC12", key)
        repo.add_material(
            Material(title=title, description="", collection="c"), cs)
    client = Client(CarCsApi(repo), root="/api/v2")

    def keys() -> list[str]:
        r = client.post("/recommendations", body={"text": "zebrafish"})
        assert r.status == 200
        return [s["key"] for s in r.json()["suggestions"]]

    assert keys() == []
    mid = repo.materials()[1].id
    repo._link_named(repo.material_tags, "tags", mid, ["zebrafish"])
    assert keys() == [K.P_PTHREADS]

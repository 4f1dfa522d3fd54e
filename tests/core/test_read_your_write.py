"""A curator's read-your-write touches only the rows it is about.

The curation loop of the paper (Figure 2, use case B) is: add or
classify a material, then search for it and read the class's coverage
tree.  Each of those reads must resolve through indexes on the touched
materials — never rebuild the whole-corpus classification map or walk
the whole link table.
"""

from __future__ import annotations

from repro.core.classification import ClassificationSet
from repro.core.material import Material
from repro.core.repository import Repository
from repro.corpus import keys as K
from repro.db import ManyToMany

TERM = "itcs3145-f19"


def _add(repo, title, keys, collection):
    cs = ClassificationSet()
    for key in keys:
        cs.add(key.split("/", 1)[0], key)
    return repo.add_material(
        Material(title=title, description="parallel sorting lab",
                 collection=collection),
        cs,
    )


def test_curator_sequence_makes_no_whole_corpus_pass(fresh_repo,
                                                     monkeypatch):
    repo = fresh_repo
    term = [
        _add(repo, f"term lab {i}", [K.P_OPENMP, K.SDF_ARRAYS], TERM)
        for i in range(5)
    ]
    for i in range(20):
        _add(repo, f"archive lab {i}", [K.PD_LOOPS, K.AL_BST], "archive")
    engine = repo.search_engine()
    repo.search("lab")  # the index exists before the curator's writes
    repo.coverage("PDC12", collection=TERM)

    key_calls: list[int] = []
    pair_calls: list[int] = []
    keys_of = Repository.classification_keys
    pairs = ManyToMany.pairs

    def counting_keys(self):
        key_calls.append(1)
        return keys_of(self)

    def counting_pairs(self):
        pair_calls.append(1)
        return pairs(self)

    monkeypatch.setattr(Repository, "classification_keys", counting_keys)
    monkeypatch.setattr(ManyToMany, "pairs", counting_pairs)
    reindexed = engine.docs_reindexed

    created = _add(repo, "heat diffusion stencil", [K.P_OPENMP], TERM)
    repo.classify(created.id, "PDC12", K.P_PARLOOPS)
    repo.classify(term[0].id, "PDC12", K.P_PARLOOPS)
    hits = repo.search("stencil")
    report = repo.coverage("PDC12", collection=TERM)

    assert [hit.material.id for hit in hits] == [created.id]
    assert report.n_materials == 6
    assert report.direct_counts[K.P_PARLOOPS] == 2
    assert report.direct_counts[K.P_OPENMP] == 6
    assert key_calls == []
    assert pair_calls == []
    # The catch-up re-resolves exactly the two affected materials.
    assert engine.docs_reindexed - reindexed == 2

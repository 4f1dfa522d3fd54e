"""Oracle for the co-occurrence recommender (hypothesis).

The reference below is the dense formula the co-occurrence recommender
used before it kept sparse pair counts, copied verbatim: a 0/1
material x key matrix ``m``, its Gram matrix ``m.T @ m`` and the
conditional matrix ``P(col | row)`` with a zero diagonal; a selection
scores every key with the mean of its rows.  The recommender must give
the same keys in the same order with the same scores bit for bit, for
any selection (unknown and repeated keys included), any ``top`` and any
``min_score`` (``0.0`` pads the list with zero-score keys).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.classification import ClassificationSet
from repro.core.material import Material
from repro.core.recommend import classify_model
from repro.core.repository import Repository
from repro.corpus.seed import seed_ontologies

UNKNOWN = "CS13/NOT/A/KEY"


class DenseCooccurrence:
    """The dense reference, fitted on label lists."""

    def __init__(self, labels: Sequence[Sequence[str]]) -> None:
        keys = sorted({k for ls in labels for k in ls})
        index = {k: i for i, k in enumerate(keys)}
        m = np.zeros((len(labels), len(keys)), dtype=np.float64)
        for row, ls in enumerate(labels):
            for k in ls:
                m[row, index[k]] = 1.0
        joint = m.T @ m                     # co-occurrence counts
        diag = np.diag(joint).copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(diag[:, None] > 0, joint / diag[:, None], 0.0)
        np.fill_diagonal(cond, 0.0)
        self._keys, self._index, self._cond = keys, index, cond

    def recommend(self, selected, *, top=10, min_score=0.2):
        rows = [self._index[k] for k in selected if k in self._index]
        if not rows:
            return []
        scores = self._cond[rows].mean(axis=0)
        for k in selected:  # never re-suggest what is already selected
            if k in self._index:
                scores[self._index[k]] = 0.0
        order = np.argsort(-scores, kind="stable")[:top]
        return [
            (self._keys[int(i)], float(scores[int(i)]))
            for i in order
            if scores[int(i)] >= min_score
        ]


def _labels(repo: Repository) -> list[list[str]]:
    keys = repo.classification_keys()
    return [sorted(keys[mid]) for mid in sorted(keys) if keys[mid]]


def _system(repo: Repository, selected, *, top, min_score):
    rec = classify_model(repo).cooccurrence
    return [
        (r.key, r.score)
        for r in rec.recommend(selected, top=top, min_score=min_score)
    ]


def _assert_matches(repo: Repository, selected, top, min_score) -> None:
    want = DenseCooccurrence(_labels(repo)).recommend(
        selected, top=top, min_score=min_score)
    got = _system(repo, selected, top=top, min_score=min_score)
    assert [(k, s.hex()) for k, s in got] == [(k, s.hex()) for k, s in want]


min_scores = st.one_of(
    st.sampled_from((0.0, 0.2)),
    st.floats(min_value=0.0, max_value=1.0),
)


# ------------------------------------------------- the seeded corpus


_SEED_KEYS: list[str] = []


def _seed_keys(repo: Repository) -> list[str]:
    if not _SEED_KEYS:
        _SEED_KEYS.extend(sorted({k for ls in _labels(repo) for k in ls}))
    return _SEED_KEYS


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), top=st.integers(0, 60), min_score=min_scores)
def test_seeded_corpus_matches_dense_formula(seeded_repo, data, top,
                                             min_score):
    pool = _seed_keys(seeded_repo) + [UNKNOWN]
    selected = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    _assert_matches(seeded_repo, selected, top, min_score)


# ------------------------------------------------- random label sets


_REPO: list[Repository] = []


def _small_repo() -> Repository:
    """One repository with the ontologies loaded, shared by every
    example; each example adds its materials and deletes them again."""
    if not _REPO:
        repo = Repository()
        seed_ontologies(repo)
        _REPO.append(repo)
    return _REPO[0]


def _pool(repo: Repository) -> list[str]:
    return sorted(
        row["key"] for row in repo.db.table("ontology_entries")
        if row["ontology"] == "CS13"
    )[:10]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), top=st.integers(0, 14), min_score=min_scores)
def test_random_label_sets_match_dense_formula(data, top, min_score):
    repo = _small_repo()
    pool = _pool(repo)
    label_sets = data.draw(st.lists(
        st.lists(st.sampled_from(pool), max_size=5), max_size=8))
    selected = data.draw(
        st.lists(st.sampled_from(pool + [UNKNOWN]), max_size=6))
    ids = []
    try:
        for i, keys in enumerate(label_sets):
            cs = ClassificationSet()
            for key in keys:
                cs.add("CS13", key)
            ids.append(repo.add_material(
                Material(title=f"m{i}", description="d",
                         collection="oracle"), cs).id)
        _assert_matches(repo, selected, top, min_score)
    finally:
        for mid in ids:
            repo.delete_material(mid)

"""Oracle for the state derived from the change journal (hypothesis).

Two structures are kept current from :meth:`repro.db.Database.changes_since`
instead of being rebuilt on every read: the search engine's inverted
index and the classify job's fitted model.  A state machine drives a
repository through the writes an editor and a curator make — add,
PATCH the text, retag, classify, declassify, accept and reject machine
suggestions, delete, a rolled-back transaction (read inside it), and
reads under a pinned snapshot while another thread commits — and after
every step checks that each structure equals one built from scratch:

* search: the same inverted index (postings, lengths, facets, docs) and
  the same ranked hits, scores bit for bit;
* classify model: the same training ids, vocabulary and NB labels, the
  NB prior and the per-query NB log-odds bit for bit (every count is an
  integer and the smoothing constant is 1, so no summation order can
  move a bit), and the same kNN training rows bit for bit.

The from-scratch model is the textbook pipeline over public text APIs:
vectorize every training text, fit NB on the raw counts and kNN on
their TF-IDF rows.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.classification import ClassificationSet
from repro.core.repository import Repository
from repro.core.search import SearchEngine
from repro.corpus.generator import GeneratorConfig, generate_specs
from repro.corpus.seed import seed_ontologies
from repro.core.recommend import (
    KNN_K,
    KNN_THRESHOLD,
    MIN_LABEL_COUNT,
    NB_ALPHA,
    material_text,
)
from repro.jobs.classify import ClassificationService
from repro.text import KnnClassifier, NaiveBayesClassifier, TfidfVectorizer

N_START = 16
N_POOL = 24
WORDS = ("parallel", "scan", "openmp", "mutex", "graph", "stencil",
         "reduction", "pipeline", "queue", "cache")
TAGS = ("hpc", "intro", "viz")
PROBES = ("parallel graph", "openmp scan reduction", "queue", "")
#: Texts every model is queried with, besides the materials' own.
QUERIES = ("parallel prefix scan with openmp", "unseenword zzz", "")


class Abort(Exception):
    """Raised inside a transaction to roll it back."""


def _specs():
    """(material, classification) pairs drawn once for every example."""
    repo = Repository()
    seed_ontologies(repo)
    return generate_specs(repo.ontology("CS13"), GeneratorConfig(
        n_materials=N_START + N_POOL, seed=20190523, collection="oracle",
    ))


SPECS = _specs()
KEYS = sorted({
    item.key for _, cs in SPECS for item in cs.items()
})[:40]


# --------------------------------------------------------- search oracle


def _index_state(index) -> tuple:
    return (
        index._postings, index._doc_terms, index._doc_lengths,
        index._total_length, index.docs, index._by_kind, index._by_level,
        index._by_language, index._by_collection, index._by_tag,
        index._by_key, index._with_datasets, index._year_of, index.keys_of,
    )


def _assert_search_matches_rebuild(engine: SearchEngine, repo) -> None:
    rebuilt = SearchEngine(repo)
    rebuilt.refresh()
    for text in PROBES:
        got = engine.search(text, limit=100)
        want = rebuilt.search(text, limit=100)
        assert [(h.material.id, h.score) for h in got] == [
            (h.material.id, h.score) for h in want
        ]
    assert _index_state(engine._index) == _index_state(rebuilt._index)


# ------------------------------------------------------- classify oracle


def _cold_fit(repo):
    """(train_ids, vectorizer, nb or None, knn or None) from scratch."""
    keys = repo.classification_keys()
    train_ids = [mid for mid in sorted(keys) if keys[mid]]
    if not train_ids:
        return train_ids, None, None, None
    texts = [material_text(repo.get_material(mid)) for mid in train_ids]
    labels = [sorted(keys[mid]) for mid in train_ids]
    vectorizer = TfidfVectorizer(min_df=1)
    counts = vectorizer.fit_counts(texts)
    try:
        nb = NaiveBayesClassifier(
            alpha=NB_ALPHA, min_label_count=MIN_LABEL_COUNT,
        ).fit(counts, labels)
    except ValueError:
        nb = None
    knn = KnnClassifier(k=KNN_K, threshold=KNN_THRESHOLD).fit(
        vectorizer.weigh(counts), labels)
    return train_ids, vectorizer, nb, knn


def _assert_model_matches_cold_fit(svc: ClassificationService, repo) -> None:
    model = svc.model()
    train_ids, vectorizer, nb, knn = _cold_fit(repo)
    assert model.train_ids == train_ids
    if vectorizer is None:
        assert model.vectorizer is None
        return
    assert model.vectorizer.vocabulary == vectorizer.vocabulary
    assert np.array_equal(model.vectorizer.idf, vectorizer.idf)
    texts = [material_text(m) for m in repo.materials()] + list(QUERIES)
    assert (model.nb is None) == (nb is None)
    if nb is not None:
        assert model.nb.labels_ == nb.labels_
        assert np.array_equal(model.nb._prior_odds, nb._prior_odds)
        got = model.nb.log_odds(model.vectorizer.counts(texts))
        want = nb.log_odds(vectorizer.counts(texts))
        assert np.array_equal(got, want)
    assert model.knn._labels == knn._labels
    assert np.array_equal(model.knn._X, knn._X)


# --------------------------------------------------------- state machine


class JournalViews(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.repo = Repository()
        seed_ontologies(self.repo)
        self.pool = list(range(N_START, len(SPECS)))
        self.ids: list[int] = []
        for material, cs in SPECS[:N_START]:
            self.ids.append(self.repo.add_material(material, cs).id)
        self.engine = self.repo.search_engine()
        self.svc = ClassificationService(self.repo)
        self.engine.search("parallel")
        self.svc.model()

    # -------------------------------------------------------------- writes

    @precondition(lambda self: self.pool)
    @rule(classified=st.booleans())
    def add(self, classified):
        material, cs = SPECS[self.pool.pop(0)]
        self.ids.append(self.repo.add_material(
            material, cs if classified else ClassificationSet()).id)

    @precondition(lambda self: self.ids)
    @rule(data=st.data(), words=st.lists(st.sampled_from(WORDS),
                                         min_size=1, max_size=4))
    def patch_text(self, data, words):
        mid = data.draw(st.sampled_from(self.ids))
        field = data.draw(st.sampled_from(("title", "description")))
        self.repo.update_material(mid, **{field: " ".join(words)})

    @precondition(lambda self: self.ids)
    @rule(data=st.data(), tag=st.sampled_from(TAGS))
    def retag(self, data, tag):
        mid = data.draw(st.sampled_from(self.ids))
        row = self.repo.db.table("tags").find_one(name=tag)
        if row is not None and self.repo.material_tags.has(mid, row["id"]):
            self.repo.material_tags.remove(mid, row["id"])
        else:
            self.repo._link_named(self.repo.material_tags, "tags", mid,
                                  [tag])

    @precondition(lambda self: self.ids)
    @rule(data=st.data(), key=st.sampled_from(KEYS))
    def classify(self, data, key):
        mid = data.draw(st.sampled_from(self.ids))
        self.repo.classify(mid, "CS13", key)

    @precondition(lambda self: self.ids)
    @rule(data=st.data())
    def declassify(self, data):
        mid = data.draw(st.sampled_from(self.ids))
        keys = sorted(self.repo.classification_keys()[mid])
        if keys:
            self.repo.declassify(mid, data.draw(st.sampled_from(keys)))

    @precondition(lambda self: self.ids)
    @rule(data=st.data(), key=st.sampled_from(KEYS), accept=st.booleans())
    def review(self, data, key, accept):
        mid = data.draw(st.sampled_from(self.ids))
        sid = self.repo.machine_suggest(mid, key, confidence=0.5)
        if sid is None:
            return
        if accept:
            self.repo.accept_suggestion(sid)
        else:
            self.repo.reject_suggestion(sid)

    @precondition(lambda self: self.ids)
    @rule(data=st.data())
    def delete(self, data):
        mid = data.draw(st.sampled_from(self.ids))
        self.ids.remove(mid)
        self.repo.delete_material(mid)

    @precondition(lambda self: self.ids and self.pool)
    @rule(data=st.data(), key=st.sampled_from(KEYS))
    def rollback(self, data, key):
        """A transaction writes, reads both structures, then aborts."""
        mid = data.draw(st.sampled_from(self.ids))
        material, cs = SPECS[self.pool[0]]
        with pytest.raises(Abort):
            with self.repo.db.transaction():
                self.repo.classify(mid, "CS13", key)
                self.repo.update_material(mid, title="phantom rollback")
                self.repo.add_material(material, cs)
                assert self.engine.search("phantom")
                self.svc.model()
                raise Abort

    @precondition(lambda self: self.ids)
    @rule(data=st.data(), key=st.sampled_from(KEYS))
    def pinned_read(self, data, key):
        """Inside a pin, another thread commits; both structures must
        still equal a from-scratch build of the pinned state."""
        mid = data.draw(st.sampled_from(self.ids))
        with self.repo.db.pinned():
            writer = threading.Thread(
                target=self.repo.classify, args=(mid, "CS13", key))
            writer.start()
            writer.join()
            _assert_search_matches_rebuild(self.engine, self.repo)
            _assert_model_matches_cold_fit(self.svc, self.repo)

    # ---------------------------------------------------------- the oracle

    @invariant()
    def search_matches_rebuild(self):
        _assert_search_matches_rebuild(self.engine, self.repo)

    @invariant()
    def model_matches_cold_fit(self):
        _assert_model_matches_cold_fit(self.svc, self.repo)


JournalViews.TestCase.settings = settings(
    max_examples=20, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_journal_views_match_from_scratch_builds = JournalViews.TestCase

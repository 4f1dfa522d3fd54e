"""The automatic classification service: train, suggest, review."""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.classification import ClassificationSet
from repro.core.material import Material, MaterialKind
from repro.core.recommend import (
    KNN_K,
    KNN_THRESHOLD,
    MIN_LABEL_COUNT,
    NB_ALPHA,
)
from repro.core.repository import Repository
from repro.corpus.seed import seed_all, seed_ontologies
from repro.db import Database
from repro.text import (
    KnnClassifier,
    NaiveBayesClassifier,
    TfidfVectorizer,
    vectorize,
)
from repro.jobs import (
    ClassificationService,
    default_handlers,
    material_text,
    unclassified_material_ids,
)
from repro.jobs.worker import JobContext
from tests.faults import CrashBudget, CrashError


@pytest.fixture(scope="module")
def corpus():
    """Seeded corpus shared by this module; tests add their own
    unclassified materials and target them explicitly by id."""
    return seed_all()


@pytest.fixture(scope="module")
def service(corpus):
    return ClassificationService(corpus)


def _add_unclassified(repo, template_id: int, *, collection="inbox"):
    """An unclassified clone of an already-classified material — the
    easiest text for the model to place."""
    template = repo.get_material(template_id)
    clone = Material(
        title=f"Incoming copy of {template.title}",
        description=template.description,
        kind=MaterialKind.ASSIGNMENT,
        languages=template.languages,
        tags=template.tags,
        collection=collection,
    )
    return repo.add_material(clone, ClassificationSet())


def _classified_id(repo) -> int:
    keys = repo.classification_keys()
    return next(mid for mid in sorted(keys) if keys[mid])


def test_unclassified_material_ids(corpus):
    before = unclassified_material_ids(corpus)
    stored = _add_unclassified(corpus, _classified_id(corpus),
                               collection="inbox-a")
    after = unclassified_material_ids(corpus)
    assert stored.id in after
    assert set(after) - set(before) == {stored.id}
    assert unclassified_material_ids(corpus, collection="inbox-a") == [
        stored.id
    ]


def test_suggest_for_places_lookalike_material(corpus, service):
    template_id = _classified_id(corpus)
    stored = _add_unclassified(corpus, template_id)
    suggestions = service.suggest_for([stored.id])[stored.id]
    assert suggestions, "a near-duplicate must draw suggestions"
    template_keys = corpus.classification_keys()[template_id]
    assert {s.key for s in suggestions} & set(template_keys)
    assert all(s.confidence >= service.min_confidence for s in suggestions)
    assert all(s.ontology in ("CS13", "PDC12") for s in suggestions)
    # Ranked best-first.
    confidences = [s.confidence for s in suggestions]
    assert confidences == sorted(confidences, reverse=True)


def test_classify_materials_writes_pending_suggestions(corpus, service):
    stored = _add_unclassified(corpus, _classified_id(corpus))
    report = service.classify_materials([stored.id])
    assert report["suggested"] > 0
    rows = corpus.suggestions(material_id=stored.id, origin="machine")
    assert len(rows) == report["suggested"]
    assert all(r["status"] == "pending" for r in rows)
    assert all(r["confidence"] is not None for r in rows)
    # Confidence-ranked, best first.
    confidences = [r["confidence"] for r in rows]
    assert confidences == sorted(confidences, reverse=True)


def test_classify_is_idempotent_per_material_key(corpus, service):
    stored = _add_unclassified(corpus, _classified_id(corpus))
    first = service.classify_materials([stored.id])
    assert first["suggested"] > 0
    again = service.classify_materials([stored.id])
    assert again["suggested"] == 0
    assert again["skipped"] == first["suggested"]
    assert len(corpus.suggestions(material_id=stored.id)) == first["suggested"]


def test_accept_applies_classification_and_analytics_see_it(corpus, service):
    stored = _add_unclassified(corpus, _classified_id(corpus),
                               collection="inbox-accept")
    service.classify_materials([stored.id])
    rows = corpus.suggestions(material_id=stored.id, status="pending")
    best = rows[0]
    ontology = best["ontology"]
    before = corpus.coverage(ontology, collection="inbox-accept")
    assert sum(before.rollup_counts.values()) == 0

    corpus.accept_suggestion(best["id"])

    keys = corpus.classification_keys()[stored.id]
    assert best["ontology_key"] in keys
    # The memoized coverage invalidates on the classification write.
    after = corpus.coverage(ontology, collection="inbox-accept")
    assert sum(after.rollup_counts.values()) > 0


def test_reject_leaves_material_unclassified(corpus, service):
    stored = _add_unclassified(corpus, _classified_id(corpus))
    service.classify_materials([stored.id])
    rows = corpus.suggestions(material_id=stored.id, status="pending")
    corpus.reject_suggestion(rows[0]["id"])
    assert best_status(corpus, rows[0]["id"]) == "rejected"
    assert not corpus.classification_keys()[stored.id]


def best_status(repo, suggestion_id: int) -> str:
    return repo.db.table("suggestions").get(suggestion_id)["status"]


def test_handler_sweeps_collection_and_heartbeats(corpus):
    service = ClassificationService(corpus, batch_size=1)
    stored_a = _add_unclassified(corpus, _classified_id(corpus),
                                 collection="inbox-sweep")
    stored_b = _add_unclassified(corpus, _classified_id(corpus),
                                 collection="inbox-sweep")
    beats = []

    class FakeCtx:
        payload = {"collection": "inbox-sweep"}

        def heartbeat(self):
            beats.append(1)

    from repro.jobs import make_classify_handler

    handler = make_classify_handler(corpus, service)
    report = handler(FakeCtx())
    assert report["materials"] == 2
    assert report["suggested"] > 0
    # batch_size=1 over two materials -> one between-batch heartbeat.
    assert len(beats) == 1
    for stored in (stored_a, stored_b):
        assert corpus.suggestions(material_id=stored.id, status="pending")


def test_handler_accepts_explicit_ids(corpus):
    stored = _add_unclassified(corpus, _classified_id(corpus))

    class FakeCtx:
        payload = {"material_ids": [stored.id], "top": 2}

        def heartbeat(self):
            pass

    report = default_handlers(corpus)["classify"](FakeCtx())
    assert report["materials"] == 1
    assert len(corpus.suggestions(material_id=stored.id)) <= 2


def test_material_text_folds_facets(corpus):
    stored = corpus.get_material(_classified_id(corpus))
    text = material_text(stored)
    assert stored.title in text


# --------------------------------------------- cost scales with the batch


def test_classify_job_makes_no_whole_corpus_pass(corpus, service,
                                                 monkeypatch):
    """With the model fitted, a job reads only its batch: no analytics
    cache bypass (whole-corpus recompute inside a transaction) and no
    ``classification_keys`` map built by ``machine_suggest_many``."""
    stored = _add_unclassified(corpus, _classified_id(corpus))
    service.model()
    calls = []
    original = Repository.classification_keys

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Repository, "classification_keys", counting)
    bypasses = corpus.cache.stats.bypasses
    report = service.classify_materials([stored.id])
    assert report["suggested"] > 0
    assert corpus.cache.stats.bypasses == bypasses
    assert calls == []


def _assert_same_model(a, b) -> None:
    """Two fitted models are equal bit for bit."""
    assert a.train_ids == b.train_ids
    assert a.key_ontology == b.key_ontology
    assert a.vectorizer.vocabulary == b.vectorizer.vocabulary
    assert np.array_equal(a.vectorizer.idf, b.vectorizer.idf)
    assert a.nb.labels_ == b.nb.labels_
    every_term = range(len(a.vectorizer.vocabulary))
    assert np.array_equal(a.nb.log_odds_matrix(every_term),
                          b.nb.log_odds_matrix(every_term))
    assert np.array_equal(a.nb._prior_odds, b.nb._prior_odds)
    assert np.array_equal(a.knn._X, b.knn._X)
    assert a.knn._labels == b.knn._labels


def _cold_model(repo):
    """The textbook pipeline over public text APIs: vectorize every
    training text, fit NB on the raw counts and kNN on their TF-IDF
    rows."""
    keys = repo.classification_keys()
    train_ids = [mid for mid in sorted(keys) if keys[mid]]
    texts = [material_text(repo.get_material(mid)) for mid in train_ids]
    labels = [sorted(keys[mid]) for mid in train_ids]
    vectorizer = TfidfVectorizer(min_df=1)
    counts = vectorizer.fit_counts(texts)
    return SimpleNamespace(
        train_ids=train_ids,
        key_ontology={
            row["key"]: row["ontology"]
            for row in repo.db.table("ontology_entries")
        },
        vectorizer=vectorizer,
        nb=NaiveBayesClassifier(
            alpha=NB_ALPHA, min_label_count=MIN_LABEL_COUNT,
        ).fit(counts, labels),
        knn=KnnClassifier(k=KNN_K, threshold=KNN_THRESHOLD).fit(
            vectorizer.weigh(counts), labels),
    )


def test_refit_preprocesses_only_changed_training_texts(monkeypatch):
    """A cold fit preprocesses each training text once and a suggestion
    each queried text once; a re-fit after an accept preprocesses
    nothing, and a re-fit after a title edit only the edited material,
    giving the model a cold fit gives."""
    repo = seed_all()
    seen: list[str] = []
    original = vectorize.preprocess

    def counting(text, **kwargs):
        seen.append(text)
        return original(text, **kwargs)

    monkeypatch.setattr(vectorize, "preprocess", counting)
    svc = ClassificationService(repo)
    model = svc.model()
    assert Counter(seen) == Counter(
        material_text(repo.get_material(mid)) for mid in model.train_ids
    )
    stored = [
        _add_unclassified(repo, _classified_id(repo)) for _ in range(2)
    ]
    seen.clear()
    svc.suggest_for([m.id for m in stored])
    assert Counter(seen) == Counter(material_text(m) for m in stored)

    # An editor accepts a new key for a training material: the labels
    # change, the training texts do not.
    trained = model.train_ids[0]
    key = next(k for k in model.nb.labels_
               if k not in repo.classification_keys()[trained])
    repo.accept_suggestion(repo.machine_suggest(trained, key, confidence=0.5))
    seen.clear()
    accepted = svc.model()
    assert accepted is not model
    assert key in accepted.knn._labels[accepted.train_ids.index(trained)]
    assert seen == []

    edited = model.train_ids[1]
    repo.update_material(edited, title="Work-efficient parallel scan")
    seen.clear()
    warm = svc.model()
    assert warm is not accepted
    assert seen == [material_text(repo.get_material(edited))]

    _assert_same_model(warm, _cold_model(repo))


def test_refit_through_another_service_preprocesses_nothing(monkeypatch):
    """The training features belong to the repository, not to one
    service: a second service's first retrain after an accept reuses
    what the first service's fit tokenized."""
    repo = seed_all()
    first = ClassificationService(repo).model()
    trained = first.train_ids[0]
    key = next(k for k in first.nb.labels_
               if k not in repo.classification_keys()[trained])
    repo.accept_suggestion(repo.machine_suggest(trained, key, confidence=0.5))
    seen: list[str] = []
    original = vectorize.preprocess

    def counting(text, **kwargs):
        seen.append(text)
        return original(text, **kwargs)

    monkeypatch.setattr(vectorize, "preprocess", counting)
    second = ClassificationService(repo).model()
    assert second is not first
    assert key in second.knn._labels[second.train_ids.index(trained)]
    assert seen == []


# ------------------------------------------------ one write frame per batch


def _durable_corpus(path):
    """The seeded corpus, checkpointed to ``path`` and reopened from
    disk with :meth:`Database.open`, plus three unclassified clones."""
    seeded = seed_all()
    seeded.db.attach(path)
    seeded.db.close()
    repo = Repository(Database.open(path))
    ids = [
        _add_unclassified(repo, _classified_id(repo)).id for _ in range(3)
    ]
    return repo, ids


def _rows(repo) -> list[tuple]:
    return [
        (r["id"], r["material_id"], r["ontology_key"], r["action"],
         r["status"], r["confidence"], r["origin"])
        for r in sorted(repo.db.table("suggestions"), key=lambda r: r["id"])
    ]


def test_a_batch_files_its_suggestions_in_one_wal_append(tmp_path):
    repo, ids = _durable_corpus(tmp_path)
    service = ClassificationService(repo)
    service.model()
    appends = repo.db.wal_stats()["appends"]
    report = service.classify_materials(ids)
    assert report["suggested"] >= len(ids)
    assert repo.db.wal_stats()["appends"] == appends + 1
    repo.db.close()


def test_failed_batch_files_nothing_and_rerun_matches(tmp_path,
                                                     monkeypatch):
    clean, ids = _durable_corpus(tmp_path / "clean")
    ClassificationService(clean).classify_materials(ids)
    expected = _rows(clean)
    clean.db.close()

    repo, same_ids = _durable_corpus(tmp_path / "crashed")
    assert same_ids == ids
    service = ClassificationService(repo)
    writes = sum(len(v) for v in service.suggest_for(ids).values())
    assert writes > 1
    # The batch's last suggestion row fails to store.
    fuse = CrashBudget(writes - 1)
    original = Database._put

    def failing(self, name, op, pk, row):
        if name == "suggestions":
            fuse()
        return original(self, name, op, pk, row)

    monkeypatch.setattr(Database, "_put", failing)
    appends = repo.db.wal_stats()["appends"]
    with pytest.raises(CrashError):
        service.classify_materials(ids)
    assert fuse.calls == writes
    assert repo.db.wal_stats()["appends"] == appends
    assert all(not repo.suggestions(material_id=mid) for mid in ids)
    repo.db.close()
    monkeypatch.setattr(Database, "_put", original)

    reopened = Repository(Database.open(tmp_path / "crashed"))
    assert all(not reopened.suggestions(material_id=mid) for mid in ids)
    ClassificationService(reopened).classify_materials(ids)
    assert _rows(reopened) == expected
    reopened.db.close()


# ------------------------------------------- machine_suggest idempotency

KEY = "PDC12/ALGO/algorithmic-paradigms/prefix-sums-and-scan"


@pytest.fixture()
def target(fresh_repo):
    stored = fresh_repo.add_material(
        Material(title="Scan it", description="Prefix sums in parallel.")
    )
    return fresh_repo, stored.id


def test_machine_suggest_skips_classified_key(target):
    repo, mid = target
    repo.classify(mid, "PDC12", KEY)
    assert repo.machine_suggest(mid, KEY, confidence=0.9) is None
    assert repo.suggestions(material_id=mid) == []


def test_machine_suggest_skips_pending_duplicate(target):
    repo, mid = target
    first = repo.machine_suggest(mid, KEY, confidence=0.9)
    assert first is not None
    assert repo.machine_suggest(mid, KEY, confidence=0.5) is None
    assert [r["id"] for r in repo.suggestions(material_id=mid)] == [first]


def test_machine_suggest_does_not_refile_rejected_key(target):
    repo, mid = target
    repo.reject_suggestion(repo.machine_suggest(mid, KEY, confidence=0.9))
    assert repo.machine_suggest(mid, KEY, confidence=0.9) is None


def test_machine_suggest_sees_link_added_in_open_transaction(target):
    repo, mid = target
    with repo.db.transaction():
        repo.classify(mid, "PDC12", KEY)
        assert repo.machine_suggest(mid, KEY, confidence=0.9) is None
    assert repo.suggestions(material_id=mid) == []


def test_machine_suggest_files_after_rolled_back_link(target):
    repo, mid = target
    with pytest.raises(RuntimeError):
        with repo.db.transaction():
            repo.classify(mid, "PDC12", KEY)
            raise RuntimeError("abort")
    sid = repo.machine_suggest(mid, KEY, confidence=0.9)
    assert sid is not None
    assert [r["id"] for r in repo.suggestions(material_id=mid)] == [sid]


# ------------------------------------------- the suggestions index


def test_suggestions_material_id_is_indexed(fresh_repo):
    """The foreign key is hash-indexed, so the duplicate check in
    ``machine_suggest`` probes one material's rows, not every row."""
    assert fresh_repo.db.table("suggestions").has_index("material_id")


def test_reopened_database_still_dedupes(tmp_path):
    db = Database.open(tmp_path)
    repo = Repository(db)
    seed_ontologies(repo)
    mid = repo.add_material(
        Material(title="Scan it", description="Prefix sums in parallel.")
    ).id
    first = repo.machine_suggest(mid, KEY, confidence=0.9)
    db.close()

    repo = Repository(Database.open(tmp_path))
    assert repo.db.table("suggestions").has_index("material_id")
    assert repo.machine_suggest(mid, KEY, confidence=0.5) is None
    assert [r["id"] for r in repo.suggestions(material_id=mid)] == [first]
    repo.db.close()

"""The change-journal view: what reaches its subscribers, and when it
falls back to rebuilding them.

The view catches the search engine and the classify model's training
features up from the change journal, each when it is next read.  A
change it cannot map to a bounded set of materials — an outrun journal,
DDL, an ontology-entry edit — rebuilds each subscriber exactly once;
writes that touch no training material leave the features alone and
cost a retrain no material read.  Each subscriber has its own lock, so
a retrain never stalls a search.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core.classification import ClassificationSet
from repro.core.material import Material
from repro.core.recommend import TrainingFeatures, training_features
from repro.core.repository import Repository, Role
from repro.core.search import SearchEngine
from repro.corpus.generator import GeneratorConfig, generate_specs
from repro.corpus.seed import seed_ontologies
from repro.db import Column, Database, TableSchema
from repro.jobs import ClassificationService, JobQueue

N_TRAIN = 12


def _repo(*, changelog_size: int | None = None) -> Repository:
    """Ontologies, then ``N_TRAIN`` classified synthetic materials."""
    repo = Repository(Database("view", changelog_size=changelog_size))
    seed_ontologies(repo)
    for material, cs in generate_specs(repo.ontology("CS13"), GeneratorConfig(
            n_materials=N_TRAIN, seed=20190524, collection="view")):
        repo.add_material(material, cs)
    return repo


@pytest.fixture
def rebuilds(monkeypatch):
    """Rebuild calls, counted per subscriber instance."""
    counts: Counter = Counter()
    for cls in (SearchEngine, TrainingFeatures):
        original = cls.rebuild

        def counting(self, _original=original):
            counts[id(self)] += 1
            return _original(self)

        monkeypatch.setattr(cls, "rebuild", counting)
    return counts


@pytest.fixture
def material_reads(monkeypatch):
    reads: list[int] = []
    original = Repository.get_material

    def counting(self, material_id):
        reads.append(material_id)
        return original(self, material_id)

    monkeypatch.setattr(Repository, "get_material", counting)
    return reads


def _outrun_journal(repo):
    # Each material writes several rows: far more than 8 changes.
    for i in range(3):
        repo.add_material(Material(title=f"bulk {i}", description="x",
                                   tags=(f"t{i}",)))


def _create_table(repo):
    repo.db.create_table(TableSchema(
        "notes", columns=(Column("id", int), Column("text", str))))


def _edit_ontology_entry(repo):
    row = repo.db.table("ontology_entries").find_one(
        key=repo.classification_pairs()[0][1])
    repo.db.update("ontology_entries", row["id"], label="renamed")


@pytest.mark.parametrize("change", [
    _outrun_journal, _create_table, _edit_ontology_entry,
])
def test_unmappable_change_rebuilds_each_subscriber_once(change, rebuilds):
    repo = _repo(changelog_size=8)
    engine = repo.search_engine()
    svc = ClassificationService(repo)
    engine.search("parallel")
    svc.model()
    features = training_features(repo)
    assert rebuilds == {id(engine): 1, id(features): 1}
    change(repo)
    # Not every such change moves the model's own tables: retrain.
    repo.cache.clear()
    svc.model()
    engine.search("parallel")
    assert rebuilds == {id(engine): 2, id(features): 2}
    assert engine.delta_catchups == 0


def test_late_subscriber_is_built_alone(rebuilds):
    repo = _repo()
    engine = repo.search_engine()
    engine.search("parallel")
    ClassificationService(repo).model()
    features = training_features(repo)
    assert rebuilds == {id(engine): 1, id(features): 1}
    fresh = SearchEngine(repo)
    fresh.search("parallel")
    assert rebuilds[id(fresh)] == 1
    assert rebuilds[id(engine)] == 1 and rebuilds[id(features)] == 1


def test_writes_outside_the_training_set_leave_features_alone(
        material_reads):
    repo = _repo()
    svc = ClassificationService(repo)
    svc.model()
    features = training_features(repo)
    docs, df = dict(features.docs), list(features.df)
    inbox = repo.add_material(
        Material(title="unclassified inbox item", description="mpi"),
        ClassificationSet(),
    ).id
    JobQueue(repo.db).enqueue("classify", {"material_ids": [inbox]})
    user = repo.add_user("visitor", Role.USER)
    key = repo.classification_pairs()[0][1]
    repo.suggest_classification(inbox, key, action="add", suggested_by=user)
    material_reads.clear()
    svc.model()
    assert features.docs.keys() == docs.keys()
    assert all(features.docs[mid] is doc for mid, doc in docs.items())
    assert features.df == df
    assert material_reads == []


def test_retrain_after_an_accept_reads_only_the_accepted_material(
        material_reads):
    repo = _repo()
    repo.add_material(Material(title="inbox", description="openmp loops"),
                      ClassificationSet())
    inbox = max(repo.classification_keys())
    svc = ClassificationService(repo)
    before = svc.model()
    sid = repo.machine_suggest(inbox, before.nb.labels_[0], confidence=0.9)
    repo.accept_suggestion(sid)
    material_reads.clear()
    after = svc.model()
    assert after is not before
    assert inbox in after.train_ids and inbox not in before.train_ids
    assert material_reads == [inbox]


def test_locked_training_features_do_not_block_search():
    """A search catches up and answers while another thread holds the
    training features' lock, as a retrain does."""
    repo = _repo()
    engine = repo.search_engine()
    engine.search("parallel")
    features = training_features(repo)
    repo.add_material(Material(title="zeppelin scheduling", description="x"))
    held, release = threading.Event(), threading.Event()

    def retrain():
        with features.lock:
            held.set()
            release.wait(10)

    holder = threading.Thread(target=retrain)
    holder.start()
    hits: list = []
    try:
        assert held.wait(10)
        searcher = threading.Thread(
            target=lambda: hits.extend(engine.search("zeppelin")))
        searcher.start()
        searcher.join(5)
        assert not searcher.is_alive()
    finally:
        release.set()
        holder.join()
    assert [h.material.title for h in hits] == ["zeppelin scheduling"]

"""JOBS — enqueue-to-suggestion throughput of the classification queue.

The crowdsourcing pipeline's steady state is a backlog of unclassified
submissions being drained by classify workers into pending suggestions
(docs/architecture.md, "Jobs").  This bench builds its own corpus (the
session ``repo`` fixture is shared and read-only): a synthetic training
set teaches the model, then 10^3 unclassified materials are enqueued as
chunked classify jobs and drained by a single inline worker.

The reproduced number is end-to-end **materials/second from enqueue to
filed suggestion** — it covers queue lease/complete WAL commits, one
memoized model build, batch inference, and the idempotent suggestion
writes.  The floor is deliberately conservative (CI machines vary);
typical throughput on a 2-CPU host is about twice it.

A second gate holds the machine-assist loop's retrain to its delta: on
the same 400-material training set, absorbing one editor accept into
the model must cost at most a third of a cold fit, because the retrain
reads only the material the change journal names.
"""

from __future__ import annotations

import gc
import time

import pytest

from _results import record
from repro.core.classification import ClassificationSet
from repro.core.recommend import TrainingFeatures
from repro.core.repository import Repository
from repro.corpus.generator import GeneratorConfig, generate_specs, seed_synthetic
from repro.corpus.seed import seed_ontologies
from repro.jobs import (
    DONE,
    ClassificationService,
    JobQueue,
    default_handlers,
    run_pending,
)

N_TRAIN = 400              # classified materials the model learns from
N_BACKLOG = 1_000          # unclassified materials to drain
CHUNK = 100                # material_ids per classify job
THROUGHPUT_FLOOR = 500.0   # materials/s, conservative CI floor
RETRAIN_ROUNDS = 7         # interleaved (retrain, cold fit) pairs
RETRAIN_OVER_COLD = 1 / 3  # retrain cost bound, as a share of a cold fit


@pytest.fixture(scope="module")
def backlog_repo():
    repo = Repository()
    seed_ontologies(repo)
    seed_synthetic(
        repo, "CS13",
        GeneratorConfig(n_materials=N_TRAIN, collection="train"),
    )
    # The backlog: same generator, later seed, classifications dropped.
    specs = generate_specs(
        repo.ontology("CS13"),
        GeneratorConfig(n_materials=N_BACKLOG, collection="inbox",
                        seed=20190521),
    )
    ids = [
        repo.add_material(material, ClassificationSet()).id
        for material, _ in specs
    ]
    return repo, ids


def test_enqueue_to_suggestion_throughput(backlog_repo):
    repo, ids = backlog_repo
    queue = JobQueue(repo.db)
    handlers = default_handlers(repo)

    start = time.perf_counter()
    jobs = [
        queue.enqueue("classify", {"material_ids": ids[i:i + CHUNK]})
        for i in range(0, len(ids), CHUNK)
    ]
    ran = run_pending(queue, handlers, worker_id="bench")
    elapsed = time.perf_counter() - start

    assert ran == len(jobs)
    assert queue.counts()[DONE] == len(jobs)
    suggested = sum(queue.get(j["id"])["result"]["suggested"] for j in jobs)
    placed = sum(
        1 for mid in ids if repo.suggestions(material_id=mid, status="pending")
    )
    throughput = len(ids) / elapsed

    print(f"\nJOBS gate: {len(ids)} materials in {len(jobs)} jobs "
          f"drained in {elapsed:.2f}s")
    print(f"  throughput: {throughput:8.1f} materials/s "
          f"(floor {THROUGHPUT_FLOOR})")
    print(f"  suggestions filed: {suggested} "
          f"({placed}/{len(ids)} materials got at least one)")

    assert suggested > 0
    assert placed >= len(ids) * 0.5, (
        "the model should place at least half the synthetic backlog"
    )
    record("jobs.classify_throughput", throughput, THROUGHPUT_FLOOR,
           unit="materials/s")
    assert throughput >= THROUGHPUT_FLOOR, (
        f"enqueue-to-suggestion throughput {throughput:.1f}/s below "
        f"the {THROUGHPUT_FLOOR}/s floor"
    )


def _cold_fit(repo):
    """Build the model from training features read from scratch."""
    with repo.db.pinned():
        return TrainingFeatures(repo).model()


def _timed(fn) -> float:
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_retrain_after_one_accept_beats_cold_fit():
    repo = Repository()
    seed_ontologies(repo)
    seed_synthetic(
        repo, "CS13",
        GeneratorConfig(n_materials=N_TRAIN, collection="train"),
    )
    specs = generate_specs(
        repo.ontology("CS13"),
        GeneratorConfig(n_materials=RETRAIN_ROUNDS, collection="inbox",
                        seed=20190521),
    )
    inbox = [
        repo.add_material(material, ClassificationSet()).id
        for material, _ in specs
    ]
    svc = ClassificationService(repo)
    svc.model()
    retrain_s, cold_s = [], []
    for i, mid in enumerate(inbox):
        # The editor accepts the best suggestion for one inbox material:
        # the next model() retrains.
        best = svc.suggest_for([mid])[mid][0]
        repo.accept_suggestion(
            repo.machine_suggest(mid, best.key, confidence=best.confidence))
        # Interleaved pairs, alternating which side runs first.
        if i % 2:
            cold_s.append(_timed(lambda: _cold_fit(repo)))
            retrain_s.append(_timed(svc.model))
        else:
            retrain_s.append(_timed(svc.model))
            cold_s.append(_timed(lambda: _cold_fit(repo)))
    assert mid in svc.model().train_ids
    ratio = min(retrain_s) / min(cold_s)
    print(f"\nJOBS retrain gate: one accept absorbed in "
          f"{min(retrain_s) * 1e3:.1f} ms, cold fit {min(cold_s) * 1e3:.1f} "
          f"ms (best of {RETRAIN_ROUNDS}): ratio {ratio:.3f} "
          f"(bound {RETRAIN_OVER_COLD:.3f})")
    record("jobs.retrain_over_cold_fit", ratio, RETRAIN_OVER_COLD,
           comparator="<=", unit="ratio")
    assert ratio <= RETRAIN_OVER_COLD, (
        f"a retrain after one accept costs {ratio:.2f} of a cold fit, "
        f"above the {RETRAIN_OVER_COLD:.2f} bound"
    )

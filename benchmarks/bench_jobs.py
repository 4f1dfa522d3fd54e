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
"""

from __future__ import annotations

import time

import pytest

from _results import record
from repro.core.classification import ClassificationSet
from repro.core.repository import Repository
from repro.corpus.generator import GeneratorConfig, generate_specs, seed_synthetic
from repro.corpus.seed import seed_ontologies
from repro.jobs import DONE, JobQueue, default_handlers, run_pending

N_TRAIN = 400              # classified materials the model learns from
N_BACKLOG = 1_000          # unclassified materials to drain
CHUNK = 100                # material_ids per classify job
THROUGHPUT_FLOOR = 500.0   # materials/s, conservative CI floor


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

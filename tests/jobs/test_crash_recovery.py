"""The kill -9 scenario: a worker dies mid-job, nothing is lost.

The queue's durability story has three legs and this module walks all
of them against a real on-disk WAL:

1. the job (and the partial work its handler committed) survives the
   crash because every state transition is a WAL frame;
2. after the visibility timeout the job is leased out again and the
   re-run completes it — with zero duplicated suggestion rows, because
   ``machine_suggest_many`` is idempotent per (material, key);
3. the dead worker's zombie writes are fenced off with StaleLease.
"""

from __future__ import annotations

import pytest

from repro.core.classification import ClassificationSet
from repro.core.material import Material, MaterialKind
from repro.core.repository import Repository
from repro.corpus.seed import seed_all
from repro.db import Database
from repro.jobs import (
    DONE,
    LEASED,
    ClassificationService,
    JobQueue,
    StaleLease,
    default_handlers,
    make_classify_handler,
    run_pending,
)
from tests.faults import CrashBudget, CrashError

from .test_queue import FakeClock


def _add_unclassified(repo, *, collection="inbox"):
    keys = repo.classification_keys()
    template = repo.get_material(
        next(mid for mid in sorted(keys) if keys[mid])
    )
    clone = Material(
        title=f"Incoming copy of {template.title}",
        description=template.description,
        kind=MaterialKind.ASSIGNMENT,
        languages=template.languages,
        tags=template.tags,
        collection=collection,
    )
    return repo.add_material(clone, ClassificationSet())


def _suggestion_pairs(repo, material_id):
    return [
        (r["material_id"], r["ontology_key"])
        for r in repo.suggestions(material_id=material_id)
    ]


def test_killed_worker_job_completes_after_restart(tmp_path):
    clock = FakeClock()
    repo = seed_all()
    db = repo.db
    db.attach(tmp_path, wal_sync="always")
    queue = JobQueue(db, clock=clock)
    first = _add_unclassified(repo)
    second = _add_unclassified(repo)

    job = queue.enqueue(
        "classify", {"material_ids": [first.id, second.id]},
    )
    leased = queue.lease("worker-A")
    assert leased["id"] == job["id"]

    # One material per batch; the fuse blows at the first between-batch
    # heartbeat — i.e. the worker dies after committing the suggestions
    # for `first` but before touching `second`.
    service = ClassificationService(repo, batch_size=1)
    handler = make_classify_handler(repo, service)
    fuse = CrashBudget(0)

    class DyingContext:
        payload = leased["payload"]
        heartbeat = staticmethod(fuse)

    with pytest.raises(CrashError):
        handler(DyingContext())
    partial = _suggestion_pairs(repo, first.id)
    assert partial, "the first batch must have been committed"
    assert not _suggestion_pairs(repo, second.id)
    db.close()

    # --- the process is gone; a fresh one opens the same directory ---
    db2 = Database.open(tmp_path)
    repo2 = Repository(db2)
    queue2 = JobQueue(db2, clock=clock, create=False)
    recovered = queue2.get(job["id"])
    assert recovered["status"] == LEASED          # the lease is durable
    assert recovered["payload"] == {"material_ids": [first.id, second.id]}
    # Invisible until the dead worker's visibility timeout passes.
    assert queue2.lease("worker-B") is None
    clock.advance(queue2.visibility_timeout + 1)
    queue2.requeue_expired()
    clock.advance(queue2.max_backoff)

    assert run_pending(
        queue2, default_handlers(repo2), worker_id="worker-B",
    ) == 1
    finished = queue2.get(job["id"])
    assert finished["status"] == DONE
    assert finished["attempts"] == 2
    assert finished["result"]["suggested"] > 0    # it did the second half

    # Zero lost and zero duplicated suggestions.
    for material in (first, second):
        pairs = _suggestion_pairs(repo2, material.id)
        assert pairs, f"material {material.id} must have suggestions"
        assert len(pairs) == len(set(pairs))
    # The first batch's rows were not re-filed by the retry.
    assert sorted(_suggestion_pairs(repo2, first.id)) == sorted(partial)

    # The dead worker's zombie writes are fenced.
    with pytest.raises(StaleLease):
        queue2.complete(job["id"], "worker-A")
    with pytest.raises(StaleLease):
        queue2.heartbeat(job["id"], "worker-A")
    db2.close()

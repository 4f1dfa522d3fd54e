"""``classify``: the machine-assisted classification loop, in-process.

Closed loop, one client, no HTTP and no worker threads. A job op
enqueues a ``classify`` job for the next batch of unclassified materials
through ``JobQueue.enqueue`` and drains it inline with ``run_pending``.
Every ``ACCEPT_EVERY``-th op the editor instead accepts the best pending
machine suggestion through ``Repository.accept_suggestion``; that edits
the classification tables, so the next job retrains the memoized model.

Retraining jobs are about 3% of ops: p50 and p90 sit inside the plain
job class, and the fixed number of retrains shows in ``throughput_ops``.
Fitting the model is part of set-up.
"""

from __future__ import annotations

import random
from pathlib import Path

from harness import SpanLog
from layers import program_counters

OPS_PER_SECOND = 16
SETUP_REPEATS = 5
#: How strongly this workload's speed follows the speed probe's, fitted
#: on a 2-vCPU host (see ``harness.speed_scale``): below 1, since
#: vectorizing and scoring run in NumPy.
SPEED_SENSITIVITY = 0.7

TRAIN_MATERIALS = 500
#: Materials per job. With one, the jobs that include a gen-2 GC pause
#: form a second latency mode right at p90; with three they widen the
#: job class instead.
BATCH = 3
ACCEPT_EVERY = 33
#: The corpus is the same for every seed; ``--seed`` drives the order in
#: which the inbox is classified, and so which suggestions are accepted.
CORPUS_SEED = 20190520


def make_inputs(seed: int, n_ops: int, workdir: Path) -> dict:
    from repro.corpus.generator import GeneratorConfig, generate_specs
    from repro.ontologies import load

    kinds = ["accept" if i % ACCEPT_EVERY == ACCEPT_EVERY - 1 else "job"
             for i in range(n_ops)]
    jobs = kinds.count("job")
    specs = generate_specs(load("CS13"), GeneratorConfig(
        n_materials=TRAIN_MATERIALS + jobs * BATCH, seed=CORPUS_SEED,
        collection="lab"))
    order = list(range(jobs))
    random.Random(seed).shuffle(order)
    ops, batch = [], iter(order)
    for kind in kinds:
        if kind == "job":
            b = next(batch)
            ops.append(("job", list(range(b * BATCH, (b + 1) * BATCH))))
        else:
            ops.append(("accept",))
    return {"ops": ops, "train": specs[:TRAIN_MATERIALS],
            "inbox": [material for material, _ in specs[TRAIN_MATERIALS:]]}


class State:
    def __init__(self, repo, queue, handlers, inbox: list[int]) -> None:
        self.repo = repo
        self.queue = queue
        self.handlers = handlers
        #: Inbox position -> material id.
        self.inbox = inbox
        self.last_batch: list[int] = []
        self.suggestion_rows = len(repo.db.table("suggestions"))


def setup(inputs: dict, log: SpanLog | None = None):
    from repro.core.repository import Repository
    from repro.corpus.seed import seed_all
    from repro.jobs import JobQueue, default_handlers
    from repro.jobs.classify import ClassificationService

    repo = seed_all(Repository())
    train = inputs["train"]
    for start in range(0, len(train), 100):
        yield
        for material, classification in train[start:start + 100]:
            repo.add_material(material, classification)
    yield
    inbox = [repo.add_material(material).id for material in inputs["inbox"]]
    queue = JobQueue(repo.db)
    handlers = default_handlers(repo)
    yield
    ClassificationService(repo).model()  # fit once, memoized
    return State(repo, queue, handlers, inbox)


def teardown(state: State) -> None:
    pass


def run_op(state: State, op: tuple):
    from repro.jobs import run_pending

    if op[0] == "job":
        ids = [state.inbox[i] for i in op[1]]
        job = state.queue.enqueue("classify", {"material_ids": ids})
        ran = run_pending(state.queue, state.handlers)
        state.last_batch = ids
        return job["id"], ran
    # The editor reviews the last batch: accept its best pending
    # machine suggestion.
    for mid in state.last_batch:
        pending = state.repo.suggestions(status="pending", material_id=mid)
        if pending:
            best = pending[0]
            status = state.repo.accept_suggestion(best["id"])
            return mid, best["ontology_key"], status
    raise LookupError("no pending suggestion to accept")


def reference(state: State, inputs: dict) -> dict:
    return {}


def verify(state: State, ref: dict, op: tuple, output) -> bool:
    from repro.core.repository import SubmissionStatus

    if op[0] == "job":
        job_id, ran = output
        job = state.queue.get(job_id)
        rows = len(state.repo.db.table("suggestions"))
        written, state.suggestion_rows = (
            rows - state.suggestion_rows, rows)
        return (ran == 1 and job["status"] == "done"
                and job["result"]["suggested"] == written)
    mid, key, status = output
    return (status is SubmissionStatus.APPROVED
            and key in {item.key for item in
                        state.repo.classification_of(mid).items()})


def counters(state: State) -> dict[str, float]:
    return program_counters(state.repo)


def extra(state: State, inputs: dict) -> dict[str, float]:
    jobs = sum(1 for op in inputs["ops"] if op[0] == "job")
    return {"writes": len(inputs["ops"]), "user_bytes": 0, "jobs": jobs,
            "materials_suggested": jobs * BATCH}

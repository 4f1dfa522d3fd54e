"""Golden oracle for the classify job: every result and suggestion row.

A fixed synthetic corpus (200 classified materials, 30 in the inbox) is
run through inline ``classify`` jobs of three materials each.  Halfway
through, the editor accepts one suggestion (which retrains the model)
and rejects another, and a curator classifies one inbox material by
hand; a batch that was already classified is then re-run, so every
idempotency branch of ``Repository.machine_suggest_many`` is exercised.
Each job result and every ``suggestions`` row — id, material, key,
status and ``confidence.hex()`` — must equal
``tests/jobs/golden/classify.json`` byte for byte, so a speed-up of the
classify path cannot move a single suggestion or a single bit of a
confidence.

Regenerate after a deliberate model change with::

    PYTHONPATH=src python -m pytest tests/jobs/test_classify_golden.py --record
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.classification import ClassificationSet
from repro.core.repository import Repository
from repro.corpus.generator import GeneratorConfig, generate_specs
from repro.corpus.seed import seed_ontologies
from repro.jobs import (
    DONE,
    ClassificationService,
    JobQueue,
    default_handlers,
    run_pending,
)

GOLDEN = Path(__file__).parent / "golden" / "classify.json"

N_CLASSIFIED = 200
N_INBOX = 30
BATCH = 3
CORPUS_SEED = 20190521


def _transcript() -> dict:
    repo = Repository()
    seed_ontologies(repo)
    specs = generate_specs(repo.ontology("CS13"), GeneratorConfig(
        n_materials=N_CLASSIFIED + N_INBOX, seed=CORPUS_SEED,
        collection="golden",
    ))
    for material, classification in specs[:N_CLASSIFIED]:
        repo.add_material(material, classification)
    inbox = [
        repo.add_material(material, ClassificationSet()).id
        for material, _ in specs[N_CLASSIFIED:]
    ]
    queue = JobQueue(repo.db)
    handlers = default_handlers(repo)
    jobs = []

    def run(ids: list[int]) -> None:
        job = queue.enqueue("classify", {"material_ids": ids})
        assert run_pending(queue, handlers) == 1
        done = queue.get(job["id"])
        assert done["status"] == DONE
        jobs.append({"material_ids": ids, "result": done["result"]})

    batches = [inbox[i:i + BATCH] for i in range(0, len(inbox), BATCH)]
    half = len(batches) // 2
    for batch in batches[:half]:
        run(batch)
    # The editor reviews the last batch: accepting its best suggestion
    # edits the classification tables, so the next job retrains.
    pending = repo.suggestions(status="pending", material_id=batches[half - 1][0])
    repo.accept_suggestion(pending[0]["id"])
    repo.reject_suggestion(pending[1]["id"])
    # A curator classifies one inbox material by hand under the key the
    # model ranks first for it; its job must skip that key.
    manual = batches[half][0]
    top = ClassificationService(repo).suggest_for([manual])[manual][0]
    repo.classify(manual, top.ontology, top.key)
    for batch in batches[half:]:
        run(batch)
    # Re-running a reviewed batch files nothing new: each key is
    # classified, rejected or already pending.
    run(batches[half - 1])
    rows = [
        {
            "id": row["id"],
            "material_id": row["material_id"],
            "key": row["ontology_key"],
            "status": row["status"],
            "confidence": row["confidence"].hex(),
        }
        for row in sorted(repo.db.table("suggestions"), key=lambda r: r["id"])
    ]
    return {"jobs": jobs, "suggestions": rows}


def _encode(transcript: dict) -> str:
    return json.dumps(transcript, indent=1, sort_keys=True) + "\n"


def test_classify_jobs_match_golden(request):
    actual = _transcript()
    if request.config.getoption("--record"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(_encode(actual))
        pytest.skip(f"recorded {GOLDEN.name}")
    assert GOLDEN.exists(), "no golden file; run with --record"
    text = GOLDEN.read_text()
    expected = json.loads(text)
    for part in ("jobs", "suggestions"):
        got, want = actual[part], expected[part]
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"{part}[{i}] differs from the golden file"
        assert len(got) == len(want), f"{part}: {len(got)} != {len(want)}"
    assert _encode(actual) == text

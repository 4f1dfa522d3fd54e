"""Golden oracle for the bytes a durable classify run writes to its WAL.

A fixed script runs against a durable database: the seeded corpus, 25
synthetic classified materials and 15 unclassified ones, then two
classify passes over the inbox (8 materials, then all 15; the second
files 35 suggestions and skips 40).  The sha256 of the resulting
``wal.log`` must equal the committed value, so a change to the engine's
write path (how rows are batched into frames, how a frame is encoded)
cannot move a single WAL byte unnoticed.

The service is driven directly, not through ``JobQueue``: the queue
stamps jobs with its clock, which would make the log nondeterministic.
"""

from __future__ import annotations

import hashlib

from repro.core.classification import ClassificationSet
from repro.core.repository import Repository
from repro.corpus.generator import GeneratorConfig, generate_specs
from repro.corpus.seed import seed_all
from repro.db import Database
from repro.jobs import ClassificationService

WAL_BYTES = 1052713
WAL_SHA256 = (
    "b2a7b8e89e1ea16f0198f0953e373fc60283149574cff17d9d582308a6242f39"
)


def test_durable_classify_run_writes_the_golden_wal(tmp_path):
    # compact_bytes=0: no checkpoint may truncate the log mid-script,
    # whatever CARCS_WAL_COMPACT_BYTES says.
    db = Database.open(tmp_path, wal_sync="off", compact_bytes=0)
    repo = seed_all(Repository(db))
    specs = generate_specs(
        repo.ontology("CS13"), GeneratorConfig(n_materials=40, seed=7)
    )
    for material, classification in specs[:25]:
        repo.add_material(material, classification)
    inbox = [
        repo.add_material(material, ClassificationSet()).id
        for material, _ in specs[25:]
    ]
    service = ClassificationService(repo, batch_size=4)
    first = service.classify_materials(inbox[:8])
    second = service.classify_materials(inbox)
    db.close()
    assert (first["suggested"], first["skipped"]) == (40, 0)
    assert (second["suggested"], second["skipped"]) == (35, 40)
    data = (tmp_path / "wal.log").read_bytes()
    assert len(data) == WAL_BYTES
    assert hashlib.sha256(data).hexdigest() == WAL_SHA256

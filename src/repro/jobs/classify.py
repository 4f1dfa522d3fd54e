"""The automatic classification service: the ``classify`` job handler.

The paper's central cost is human classification time (15-25 minutes
per material).  Following the machine-assist pipeline of the follow-up
work ("Automatic Classification of Pedagogical Materials against CS
Curriculum Guidelines"), this service trains the in-repo classifiers
(:mod:`repro.text.naive_bayes`, :mod:`repro.text.knn`) on the already-
classified corpus and writes **confidence-ranked pending suggestions**
for unclassified materials — never direct classifications.  A human
editor closes the loop through the review endpoints
(``/api/v2/suggestions/<id>/accept|reject``), exactly the editor-pool
model :mod:`repro.analysis.crowdsim` simulates.

Suggestion writes are idempotent per ``(material, ontology key)``
(:meth:`repro.core.repository.Repository.machine_suggest`), which is
what makes job retries and lease re-issues safe: a job that ran
halfway before its worker died re-runs from the top and only fills in
the missing rows.

The model is the repository's one shared model
(:func:`repro.core.recommend.classify_model`), the same one behind
``POST /recommendations`` and the ABL-2 evaluation: built from training
features the change journal keeps current and memoized until a
classification, a training text or an ontology entry changes.

Each batch files its suggestions in one transaction: one write frame
(one WAL record, one published snapshot) per batch, not per suggestion.
A failure mid-batch files none of the batch's rows, and the re-run
files them all.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.core.recommend import (
    ClassifyModel,
    Suggestion,
    classify_model,
    material_text,
)
from repro.core.repository import Repository
from repro.obs import trace as _trace

from .worker import JobContext

#: Ontologies suggested against by default — the two the paper curates.
DEFAULT_ONTOLOGIES = ("CS13", "PDC12")


def unclassified_material_ids(
    repo: Repository, *, collection: str | None = None
) -> list[int]:
    """Materials with no classification at all — the service's inbox."""
    keys = repo.classification_keys()
    ids = [mid for mid, ks in keys.items() if not ks]
    if collection is not None:
        wanted = {
            r["id"]
            for r in repo.db.table("materials").find(collection=collection)
        }
        ids = [mid for mid in ids if mid in wanted]
    return sorted(ids)


class ClassificationService:
    """Train-once, suggest-many facade the ``classify`` handler uses."""

    def __init__(
        self,
        repo: Repository,
        *,
        top: int = 5,
        min_confidence: float = 0.1,
        batch_size: int = 25,
    ) -> None:
        self.repo = repo
        self.top = top
        self.min_confidence = min_confidence
        self.batch_size = batch_size

    def model(self) -> ClassifyModel:
        """The repository's shared model, memoized until a
        classification changes."""
        return classify_model(self.repo)

    def suggest_for(
        self,
        material_ids: Sequence[int],
        *,
        ontologies: Iterable[str] = DEFAULT_ONTOLOGIES,
        top: int | None = None,
    ) -> dict[int, list[Suggestion]]:
        """Suggestions per material (no writes)."""
        top = self.top if top is None else top
        model = self.model()
        texts = [
            material_text(self.repo.get_material(mid))
            for mid in material_ids
        ]
        per_doc = model.suggest(texts, ontologies=ontologies, top=top)
        return {
            mid: [
                s for s in suggestions if s.confidence >= self.min_confidence
            ]
            for mid, suggestions in zip(material_ids, per_doc)
        }

    def classify_materials(
        self,
        material_ids: Sequence[int],
        *,
        ontologies: Iterable[str] = DEFAULT_ONTOLOGIES,
        top: int | None = None,
        heartbeat: Callable[[], None] | None = None,
    ) -> dict[str, Any]:
        """Write pending machine suggestions for ``material_ids``.

        Processes in batches, calling ``heartbeat`` between them so a
        worker's lease outlives a long run.  Each batch's writes commit
        as one transaction.  Idempotent: materials that already carry an
        equivalent suggestion (or classification) are skipped, so
        re-running after a crash only fills in the gaps.
        """
        ontologies = tuple(ontologies)
        written = skipped = 0
        with _trace.span(
            "job.classify", materials=len(material_ids),
        ) as span_:
            for start in range(0, len(material_ids), self.batch_size):
                batch = list(material_ids[start:start + self.batch_size])
                if heartbeat is not None and start > 0:
                    heartbeat()
                suggestions = self.suggest_for(
                    batch, ontologies=ontologies, top=top
                )
                with self.repo.db.transaction():
                    for mid in batch:
                        for s in suggestions.get(mid, ()):
                            sid = self.repo.machine_suggest(
                                mid, s.key,
                                confidence=s.confidence, source=s.source,
                            )
                            if sid is None:
                                skipped += 1
                            else:
                                written += 1
            span_.set(written=written, skipped=skipped)
        return {
            "materials": len(material_ids),
            "ontologies": list(ontologies),
            "suggested": written,
            "skipped": skipped,
        }


def make_classify_handler(repo: Repository,
                          service: ClassificationService | None = None):
    """The ``classify`` job handler.

    Payload fields (all optional): ``material_ids`` (explicit targets),
    ``collection`` (limit the unclassified sweep), ``ontologies``,
    ``top``.  With no targets given, every unclassified material is
    swept.
    """
    svc = service if service is not None else ClassificationService(repo)

    def handler(ctx: JobContext) -> dict[str, Any]:
        payload = ctx.payload
        ids = payload.get("material_ids")
        if ids is None:
            ids = unclassified_material_ids(
                repo, collection=payload.get("collection")
            )
        ontologies = tuple(payload.get("ontologies") or DEFAULT_ONTOLOGIES)
        return svc.classify_materials(
            [int(i) for i in ids],
            ontologies=ontologies,
            top=payload.get("top"),
            heartbeat=ctx.heartbeat,
        )

    return handler


def default_handlers(repo: Repository) -> dict[str, Any]:
    """The standard handler registry a CAR-CS worker runs."""
    return {"classify": make_classify_handler(repo)}

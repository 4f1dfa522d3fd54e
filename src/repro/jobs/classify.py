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

The fitted model is memoized in the repository's analytics cache,
keyed on the classification-table versions — one training pass serves
every job until an accept/reject (or any classification edit)
invalidates it.  The retrain that follows reuses the previous fit's
tokens of every training material whose text did not change, so it
tokenizes only new or edited materials.

Each batch files its suggestions in one transaction: one write frame
(one WAL record, one published snapshot) per batch, not per suggestion.
A failure mid-batch files none of the batch's rows, and the re-run
files them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.material import Material
from repro.core.repository import Repository
from repro.obs import trace as _trace
from repro.text.knn import KnnClassifier
from repro.text.naive_bayes import NaiveBayesClassifier
from repro.text.vectorize import TfidfVectorizer

from .worker import JobContext

#: Ontologies suggested against by default — the two the paper curates.
DEFAULT_ONTOLOGIES = ("CS13", "PDC12")

#: Tables whose mutation invalidates the fitted model.
_MODEL_TABLES = (
    "material_classifications", "ontology_entries", "materials",
    "material_tags",
)


@dataclass(frozen=True)
class Suggestion:
    """One confidence-ranked suggestion for a material."""

    key: str
    ontology: str
    confidence: float
    source: str  # "nb", "knn" or "nb+knn"


def material_text(material: Material) -> str:
    """The text the classifiers see — mirrors what a human reviewer
    reads first: title, description, tags and languages."""
    return " ".join((
        material.title,
        material.description,
        " ".join(material.tags),
        " ".join(material.languages),
    ))


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


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


#: A training material's text and the token list it preprocesses to.
_Tokens = tuple[str, list[str]]


class _Model:
    """One fitted (vectorizer, NB, kNN) bundle over the classified corpus.

    ``tokens`` maps material ids to the tokens of an earlier fit; an
    entry is reused only while the material's text is unchanged.
    :attr:`tokens` then holds this fit's training set, and nothing else.
    """

    def __init__(self, repo: Repository, *, nb_alpha: float,
                 min_label_count: int, knn_k: int,
                 knn_threshold: float,
                 tokens: Mapping[int, _Tokens]) -> None:
        keys = repo.classification_keys()
        self.key_ontology = {
            row["key"]: row["ontology"]
            for row in repo.db.table("ontology_entries")
        }
        self.train_ids = [mid for mid in sorted(keys) if keys[mid]]
        texts = [
            material_text(repo.get_material(mid)) for mid in self.train_ids
        ]
        labels = [sorted(keys[mid]) for mid in self.train_ids]
        self.vectorizer: TfidfVectorizer | None = None
        self.nb: NaiveBayesClassifier | None = None
        self.knn: KnnClassifier | None = None
        self.tokens: dict[int, _Tokens] = {}
        if not self.train_ids:
            return
        self.vectorizer = TfidfVectorizer(min_df=1)
        for mid, text in zip(self.train_ids, texts):
            known = tokens.get(mid)
            if known is None or known[0] != text:
                known = (text, self.vectorizer.tokenize([text])[0])
            self.tokens[mid] = known
        # One tokenization feeds both learners: NB fits the raw counts,
        # kNN their TF-IDF weighing.
        counts = self.vectorizer.fit_tokens(
            [self.tokens[mid][1] for mid in self.train_ids]
        )
        try:
            self.nb = NaiveBayesClassifier(
                alpha=nb_alpha, min_label_count=min_label_count,
            ).fit(counts, labels)
        except ValueError:
            # Too little evidence for any label — kNN alone still works.
            self.nb = None
        self.knn = KnnClassifier(k=knn_k, threshold=knn_threshold).fit(
            self.vectorizer.weigh(counts), labels
        )

    def suggest(
        self, texts: Sequence[str], *, ontologies: Iterable[str], top: int
    ) -> list[list[Suggestion]]:
        """Per text: merged NB + kNN suggestions, best first."""
        if self.vectorizer is None or not texts:
            return [[] for _ in texts]
        wanted = set(ontologies)
        merged: list[dict[str, Suggestion]] = [dict() for _ in texts]
        counts = self.vectorizer.counts(texts)
        if self.nb is not None:
            for i, row in enumerate(self.nb.suggest(counts, top=top * 3)):
                for s in row:
                    merged[i][s.label] = Suggestion(
                        key=s.label,
                        ontology=self.key_ontology.get(s.label, ""),
                        confidence=_sigmoid(s.log_odds),
                        source="nb",
                    )
        if self.knn is not None:
            X = self.vectorizer.weigh(counts)
            for i, row in enumerate(self.knn.suggest(X)):
                for s in row:
                    prior = merged[i].get(s.label)
                    if prior is None:
                        merged[i][s.label] = Suggestion(
                            key=s.label,
                            ontology=self.key_ontology.get(s.label, ""),
                            confidence=s.score,
                            source="knn",
                        )
                    else:
                        merged[i][s.label] = Suggestion(
                            key=s.label,
                            ontology=prior.ontology,
                            confidence=max(prior.confidence, s.score),
                            source="nb+knn",
                        )
        out: list[list[Suggestion]] = []
        for bucket in merged:
            ranked = sorted(
                (
                    s for s in bucket.values()
                    if s.ontology in wanted
                ),
                key=lambda s: (-s.confidence, s.key),
            )
            out.append(ranked[:top])
        return out


class ClassificationService:
    """Train-once, suggest-many facade the ``classify`` handler uses."""

    def __init__(
        self,
        repo: Repository,
        *,
        top: int = 5,
        min_confidence: float = 0.1,
        nb_alpha: float = 1.0,
        min_label_count: int = 2,
        knn_k: int = 5,
        knn_threshold: float = 0.2,
        batch_size: int = 25,
    ) -> None:
        self.repo = repo
        self.top = top
        self.min_confidence = min_confidence
        self.nb_alpha = nb_alpha
        self.min_label_count = min_label_count
        self.knn_k = knn_k
        self.knn_threshold = knn_threshold
        self.batch_size = batch_size
        self._tokens: Mapping[int, _Tokens] = {}

    def model(self) -> _Model:
        """The fitted model, memoized until a classification changes."""
        return self.repo.cache.get_or_compute(
            "jobs.classify_model", (
                self.nb_alpha, self.min_label_count,
                self.knn_k, self.knn_threshold,
            ),
            _MODEL_TABLES,
            self._fit,
        )

    def _fit(self) -> _Model:
        model = _Model(
            self.repo,
            nb_alpha=self.nb_alpha,
            min_label_count=self.min_label_count,
            knn_k=self.knn_k,
            knn_threshold=self.knn_threshold,
            tokens=self._tokens,
        )
        # Two concurrent fits may race here; either store is complete
        # for its own fit, so losing one costs only some reuse.
        self._tokens = model.tokens
        return model

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

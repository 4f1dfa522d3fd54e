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

The model's training features are the second subscriber of the
repository's :class:`~repro.core.view.MaterialView` (after the search
engine), held once per repository: each training material's text,
tokens and label set, plus per-label integer term counts.  The view
replays the change journal into them, so a retrain after an editor's
accept reads only the materials the journal names, tokenizes only new
or edited texts, and patches the counts of the changed (document,
label) pairs.  The fitted model is memoized in the repository's
analytics cache, keyed on the classification-table versions; building
it from the features re-weighs the stored counts for kNN without
tokenizing anything and builds no naive Bayes matrix at all (its
columns are computed as queries need them,
:mod:`repro.text.naive_bayes`).  Every model equals a cold fit over the
same training set bit for bit.

Each batch files its suggestions in one transaction: one write frame
(one WAL record, one published snapshot) per batch, not per suggestion.
A failure mid-batch files none of the batch's rows, and the re-run
files them all.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.material import Material
from repro.core.repository import Repository
from repro.obs import trace as _trace
from repro.text.knn import KnnClassifier
from repro.text.naive_bayes import NaiveBayesClassifier
from repro.text.vectorize import (
    TfidfVectorizer,
    Vocabulary,
    l2_norms,
    smooth_idf,
)

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


class _Doc(NamedTuple):
    """One training material as the features hold it."""

    text: str
    tokens: list[str]
    terms: np.ndarray      # term ids, distinct
    counts: np.ndarray     # their counts in the text
    labels: frozenset[str]
    label_ids: np.ndarray


class TrainingFeatures:
    """The classify model's training set, kept current from the change
    journal (a :class:`~repro.core.view.MaterialView` subscriber).

    A training material is one with at least one classification.  Terms
    and labels get stable integer ids in order of first sight.  Per term
    the features keep its document frequency, its total count and its
    count in each label's documents — a vector over label ids, replaced
    rather than modified when it changes, so a model built earlier keeps
    reading its own counts.  Per label they keep its document and token
    totals.  :attr:`lock` guards all of it.
    """

    classified_only = True

    def __init__(self, repo: Repository) -> None:
        self.repo = repo
        self.view = repo.material_view()
        self.lock = threading.RLock()
        self._tokenizer = TfidfVectorizer()
        self._reset()
        self._key_ontology: tuple[int, dict[str, str]] | None = None

    def _reset(self) -> None:
        self.docs: dict[int, _Doc] = {}
        self.term_ids: dict[str, int] = {}
        self.df: list[int] = []
        self.term_totals: list[int] = []
        self.term_pos: list[np.ndarray] = []
        self.label_ids: dict[str, int] = {}
        self.label_docs: list[int] = []
        self.label_tokens: list[int] = []

    # ------------------------------------------------ view subscriber

    def rebuild(self) -> None:
        """Read every training material again; texts that did not change
        keep their tokens."""
        old = self.docs
        keys = self.repo.classification_keys()
        self._reset()
        for mid in sorted(keys):
            if keys[mid]:
                text = material_text(self.repo.get_material(mid))
                self._add(mid, text, self._tokens(old.get(mid), text),
                          keys[mid], patch_terms=False)
        # Every (term, label) count in one pass, instead of a vector
        # copy per document.
        n_labels = len(self.label_ids)
        docs = self.docs.values()
        cells = np.bincount(
            np.concatenate([np.zeros(0, dtype=np.intp)] + [
                (doc.terms[:, None] * n_labels + doc.label_ids).ravel()
                for doc in docs
            ]),
            weights=np.concatenate([np.zeros(0)] + [
                np.repeat(doc.counts, len(doc.label_ids)) for doc in docs
            ]),
            minlength=len(self.term_ids) * n_labels,
        ).astype(np.int32)
        self.term_pos = list(cells.reshape(len(self.term_ids), n_labels))

    def reindex(self, material: Material, keys: frozenset[str]) -> None:
        text = material_text(material)
        old = self.docs.get(material.id)
        if old is not None:
            if old.text == text and old.labels == keys:
                return
            self._remove(material.id)
        self._add(material.id, text, self._tokens(old, text), keys)

    def remove(self, material_id: int) -> None:
        if material_id in self.docs:
            self._remove(material_id)

    # ---------------------------------------------------------- counts

    def _tokens(self, old: _Doc | None, text: str) -> list[str]:
        if old is not None and old.text == text:
            return old.tokens
        return self._tokenizer.tokenize([text])[0]

    def _add(self, mid: int, text: str, tokens: list[str],
             labels: frozenset[str], *, patch_terms: bool = True) -> None:
        tally = Counter(tokens)
        terms = np.fromiter(
            (self._term_id(t) for t in tally), dtype=np.intp,
            count=len(tally))
        counts = np.fromiter(tally.values(), dtype=np.int64,
                             count=len(tally))
        label_ids = np.fromiter(
            (self._label_id(l) for l in sorted(labels)), dtype=np.intp,
            count=len(labels))
        doc = _Doc(text, tokens, terms, counts, labels, label_ids)
        self.docs[mid] = doc
        self._count(doc, 1, patch_terms)

    def _remove(self, mid: int) -> None:
        self._count(self.docs.pop(mid), -1, True)

    def _count(self, doc: _Doc, sign: int, patch_terms: bool) -> None:
        for term, count in zip(doc.terms.tolist(), doc.counts.tolist()):
            self.df[term] += sign
            self.term_totals[term] += sign * count
            if patch_terms:
                vector = self.term_pos[term]
                grown = np.zeros(len(self.label_ids), dtype=np.int32)
                grown[:len(vector)] = vector
                grown[doc.label_ids] += sign * count
                self.term_pos[term] = grown
        for label in doc.label_ids.tolist():
            self.label_docs[label] += sign
            self.label_tokens[label] += sign * len(doc.tokens)

    def _term_id(self, term: str) -> int:
        tid = self.term_ids.get(term)
        if tid is None:
            tid = self.term_ids[term] = len(self.df)
            self.df.append(0)
            self.term_totals.append(0)
            self.term_pos.append(np.zeros(0, dtype=np.int32))
        return tid

    def _label_id(self, label: str) -> int:
        lid = self.label_ids.get(label)
        if lid is None:
            lid = self.label_ids[label] = len(self.label_docs)
            self.label_docs.append(0)
            self.label_tokens.append(0)
        return lid

    # ----------------------------------------------------------- model

    def _entry_ontologies(self) -> tuple[int, dict[str, str]]:
        """(ontology_entries version, entry key -> ontology name), read
        again only after an ontology-entry write.  Rollback restores
        versions, so a map read inside a transaction is not kept."""
        db = self.repo.db
        version = db.table_versions().get("ontology_entries", -1)
        known = self._key_ontology
        if known is None or known[0] != version or db.in_transaction:
            known = (version, {
                row["key"]: row["ontology"]
                for row in db.table("ontology_entries")
            })
            if not db.in_transaction:
                self._key_ontology = known
        return known

    def model(self, params: tuple) -> "_Model":
        """A model over the current training set, after catching the
        view up.  Callers that want a consistent read pin the database
        around it."""
        with self.lock:
            self.view.catch_up(self)
            return _Model(self, self._entry_ontologies()[1], *params)


def training_features(repo: Repository) -> TrainingFeatures:
    """The repository's one :class:`TrainingFeatures`."""
    return repo.material_view().shared(
        "classify", lambda: TrainingFeatures(repo)
    )


def _tfidf_rows(docs: list[_Doc], column: np.ndarray,
                idf: np.ndarray) -> np.ndarray:
    """The documents' TF-IDF rows from their stored counts: the
    vectorizer's ``weigh`` of their count matrix, bit for bit."""
    rows = np.repeat(np.arange(len(docs)), [len(doc.terms) for doc in docs])
    cols = column[np.concatenate([doc.terms for doc in docs])]
    X = np.zeros((len(docs), len(idf)))
    X[rows, cols] = np.concatenate([doc.counts for doc in docs]) * idf[cols]
    X /= l2_norms(X)
    return X


class _Model:
    """One fitted (vectorizer, NB, kNN) bundle over the training set."""

    def __init__(self, features: TrainingFeatures,
                 key_ontology: dict[str, str], nb_alpha: float,
                 min_label_count: int, knn_k: int,
                 knn_threshold: float) -> None:
        self.key_ontology = key_ontology
        self.train_ids = sorted(features.docs)
        self.vectorizer: TfidfVectorizer | None = None
        self.nb: NaiveBayesClassifier | None = None
        self.knn: KnnClassifier | None = None
        if not self.train_ids:
            return
        docs = [features.docs[mid] for mid in self.train_ids]
        term_ids = features.term_ids
        terms = sorted(t for t, i in term_ids.items() if features.df[i])
        # Vocabulary column -> term id, and back.
        tid = np.fromiter((term_ids[t] for t in terms), dtype=np.intp,
                          count=len(terms))
        column = np.full(len(term_ids), -1, dtype=np.intp)
        column[tid] = np.arange(len(terms))
        self.vectorizer = TfidfVectorizer(min_df=1)
        self.vectorizer.vocabulary = Vocabulary(
            index={t: j for j, t in enumerate(terms)})
        self.vectorizer.idf = smooth_idf(
            np.asarray(features.df, dtype=np.float64)[tid], len(docs))
        self.knn = KnnClassifier(k=knn_k, threshold=knn_threshold).fit(
            _tfidf_rows(docs, column, self.vectorizer.idf),
            [doc.labels for doc in docs])
        # NB: the labels with enough documents, and per term its counts
        # in their documents (the vectors as they are now).
        names = sorted(
            label for label, i in features.label_ids.items()
            if features.label_docs[i] >= min_label_count
        )
        if not names:
            return  # too little evidence for any label: kNN alone
        lids = np.fromiter((features.label_ids[n] for n in names),
                           dtype=np.intp, count=len(names))
        width = len(features.label_ids)
        vectors = [features.term_pos[i] for i in tid.tolist()]

        def term_pos(terms: list[int]) -> np.ndarray:
            block = np.zeros((len(terms), width), dtype=np.int32)
            for row, term in zip(block, terms):
                row[:len(vectors[term])] = vectors[term]
            return block[:, lids]

        self.nb = NaiveBayesClassifier(
            alpha=nb_alpha, min_label_count=min_label_count,
        ).load_counts(
            names,
            n_docs=len(docs),
            label_docs=np.asarray(features.label_docs)[lids],
            label_tokens=np.asarray(features.label_tokens)[lids],
            term_totals=np.asarray(features.term_totals,
                                   dtype=np.float64)[tid],
            term_pos=term_pos,
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

    def model(self) -> _Model:
        """The fitted model, memoized until a classification changes.

        A retrain catches the repository's training features up from
        the change journal and builds the model from them."""
        features = training_features(self.repo)
        params = (self.nb_alpha, self.min_label_count,
                  self.knn_k, self.knn_threshold)
        with self.repo.db.pinned():
            return self.repo.cache.get_or_compute(
                "jobs.classify_model", params, _MODEL_TABLES,
                lambda: features.model(params),
            )

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

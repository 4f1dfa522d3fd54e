"""Classification suggestion — the paper's proposed curation accelerator.

Conclusion: "once more material is classified using the system, we should
be able to suggest classifications to save time for the user"; Section
IV-A: "we would be able to leverage existing classification to provide
recommendation on topics commonly used together."

One model serves every suggester: ``POST /recommendations``, the
``classify`` job (:mod:`repro.jobs.classify`) and the ABL-2 evaluation.
:class:`ClassifyModel` bundles

* **text kNN** — TF-IDF rows of the classified materials, labels voted by
  the nearest ones (:class:`repro.text.KnnClassifier`);
* **text naive Bayes** — one-vs-rest multinomial NB over term counts;
* **co-occurrence** — given a *partial* classification, the entries that
  most often share a material with the selected ones (mean conditional
  frequency), exactly the "topics commonly used together" idea.

The model is built from :class:`TrainingFeatures`, the second subscriber
of the repository's :class:`~repro.core.view.MaterialView` (after the
search engine), held once per repository: each training material's
text, tokens and label set, plus per-label integer term counts.  The
view replays the change journal into them, so a retrain after an
editor's accept reads only the materials the journal names, tokenizes
only new or edited texts, and patches the counts of the changed
(document, label) pairs.  :func:`classify_model` memoizes the model in
the repository's analytics cache until a model table changes.  Building
it re-weighs the stored counts for kNN without tokenizing anything and
builds no naive Bayes matrix (its columns are computed as queries need
them, :mod:`repro.text.naive_bayes`) and no co-occurrence counts (built
from the label sets on first use).  Every model equals a cold fit over
the same training set bit for bit.

:class:`HybridRecommender` merges the kNN and co-occurrence evidence.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.text.knn import KnnClassifier, KnnSuggestion
from repro.text.naive_bayes import NaiveBayesClassifier
from repro.text.vectorize import (
    TfidfVectorizer,
    Vocabulary,
    count_matrix,
    l2_norms,
    smooth_idf,
)

from .material import Material
from .repository import Repository

#: Naive Bayes smoothing constant and the fewest documents a label needs
#: to get an NB column.
NB_ALPHA = 1.0
MIN_LABEL_COUNT = 2
#: kNN neighbours consulted and the least normalized vote suggested.
KNN_K = 5
KNN_THRESHOLD = 0.2

#: Tables whose mutation invalidates the fitted model.
_MODEL_TABLES = (
    "material_classifications", "ontology_entries", "materials",
    "material_tags",
)


@dataclass
class Recommendation:
    key: str
    score: float
    source: str  # "cooccurrence" | "hybrid"


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
    """The model's training set, kept current from the change journal
    (a :class:`~repro.core.view.MaterialView` subscriber).

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

    def model(self) -> "ClassifyModel":
        """A model over the current training set, after catching the
        view up.  Callers that want a consistent read pin the database
        around it."""
        with self.lock:
            self.view.catch_up(self)
            return ClassifyModel(self, self._entry_ontologies()[1])


def training_features(repo: Repository) -> TrainingFeatures:
    """The repository's one :class:`TrainingFeatures`."""
    return repo.material_view().shared(
        "classify", lambda: TrainingFeatures(repo)
    )


def classify_model(repo: Repository) -> "ClassifyModel":
    """The repository's fitted model, memoized until a model table
    changes.  A retrain catches the training features up from the change
    journal and builds the model from them.  (The memo keeps its
    historical name, ``jobs.classify_model``: the benchmark harness
    counts retrains by it.)"""
    features = training_features(repo)
    with repo.db.pinned():
        return repo.cache.get_or_compute(
            "jobs.classify_model", (), _MODEL_TABLES, features.model,
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


class CooccurrenceRecommender:
    """Complete a partial classification from corpus co-occurrence.

    Score of entry *e* given selected set *S*:
    ``mean over s in S of  P(e | s)`` estimated from the label sets.
    The counts are sparse: per key, the keys that share a material with
    it and ``P(other | key)``.
    """

    def __init__(self, label_sets: Sequence[frozenset[str]]) -> None:
        self._keys = sorted(set().union(*label_sets))
        self._index = {k: i for i, k in enumerate(self._keys)}
        n = len(self._keys)
        ids = [
            np.fromiter((self._index[k] for k in ls), dtype=np.intp,
                        count=len(ls))
            for ls in label_sets
        ]
        pairs, counts = np.unique(
            np.concatenate([np.zeros(0, dtype=np.intp)] + [
                (i[:, None] * n + i).ravel() for i in ids
            ]),
            return_counts=True,
        )
        rows, cols = np.divmod(pairs, n)
        # Every key labels a material, so every (key, key) pair is
        # present, in key order: its count is the key's document count.
        diag = counts[rows == cols].astype(np.float64)
        off = rows != cols
        self._start = np.searchsorted(rows[off], np.arange(n + 1))
        self._cols = cols[off]
        self._cond = counts[off] / diag[rows[off]]  # P(col | row)

    def recommend(
        self, selected: Sequence[str], *, top: int = 10, min_score: float = 0.2
    ) -> list[Recommendation]:
        rows = [self._index[k] for k in selected if k in self._index]
        if not rows:
            return []
        # The rows' sum in selection order, then one division: the
        # dense row mean's arithmetic, bit for bit.
        scores = np.zeros(len(self._keys))
        for row in rows:
            lo, hi = self._start[row], self._start[row + 1]
            scores[self._cols[lo:hi]] += self._cond[lo:hi]
        scores /= len(rows)
        for k in selected:  # never re-suggest what is already selected
            if k in self._index:
                scores[self._index[k]] = 0.0
        order = np.argsort(-scores, kind="stable")[:top]
        return [
            Recommendation(self._keys[int(i)], float(scores[int(i)]), "cooccurrence")
            for i in order
            if scores[int(i)] >= min_score
        ]


class ClassifyModel:
    """One fitted (vectorizer, NB, kNN) bundle over the training set,
    with co-occurrence counts of its label sets built on first use."""

    def __init__(self, features: TrainingFeatures,
                 key_ontology: dict[str, str]) -> None:
        self.key_ontology = key_ontology
        self.train_ids = sorted(features.docs)
        self.vectorizer: TfidfVectorizer | None = None
        self.nb: NaiveBayesClassifier | None = None
        self.knn: KnnClassifier | None = None
        docs = [features.docs[mid] for mid in self.train_ids]
        self.label_sets = [doc.labels for doc in docs]
        if not docs:
            return
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
        self.knn = KnnClassifier(k=KNN_K, threshold=KNN_THRESHOLD).fit(
            _tfidf_rows(docs, column, self.vectorizer.idf), self.label_sets)
        # NB: the labels with enough documents, and per term its counts
        # in their documents (the vectors as they are now).
        names = sorted(
            label for label, i in features.label_ids.items()
            if features.label_docs[i] >= MIN_LABEL_COUNT
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
            alpha=NB_ALPHA, min_label_count=MIN_LABEL_COUNT,
        ).load_counts(
            names,
            n_docs=len(docs),
            label_docs=np.asarray(features.label_docs)[lids],
            label_tokens=np.asarray(features.label_tokens)[lids],
            term_totals=np.asarray(features.term_totals,
                                   dtype=np.float64)[tid],
            term_pos=term_pos,
        )

    @cached_property
    def cooccurrence(self) -> CooccurrenceRecommender:
        return CooccurrenceRecommender(self.label_sets)

    def knn_suggest(self, text: str) -> list[KnnSuggestion]:
        """kNN suggestions for one text, best first."""
        if self.knn is None:
            return []
        return self.knn.suggest(self.vectorizer.transform([text]))[0]

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


class HybridRecommender:
    """Blend text-kNN and co-occurrence evidence from the shared model.

    Intended interactive flow (Section IV-A's 15-25 minutes per item):
    the curator types the metadata, text suggestions seed the selection,
    then co-occurrence suggestions complete it.
    """

    def __init__(self, repo: Repository, *, text_weight: float = 0.6):
        if not 0.0 <= text_weight <= 1.0:
            raise ValueError("text_weight must be in [0, 1]")
        self.repo = repo
        self.text_weight = text_weight
        self.model: ClassifyModel | None = None

    def fit(self) -> "HybridRecommender":
        """Take the repository's current model (:func:`classify_model`)."""
        self.model = classify_model(self.repo)
        return self

    def recommend(
        self,
        text: str,
        selected: Sequence[str] = (),
        *,
        top: int = 10,
    ) -> list[Recommendation]:
        model = self.model if self.model is not None else self.fit().model
        merged: dict[str, float] = {}
        for s in model.knn_suggest(text)[:top * 2]:
            merged[s.label] = merged.get(s.label, 0.0) + self.text_weight * s.score
        if selected:
            for rec in model.cooccurrence.recommend(
                selected, top=top * 2, min_score=0.0
            ):
                merged[rec.key] = (
                    merged.get(rec.key, 0.0) + (1.0 - self.text_weight) * rec.score
                )
        for key in selected:
            merged.pop(key, None)
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        return [Recommendation(k, s, "hybrid") for k, s in ranked if s > 0.0]


def evaluate_leave_one_out(
    repo: Repository, *, top: int = 10
) -> dict[str, dict[str, float]]:
    """Exact leave-one-out accuracy of the model's kNN and NB arms over
    every classified material — the ABL-2 experiment of DESIGN.md.

    Each fold removes the held-out material from a private
    :class:`TrainingFeatures`, builds the model from the rest (a cold
    fit over them, bit for bit), scores the held-out text's top-``top``
    suggestions from both arms against its true classification, and puts
    the material back.  Every text is tokenized once.  Reports
    precision, recall, F1 and the number of materials per arm.
    """
    features = TrainingFeatures(repo)
    with repo.db.pinned(), features.lock:
        features.rebuild()
        if not features.docs:
            raise ValueError("no classified materials to evaluate")
        hits: dict[str, list[tuple[float, float]]] = {"knn": [], "nb": []}
        for mid in sorted(features.docs):
            doc = features.docs[mid]
            features.remove(mid)
            model = ClassifyModel(features, {})
            suggested = {"knn": set(), "nb": set()}
            if model.vectorizer is not None:
                counts = count_matrix([doc.tokens], model.vectorizer.vocabulary)
                suggested["knn"] = {
                    s.label for s in
                    model.knn.suggest(model.vectorizer.weigh(counts))[0][:top]
                }
                if model.nb is not None:
                    suggested["nb"] = {
                        s.label for s in model.nb.suggest(counts, top=top)[0]
                    }
            # Back in with the tokens it has: reindex would tokenize.
            features._add(mid, doc.text, doc.tokens, doc.labels)
            for arm, keys in suggested.items():
                hit = len(keys & doc.labels)
                hits[arm].append(
                    (hit / len(keys), hit / len(doc.labels)) if keys
                    else (0.0, 0.0))
    out = {}
    for arm, pairs in hits.items():
        p = float(np.mean([pr for pr, _ in pairs]))
        r = float(np.mean([rc for _, rc in pairs]))
        f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        out[arm] = {"precision": p, "recall": r, "f1": f1, "n": float(len(pairs))}
    return out

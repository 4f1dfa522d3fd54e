"""Multinomial naive Bayes for one-vs-rest multi-label suggestion.

The second of the two from-scratch learners behind the classification
recommender (the other is :mod:`repro.text.knn`).  One binary multinomial
NB model is trained per label over raw term counts; log-space throughout,
Laplace smoothing, vectorised across labels.

Only the difference of the two classes matters for ranking, so the model
keeps one (labels × vocabulary) log-odds matrix,
``log P(t|pos) - log P(t|neg)``, and one prior log-odds vector.  A
document's score sums the matrix columns of its nonzero terms only: a
classify job's texts hold a few dozen of the vocabulary's terms.  The
fit accumulates the positive-class term totals from the (document,
label) pairs rather than a dense membership product; every count is an
integer, so the totals, and the log-odds matrix, are exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class NbSuggestion:
    label: str
    log_odds: float


class NaiveBayesClassifier:
    """One-vs-rest multinomial naive Bayes over count vectors.

    Parameters
    ----------
    alpha:
        Laplace/Lidstone smoothing constant.
    min_label_count:
        Labels seen on fewer than this many training documents are not
        modelled (too little evidence to suggest responsibly).
    """

    def __init__(self, alpha: float = 1.0, min_label_count: int = 2) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.alpha = alpha
        self.min_label_count = min_label_count
        self.labels_: list[str] = []
        # (L, V), column-major: a term's label column is contiguous.
        self._log_odds: np.ndarray | None = None
        self._prior_odds: np.ndarray | None = None  # (L,)

    def fit(
        self, counts: np.ndarray, labels: Sequence[Sequence[str]]
    ) -> "NaiveBayesClassifier":
        counts = np.asarray(counts, dtype=np.float64)
        n_docs, vocab = counts.shape
        if n_docs != len(labels):
            raise ValueError("counts rows and labels length differ")
        label_sets = [frozenset(ls) for ls in labels]
        tally: dict[str, int] = {}
        for ls in label_sets:
            for label in ls:
                tally[label] = tally.get(label, 0) + 1
        self.labels_ = sorted(
            l for l, c in tally.items() if c >= self.min_label_count
        )
        L = len(self.labels_)
        if L == 0:
            raise ValueError(
                "no label meets min_label_count; lower the threshold"
            )
        column = {label: li for li, label in enumerate(self.labels_)}
        pairs = np.array(
            [(d, column[label]) for d, ls in enumerate(label_sets)
             for label in ls if label in column],
            dtype=np.intp,
        ).reshape(-1, 2)
        pos_counts = _pair_totals(counts, pairs[:, 0], pairs[:, 1], L)
        neg_counts = counts.sum(axis=0)[None, :] - pos_counts     # (L, V)

        def _log_like(c: np.ndarray) -> np.ndarray:
            c += self.alpha  # in place: both count matrices are ours
            c /= c.sum(axis=1, keepdims=True)
            return np.log(c, out=c)

        log_odds = _log_like(pos_counts)
        log_odds -= _log_like(neg_counts)
        self._log_odds = np.asfortranarray(log_odds)

        n_pos = np.bincount(pairs[:, 1], minlength=L).astype(np.float64)
        prior_pos = (n_pos + self.alpha) / (n_docs + 2 * self.alpha)
        self._prior_odds = np.log(prior_pos) - np.log(1.0 - prior_pos)
        return self

    def log_odds(self, counts: np.ndarray) -> np.ndarray:
        """(n_docs, n_labels) log P(pos|doc) - log P(neg|doc)."""
        if self._log_odds is None:
            raise RuntimeError("classifier is not fitted")
        counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
        if counts.shape[1] != self._log_odds.shape[1]:
            raise ValueError("counts width differs from the fitted vocabulary")
        out = np.empty((counts.shape[0], len(self.labels_)))
        for i, row in enumerate(counts):
            terms = np.flatnonzero(row)
            out[i] = self._log_odds[:, terms] @ row[terms]
        out += self._prior_odds
        return out

    def suggest(
        self, counts: np.ndarray, *, top: int = 10
    ) -> list[list[NbSuggestion]]:
        """Per document: the labels with positive log-odds, best first."""
        odds = self.log_odds(counts)
        out: list[list[NbSuggestion]] = []
        for row in odds:
            pairs = [
                NbSuggestion(self.labels_[i], float(row[i]))
                for i in np.argsort(-row)[:top]
                if row[i] > 0.0
            ]
            out.append(pairs)
        return out

    def predict_labels(self, counts: np.ndarray) -> list[frozenset[str]]:
        return [
            frozenset(s.label for s in suggestions)
            for suggestions in self.suggest(counts, top=len(self.labels_))
        ]


def _pair_totals(counts: np.ndarray, docs: np.ndarray, labels: np.ndarray,
                 n_labels: int) -> np.ndarray:
    """(n_labels, V): per label, the sum of the count rows of its
    documents, read from the (doc, label) pairs' nonzero entries only."""
    vocab = counts.shape[1]
    nonzero = np.flatnonzero(counts != 0)
    rows, cols = np.divmod(nonzero, vocab)
    values = counts.ravel()[nonzero]
    starts = np.searchsorted(rows, np.arange(counts.shape[0] + 1))
    lengths = starts[docs + 1] - starts[docs]
    # The entry indices of every pair's row, pair after pair.
    offsets = np.cumsum(lengths) - lengths
    entries = (np.repeat(starts[docs] - offsets, lengths)
               + np.arange(lengths.sum()))
    totals = np.bincount(
        np.repeat(labels, lengths) * vocab + cols[entries],
        weights=values[entries], minlength=n_labels * vocab,
    )
    # An all-zero ``counts`` leaves no weights, and an integer bincount.
    return totals.reshape(n_labels, vocab).astype(np.float64, copy=False)

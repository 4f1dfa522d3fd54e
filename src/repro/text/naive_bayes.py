"""Multinomial naive Bayes for one-vs-rest multi-label suggestion.

The second of the two from-scratch learners behind the classification
recommender (the other is :mod:`repro.text.knn`).  One binary multinomial
NB model is trained per label over raw term counts; log-space throughout,
Laplace smoothing, vectorised across labels.

Only the difference of the two classes matters for ranking, so the model
scores with log-odds columns, ``log P(t|pos) - log P(t|neg)`` over the
labels, and one prior log-odds vector.  A document's score sums the
columns of its nonzero terms only: a classify job's texts hold a few
dozen of the vocabulary's terms.  The model keeps integer counts — per
term, its count in each label's documents and in all of them; per
label, its document and token totals — and computes a term's column the
first time a query holds the term, then keeps it.  Fitting therefore
makes no pass over the (labels × vocabulary) matrix, and a caller that
maintains the counts itself (the classify job's training features)
loads them with :meth:`NaiveBayesClassifier.load_counts`.  Every count
is an integer, so each column equals, bit for bit, the one a dense fit
computes with the same formula (the class denominators are exact sums
for the default smoothing constant 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
        self._prior_odds: np.ndarray | None = None  # (L,)
        # Per vocabulary term: its count in each label's documents (an
        # (L,) vector) and its count in every document.
        self._term_pos: Callable[[list[int]], np.ndarray] | None = None
        self._term_totals: np.ndarray | None = None  # (V,)
        # Per label, the smoothed token totals of each class.
        self._pos_total: np.ndarray | None = None
        self._neg_total: np.ndarray | None = None
        # (L, V) log-odds, column-major so a term's column is contiguous;
        # a column is computed the first time a query holds its term.
        # Unfilled columns are never written, so they cost no memory.
        self._log_odds: np.ndarray | None = None
        self._filled: np.ndarray | None = None  # (V,) bool

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
        names = sorted(
            l for l, c in tally.items() if c >= self.min_label_count
        )
        if not names:
            raise ValueError(
                "no label meets min_label_count; lower the threshold"
            )
        column = {label: li for li, label in enumerate(names)}
        pairs = np.array(
            [(d, column[label]) for d, ls in enumerate(label_sets)
             for label in ls if label in column],
            dtype=np.intp,
        ).reshape(-1, 2)
        # Column-major: one term's label counts are contiguous.
        pos = np.asfortranarray(
            _pair_totals(counts, pairs[:, 0], pairs[:, 1], len(names)))
        doc_totals = counts.sum(axis=1)
        return self.load_counts(
            names,
            n_docs=n_docs,
            label_docs=np.bincount(pairs[:, 1], minlength=len(names)),
            label_tokens=np.bincount(
                pairs[:, 1], weights=doc_totals[pairs[:, 0]],
                minlength=len(names),
            ),
            term_totals=counts.sum(axis=0),
            term_pos=lambda terms: pos[:, terms].T,
        )

    def load_counts(
        self, labels: Sequence[str], *, n_docs: int,
        label_docs: np.ndarray, label_tokens: np.ndarray,
        term_totals: np.ndarray,
        term_pos: Callable[[list[int]], np.ndarray],
    ) -> "NaiveBayesClassifier":
        """Fit from integer counts kept elsewhere: per label (sorted),
        its number of documents and their token total; per vocabulary
        term, its total count; and ``term_pos(terms)``, the
        (len(terms), labels) counts of those terms in each label's
        documents.  ``term_pos`` is asked only for the terms queries
        hold, and its answers must not change while this model is in
        use."""
        self.labels_ = list(labels)
        vocab = len(term_totals)
        # sum_t (count + alpha) per class, in integers plus alpha·V:
        # the dense sum of the smoothed counts, exactly for alpha 1.
        smoothing = self.alpha * vocab
        label_tokens = np.asarray(label_tokens, dtype=np.float64)
        self._pos_total = label_tokens + smoothing
        self._neg_total = (float(np.sum(term_totals)) - label_tokens
                           + smoothing)
        self._term_pos = term_pos
        self._term_totals = np.asarray(term_totals, dtype=np.float64)
        self._log_odds = np.empty((len(self.labels_), vocab), order="F")
        self._filled = np.zeros(vocab, dtype=bool)
        n_pos = np.asarray(label_docs, dtype=np.float64)
        prior_pos = (n_pos + self.alpha) / (n_docs + 2 * self.alpha)
        self._prior_odds = np.log(prior_pos) - np.log(1.0 - prior_pos)
        return self

    def _fill(self, terms: np.ndarray) -> None:
        """Compute the log-odds columns of ``terms`` not computed yet."""
        wanted = np.zeros(len(self._filled), dtype=bool)
        wanted[terms] = True
        need = np.flatnonzero(wanted & ~self._filled)
        if not need.size:
            return
        pos = np.asarray(self._term_pos(need.tolist()), dtype=np.float64)
        neg = self._term_totals[need][:, None] - pos
        pos += self.alpha
        pos /= self._pos_total
        np.log(pos, out=pos)
        neg += self.alpha
        neg /= self._neg_total
        pos -= np.log(neg, out=neg)
        self._log_odds[:, need] = pos.T
        self._filled[need] = True

    def log_odds_matrix(self, terms: Sequence[int]) -> np.ndarray:
        """The (L, len(terms)) log-odds columns of vocabulary ``terms``."""
        if self._log_odds is None:
            raise RuntimeError("classifier is not fitted")
        terms = np.asarray(terms, dtype=np.intp)
        self._fill(terms)
        return self._log_odds[:, terms]

    def log_odds(self, counts: np.ndarray) -> np.ndarray:
        """(n_docs, n_labels) log P(pos|doc) - log P(neg|doc)."""
        if self._log_odds is None:
            raise RuntimeError("classifier is not fitted")
        counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
        if counts.shape[1] != self._log_odds.shape[1]:
            raise ValueError("counts width differs from the fitted vocabulary")
        nonzero = [np.flatnonzero(row) for row in counts]
        if nonzero:
            self._fill(np.concatenate(nonzero))
        out = np.empty((counts.shape[0], len(self.labels_)))
        for i, (row, terms) in enumerate(zip(counts, nonzero)):
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

"""k-nearest-neighbour multi-label classifier over TF-IDF vectors.

Backs the paper's envisioned recommendation feature: "once more material
is classified using the system, we should be able to suggest
classifications to save time for the user" (Conclusion).  Labels here are
ontology entry keys; a material can carry many, so prediction is
multi-label: each neighbour votes, with votes weighted by cosine
similarity, and labels above a score threshold are suggested.

:meth:`KnnClassifier.fit` stores the training rows already
L2-normalized (column-major, so one term's column is contiguous).  A
query's cosine similarities then sum the training columns of its nonzero
terms only, weighted by its own normalized values: the same products as
:func:`repro.text.similarity.cosine_matrix`, without its zero terms or
its re-normalization of the whole training matrix on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .similarity import top_k_neighbors
from .vectorize import l2_normalize, l2_norms


@dataclass
class KnnSuggestion:
    """One suggested label with its accumulated evidence."""

    label: str
    score: float
    supporters: tuple[int, ...]  # training-row indices that voted


class KnnClassifier:
    """Multi-label weighted kNN.

    Parameters
    ----------
    k:
        Number of neighbours consulted per query.
    threshold:
        Minimum normalized vote score (0..1) for a label to be suggested.
    """

    def __init__(self, k: int = 5, threshold: float = 0.25) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.k = k
        self.threshold = threshold
        # L2-normalized training rows, column-major.
        self._X: np.ndarray | None = None
        self._labels: list[frozenset[str]] = []

    def fit(
        self, X: np.ndarray, labels: Sequence[Sequence[str]]
    ) -> "KnnClassifier":
        X = np.asarray(X, dtype=np.float64)
        if X.shape[0] != len(labels):
            raise ValueError("X rows and labels length differ")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        # Normalized in a column-major copy: a blocked transpose, then
        # an in-place division, the same values as ``l2_normalize``.
        norms = l2_norms(X)
        self._X = np.array(X, order="F")
        self._X /= norms
        self._labels = [frozenset(ls) for ls in labels]
        return self

    def suggest(self, queries: np.ndarray) -> list[list[KnnSuggestion]]:
        """Per query row: suggestions sorted by descending score."""
        if self._X is None:
            raise RuntimeError("classifier is not fitted")
        queries = l2_normalize(
            np.atleast_2d(np.asarray(queries, dtype=np.float64)))
        if queries.shape[1] != self._X.shape[1]:
            raise ValueError("query width differs from the training rows")
        sims = np.empty((queries.shape[0], self._X.shape[0]))
        for i, row in enumerate(queries):
            terms = np.flatnonzero(row)
            sims[i] = self._X[:, terms] @ row[terms]
        np.clip(sims, -1.0, 1.0, out=sims)
        neighbor_lists = top_k_neighbors(sims, self.k)
        out: list[list[KnnSuggestion]] = []
        for neighbors in neighbor_lists:
            votes: dict[str, float] = {}
            supporters: dict[str, list[int]] = {}
            total = sum(max(s, 0.0) for _, s in neighbors)
            for idx, sim in neighbors:
                weight = max(sim, 0.0)
                if weight == 0.0:
                    continue
                for label in self._labels[idx]:
                    votes[label] = votes.get(label, 0.0) + weight
                    supporters.setdefault(label, []).append(idx)
            suggestions = []
            if total > 0:
                for label, score in votes.items():
                    norm = score / total
                    if norm >= self.threshold:
                        suggestions.append(
                            KnnSuggestion(
                                label=label,
                                score=norm,
                                supporters=tuple(supporters[label]),
                            )
                        )
            suggestions.sort(key=lambda s: (-s.score, s.label))
            out.append(suggestions)
        return out

"""Vocabulary building and TF-IDF vectorization (vectorised NumPy).

This replaces the scikit-learn ``TfidfVectorizer`` the paper's envisioned
auto-classification would normally use.  Following the HPC guides'
optimization advice, the document-term matrix is assembled once into
dense NumPy arrays (the corpora here are small enough that a sparse
format buys nothing); the classifiers score a row through its nonzero
columns only (:mod:`repro.text.naive_bayes`, :mod:`repro.text.knn`).
All per-document Python loops are confined to tokenization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .stem import stem_tokens
from .stopwords import remove_stopwords
from .tokenize import tokenize


def preprocess(text: str, *, stemming: bool = True) -> list[str]:
    """tokenize -> stopword removal -> (optional) stemming."""
    tokens = remove_stopwords(tokenize(text))
    if stemming:
        tokens = stem_tokens(tokens)
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """An immutable token -> column-index mapping."""

    index: dict[str, int]

    @classmethod
    def build(
        cls,
        documents: Iterable[Sequence[str]],
        *,
        min_df: int = 1,
        max_df_ratio: float = 1.0,
    ) -> "Vocabulary":
        """Build from tokenized documents.

        ``min_df`` drops tokens in fewer than that many documents;
        ``max_df_ratio`` drops tokens in more than that fraction (both
        standard levers against hapaxes and corpus-wide noise).
        """
        docs = [set(d) for d in documents]
        df = Counter(chain.from_iterable(docs))
        max_df = max_df_ratio * len(docs)
        kept = sorted(t for t, c in df.items() if c >= min_df and c <= max_df)
        return cls(index={t: i for i, t in enumerate(kept)})

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def tokens(self) -> list[str]:
        out = [""] * len(self.index)
        for token, i in self.index.items():
            out[i] = token
        return out


def count_matrix(
    documents: Sequence[Sequence[str]], vocabulary: Vocabulary
) -> np.ndarray:
    """Dense (n_docs, n_terms) raw term-count matrix."""
    n, m = len(documents), len(vocabulary)
    index = vocabulary.index
    cells = [
        row * m + col
        for row, doc in enumerate(documents)
        for col in map(index.get, doc)
        if col is not None
    ]
    counts = np.zeros((n, m), dtype=np.float64)
    np.add.at(counts.reshape(-1), cells, 1.0)
    return counts


def tfidf_weights(counts: np.ndarray, *, smooth: bool = True) -> np.ndarray:
    """Per-term IDF weights from a count matrix.

    Uses the smoothed formulation ``log((1+n)/(1+df)) + 1`` (the
    scikit-learn convention) so terms present in every document still
    carry weight 1 rather than 0.
    """
    n = counts.shape[0]
    df = np.count_nonzero(counts, axis=0).astype(np.float64)
    if smooth:
        return smooth_idf(df, n)
    with np.errstate(divide="ignore"):
        idf = np.log(n / df) + 1.0
    idf[~np.isfinite(idf)] = 0.0
    return idf


def smooth_idf(df: np.ndarray, n_docs: int) -> np.ndarray:
    """Smoothed IDF weights from per-term document frequencies."""
    return np.log((1.0 + n_docs) / (1.0 + df)) + 1.0


def l2_norms(matrix: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, as a column, with 1 for a zero row: dividing
    by it normalizes the rows and leaves zero rows zero, also in place
    (``matrix /= l2_norms(matrix)``)."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return norms


def l2_normalize(matrix: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization; zero rows stay zero."""
    return matrix / l2_norms(matrix)


class TfidfVectorizer:
    """Fit/transform TF-IDF pipeline over raw strings.

    Tokenizing — stemming above all — is the dominant cost, so no method
    tokenizes a text twice.  Callers that need both the raw counts and
    the TF-IDF rows of the same texts (the classify job's naive Bayes
    and kNN) take :meth:`fit_counts` / :meth:`counts` once and
    :meth:`weigh` the result.

    >>> v = TfidfVectorizer()
    >>> X = v.fit_transform(["parallel loops with OpenMP",
    ...                      "message passing with MPI"])
    >>> X.shape[0]
    2
    """

    def __init__(
        self,
        *,
        stemming: bool = True,
        min_df: int = 1,
        max_df_ratio: float = 1.0,
        sublinear_tf: bool = False,
    ) -> None:
        self.stemming = stemming
        self.min_df = min_df
        self.max_df_ratio = max_df_ratio
        self.sublinear_tf = sublinear_tf
        self.vocabulary: Vocabulary | None = None
        self.idf: np.ndarray | None = None

    def tokenize(self, texts: Sequence[str]) -> list[list[str]]:
        """The token list :func:`preprocess` makes of each text."""
        return [preprocess(t, stemming=self.stemming) for t in texts]

    def fit_counts(self, texts: Sequence[str]) -> np.ndarray:
        """Fit the vocabulary and IDF on ``texts``; return their raw
        (n_texts, n_terms) count matrix."""
        docs = self.tokenize(texts)
        self.vocabulary = Vocabulary.build(
            docs, min_df=self.min_df, max_df_ratio=self.max_df_ratio
        )
        counts = count_matrix(docs, self.vocabulary)
        self.idf = tfidf_weights(counts)
        return counts

    def counts(self, texts: Sequence[str]) -> np.ndarray:
        """Raw count matrix of ``texts`` over the fitted vocabulary."""
        if self.vocabulary is None:
            raise RuntimeError("vectorizer is not fitted")
        return count_matrix(self.tokenize(texts), self.vocabulary)

    def weigh(self, counts: np.ndarray) -> np.ndarray:
        """L2-normalized TF-IDF rows of a raw count matrix (``counts``
        itself is left untouched)."""
        if self.idf is None:
            raise RuntimeError("vectorizer is not fitted")
        if self.sublinear_tf:
            counts = counts.copy()
            nz = counts > 0
            counts[nz] = 1.0 + np.log(counts[nz])
        return l2_normalize(counts * self.idf)

    def fit(self, texts: Sequence[str]) -> "TfidfVectorizer":
        self.fit_counts(texts)
        return self

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        return self.weigh(self.counts(texts))

    def fit_transform(self, texts: Sequence[str]) -> np.ndarray:
        return self.weigh(self.fit_counts(texts))

"""Oracle for the classify scoring kernels (hypothesis).

Naive Bayes log-odds and kNN similarities are checked against an in-test
dense reference: the textbook formulas over full (docs × vocabulary)
matrices, every zero included.  On drawn sparse count matrices the
classifiers must agree with it within ``TOL`` absolute, rank labels and
neighbours the same way wherever the reference scores differ by more
than ``TOL``, and fit a naive Bayes log-odds matrix equal to the dense
``ll_pos - ll_neg`` bit for bit (every count is an integer, so no
summation order can move a bit of it).

Draws include all-zero training rows, queries whose tokens are all
unseen, and label sets with a single label.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    KnnClassifier,
    NaiveBayesClassifier,
    Vocabulary,
    count_matrix,
    knn,
)

TOL = 1e-12
ALPHA = 1.0
LABELS = ("a", "b", "c", "d")
#: Tokens no training document contains: a query of these alone counts
#: as an all-zero row over the fitted vocabulary.
UNSEEN = ["zzunseen", "qqunknown"]


# ------------------------------------------------------- dense reference


def dense_nb(counts, labels, *, alpha=ALPHA, min_label_count=1):
    """(labels_, ll_pos, ll_neg, log_prior[:, (neg, pos)]) of a one-vs-
    rest multinomial NB, from the dense membership product."""
    label_sets = [frozenset(ls) for ls in labels]
    tally: dict[str, int] = {}
    for ls in label_sets:
        for label in ls:
            tally[label] = tally.get(label, 0) + 1
    names = sorted(l for l, c in tally.items() if c >= min_label_count)
    membership = np.array(
        [[name in ls for ls in label_sets] for name in names], dtype=bool,
    ).reshape(len(names), len(label_sets))
    pos = membership.astype(np.float64) @ counts
    neg = counts.sum(axis=0)[None, :] - pos

    def log_like(c):
        smoothed = c + alpha
        return np.log(smoothed / smoothed.sum(axis=1, keepdims=True))

    prior_pos = (membership.sum(axis=1) + alpha) / (len(labels) + 2 * alpha)
    log_prior = np.stack([np.log(1.0 - prior_pos), np.log(prior_pos)], axis=1)
    return names, log_like(pos), log_like(neg), log_prior


def dense_log_odds(queries, ll_pos, ll_neg, log_prior):
    return ((queries @ ll_pos.T + log_prior[:, 1])
            - (queries @ ll_neg.T + log_prior[:, 0]))


def dense_cosine(queries, X):
    def unit(m):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        return m / np.where(norms == 0.0, 1.0, norms)

    return np.clip(unit(queries) @ unit(X).T, -1.0, 1.0)


def assert_ranked_like(got, ref, *, top, floor=None):
    """``got`` — (index, score) pairs best first — is a top-``top``
    selection of the reference scores ``ref``: scores within TOL, order
    and membership agreeing wherever ``ref`` separates by more than TOL.
    ``floor`` (exclusive) is the score a kept entry must beat."""
    chosen = [i for i, _ in got]
    assert len(set(chosen)) == len(chosen)
    for i, score in got:
        assert abs(score - ref[i]) <= TOL
        if floor is not None:
            assert ref[i] > floor - TOL
    for a, b in zip(chosen, chosen[1:]):
        assert ref[a] >= ref[b] - TOL, "ranked below a weaker entry"
    left_out = [i for i in range(len(ref)) if i not in set(chosen)]
    if len(chosen) == top and chosen:
        bar = min(ref[i] for i in chosen)
    elif floor is not None:
        bar = floor
    else:
        bar = -np.inf
    for i in left_out:
        assert ref[i] <= bar + TOL, "a stronger entry was left out"


# ------------------------------------------------------------ strategies


@st.composite
def training_sets(draw):
    """Sparse small-integer count matrices (some rows all zero) with
    label sets over a pool of one to four labels."""
    n_labels = draw(st.integers(1, len(LABELS)))
    pool = LABELS[:n_labels]
    n_docs = draw(st.integers(1, 10))
    vocab = draw(st.integers(1, 12))
    docs = []
    for _ in range(n_docs):
        if draw(st.booleans()) and draw(st.booleans()):
            docs.append([])  # an all-zero row
            continue
        docs.append(draw(st.lists(
            st.sampled_from([f"t{j}" for j in range(vocab)]),
            min_size=1, max_size=8,
        )))
    labels = [
        draw(st.lists(st.sampled_from(pool), min_size=1, max_size=n_labels,
                      unique=True))
        for _ in range(n_docs)
    ]
    vocabulary = Vocabulary(index={f"t{j}": j for j in range(vocab)})
    queries = [
        draw(st.lists(
            st.sampled_from([f"t{j}" for j in range(vocab)] + UNSEEN),
            max_size=8,
        ))
        for _ in range(draw(st.integers(0, 4)))
    ]
    queries.append(list(UNSEEN))  # every token unseen: a zero row
    return (count_matrix(docs, vocabulary), labels,
            count_matrix(queries, vocabulary))


# --------------------------------------------------------- naive Bayes


def _log_odds_matrix(nb: NaiveBayesClassifier, vocab: int) -> np.ndarray:
    """The fitted (labels × vocabulary) log-odds matrix, every column
    computed."""
    return nb.log_odds_matrix(range(vocab))


@settings(max_examples=80, deadline=None)
@given(training_sets())
def test_nb_log_odds_match_dense_reference(drawn):
    counts, labels, queries = drawn
    nb = NaiveBayesClassifier(alpha=ALPHA, min_label_count=1).fit(
        counts, labels)
    names, ll_pos, ll_neg, log_prior = dense_nb(counts, labels)
    assert nb.labels_ == names
    assert np.array_equal(_log_odds_matrix(nb, counts.shape[1]),
                          ll_pos - ll_neg)
    ref = dense_log_odds(queries, ll_pos, ll_neg, log_prior)
    got = nb.log_odds(queries)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= TOL
    top = 3
    index = {name: i for i, name in enumerate(names)}
    for row, suggestions in zip(ref, nb.suggest(queries, top=top)):
        assert_ranked_like(
            [(index[s.label], s.log_odds) for s in suggestions], row,
            top=top, floor=0.0,
        )


def test_nb_single_label_and_unseen_query():
    counts = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    labels = [["only"], ["only"], ["only"]]
    nb = NaiveBayesClassifier(alpha=ALPHA, min_label_count=1).fit(
        counts, labels)
    names, ll_pos, ll_neg, log_prior = dense_nb(counts, labels)
    assert nb.labels_ == names == ["only"]
    assert np.array_equal(_log_odds_matrix(nb, 3), ll_pos - ll_neg)
    zero = np.zeros((1, 3))
    assert np.max(np.abs(
        nb.log_odds(zero) - dense_log_odds(zero, ll_pos, ll_neg, log_prior)
    )) <= TOL


# ----------------------------------------------------------------- kNN


def _similarities(clf: KnnClassifier, queries: np.ndarray):
    """The similarity matrix and the neighbour lists ``suggest`` ranks
    its votes from."""
    seen = []
    original = knn.top_k_neighbors

    def capture(sims, k, **kwargs):
        neighbors = original(sims, k, **kwargs)
        seen.append((sims.copy(), neighbors))
        return neighbors

    with mock.patch.object(knn, "top_k_neighbors", capture):
        clf.suggest(queries)
    (sims, neighbors), = seen
    return sims, neighbors


@settings(max_examples=80, deadline=None)
@given(training_sets(), st.integers(1, 6))
def test_knn_similarities_match_dense_reference(drawn, k):
    counts, labels, queries = drawn
    # TF-IDF-like real-valued rows: scale each column.
    X = counts * np.linspace(0.5, 2.0, counts.shape[1])
    Q = queries * np.linspace(0.5, 2.0, counts.shape[1])
    clf = KnnClassifier(k=k, threshold=0.0).fit(X, labels)
    sims, neighbors = _similarities(clf, Q)
    ref = dense_cosine(Q, X)
    assert sims.shape == ref.shape
    assert np.max(np.abs(sims - ref), initial=0.0) <= TOL
    top = min(k, X.shape[0])
    for row, chosen in zip(ref, neighbors):
        assert len(chosen) == top
        assert_ranked_like(chosen, row, top=top)
    # A query with no known term has no neighbour worth a vote.
    assert clf.suggest(Q[-1:]) == [[]]

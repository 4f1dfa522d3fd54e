"""Multi-label kNN classifier."""

import numpy as np
import pytest

from repro.text import KnnClassifier, cosine_matrix, l2_normalize
from repro.text import knn


@pytest.fixture()
def fitted():
    # Three clear regions in 2D feature space.
    X = np.array([
        [1.0, 0.0], [0.9, 0.1],      # label "a"
        [0.0, 1.0], [0.1, 0.9],      # label "b"
        [0.7, 0.7],                  # labels "a" and "b"
    ])
    labels = [["a"], ["a"], ["b"], ["b"], ["a", "b"]]
    return KnnClassifier(k=3, threshold=0.2).fit(X, labels)


class TestFit:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            KnnClassifier().fit(np.ones((2, 2)), [["a"]])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            KnnClassifier().fit(np.ones((0, 2)), [])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KnnClassifier(k=0)
        with pytest.raises(ValueError):
            KnnClassifier(threshold=1.5)

    def test_single_row_input_is_copied(self):
        X = np.array([[3.0, 4.0]])  # C- and F-contiguous at once
        clf = KnnClassifier().fit(X, [["a"]])
        assert np.array_equal(X, [[3.0, 4.0]])
        assert np.array_equal(clf._X, [[0.6, 0.8]])

    def test_suggest_before_fit(self):
        with pytest.raises(RuntimeError):
            KnnClassifier().suggest(np.ones((1, 2)))


class TestSuggest:
    def test_nearest_region_wins(self, fitted):
        out = fitted.suggest(np.array([[1.0, 0.05]]))[0]
        assert out[0].label == "a"

    def test_multilabel_region(self, fitted):
        out = fitted.suggest(np.array([[0.7, 0.7]]))[0]
        assert {s.label for s in out} == {"a", "b"}

    def test_scores_normalized_and_sorted(self, fitted):
        out = fitted.suggest(np.array([[0.5, 0.5]]))[0]
        scores = [s.score for s in out]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_threshold_filters_weak_votes(self):
        X = np.eye(4)
        labels = [["a"], ["b"], ["c"], ["d"]]
        strict = KnnClassifier(k=4, threshold=0.9).fit(X, labels)
        out = strict.suggest(np.array([[1.0, 0.0, 0.0, 0.0]]))[0]
        assert [s.label for s in out] == ["a"]

    def test_supporters_recorded(self, fitted):
        out = fitted.suggest(np.array([[1.0, 0.0]]))[0]
        a = next(s for s in out if s.label == "a")
        assert set(a.supporters) <= {0, 1, 4}

    def test_zero_query_yields_nothing(self, fitted):
        out = fitted.suggest(np.array([[0.0, 0.0]]))[0]
        assert out == []

    def test_rejects_other_query_width(self, fitted):
        with pytest.raises(ValueError):
            fitted.suggest(np.array([[1.0, 0.0, 0.0]]))

    def test_batch_queries(self, fitted):
        out = fitted.suggest(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert out[0][0].label == "a"
        assert out[1][0].label == "b"


class TestPreNormalizedRows:
    """fit normalizes the training rows once; suggest sums, per query,
    the normalized training columns of the query's nonzero terms."""

    def test_similarities_sum_query_term_columns_bitwise(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = rng.random((40, 12)) * (rng.random((40, 12)) < 0.4)
        X[3] = 0.0  # a zero row stays zero
        queries = rng.random((5, 12)) * 3.0 * (rng.random((5, 12)) < 0.5)
        queries[0] = rng.random(12)  # every term present
        queries[4] = 0.0  # no term present
        labels = [[f"l{i % 6}"] for i in range(len(X))]
        raw = X.copy()
        clf = KnnClassifier(k=4, threshold=0.0).fit(X, labels)
        assert np.array_equal(X, raw)  # the caller's matrix is untouched
        assert clf._X.flags.f_contiguous
        seen = []
        original = knn.top_k_neighbors

        def capture(sims, k, **kwargs):
            seen.append(sims.copy())
            return original(sims, k, **kwargs)

        monkeypatch.setattr(knn, "top_k_neighbors", capture)
        clf.suggest(queries)
        rows = np.asfortranarray(l2_normalize(raw))
        expected = np.empty((len(queries), len(raw)))
        for i, q in enumerate(l2_normalize(queries)):
            terms = np.flatnonzero(q)
            expected[i] = rows[:, terms] @ q[terms]
        np.clip(expected, -1.0, 1.0, out=expected)
        assert np.array_equal(seen[0], expected)
        assert np.array_equal(seen[0][4], np.zeros(len(raw)))
        # The dense kernel sums the same products, zeros included.
        assert np.max(np.abs(seen[0] - cosine_matrix(queries, raw))) <= 1e-12

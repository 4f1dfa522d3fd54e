"""Multinomial naive Bayes classifier."""

import numpy as np
import pytest

from repro.text import NaiveBayesClassifier


@pytest.fixture()
def fitted():
    # vocabulary: [loop, thread, sort, tree]
    counts = np.array([
        [3, 2, 0, 0],   # parallel doc
        [2, 3, 0, 0],   # parallel doc
        [0, 0, 3, 2],   # algorithms doc
        [0, 0, 2, 3],   # algorithms doc
        [1, 1, 1, 1],   # both
    ], dtype=float)
    labels = [["par"], ["par"], ["alg"], ["alg"], ["par", "alg"]]
    return NaiveBayesClassifier(min_label_count=2).fit(counts, labels)


class TestFit:
    def test_labels_sorted(self, fitted):
        assert fitted.labels_ == ["alg", "par"]

    def test_min_label_count_excludes_rare(self):
        counts = np.ones((3, 2))
        labels = [["common"], ["common"], ["rare"]]
        nb = NaiveBayesClassifier(min_label_count=2).fit(counts, labels)
        assert nb.labels_ == ["common"]

    def test_no_eligible_labels_raises(self):
        with pytest.raises(ValueError):
            NaiveBayesClassifier(min_label_count=5).fit(
                np.ones((2, 2)), [["a"], ["b"]]
            )

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            NaiveBayesClassifier().fit(np.ones((2, 2)), [["a"]])

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            NaiveBayesClassifier(alpha=0)


class TestPredict:
    def test_clear_parallel_doc(self, fitted):
        out = fitted.suggest(np.array([[4, 3, 0, 0]], dtype=float))[0]
        assert out and out[0].label == "par"

    def test_clear_algorithms_doc(self, fitted):
        out = fitted.suggest(np.array([[0, 0, 4, 3]], dtype=float))[0]
        assert out and out[0].label == "alg"

    def test_log_odds_shape(self, fitted):
        odds = fitted.log_odds(np.ones((3, 4)))
        assert odds.shape == (3, 2)

    def test_log_odds_rejects_other_vocabulary_width(self, fitted):
        with pytest.raises(ValueError):
            fitted.log_odds(np.ones((1, 3)))

    def test_suggest_only_positive_odds(self, fitted):
        out = fitted.suggest(np.array([[0, 0, 4, 3]], dtype=float))[0]
        assert all(s.log_odds > 0 for s in out)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            NaiveBayesClassifier().log_odds(np.ones((1, 2)))

    def test_predict_labels_multilabel(self, fitted):
        counts = np.array([[2, 2, 2, 2]], dtype=float)
        out = fitted.suggest(counts, top=len(fitted.labels_))[0]
        assert {s.label for s in out} <= {"par", "alg"}

    def test_top_limits_suggestions(self, fitted):
        out = fitted.suggest(np.array([[1, 1, 1, 1]], dtype=float), top=1)[0]
        assert len(out) <= 1

    def test_smoothing_handles_unseen_terms(self):
        counts = np.array([[5, 0], [0, 5]], dtype=float)
        nb = NaiveBayesClassifier(min_label_count=1).fit(
            counts, [["x"], ["y"]]
        )
        # a document with a term never seen in class x must not produce NaN
        odds = nb.log_odds(np.array([[1, 1]], dtype=float))
        assert np.isfinite(odds).all()

"""Vocabulary and TF-IDF pipeline."""

from collections import Counter

import numpy as np
import pytest

from repro.text import vectorize
from repro.text import (
    TfidfVectorizer,
    Vocabulary,
    count_matrix,
    l2_normalize,
    preprocess,
    tfidf_weights,
)


class TestPreprocess:
    def test_removes_stopwords_and_stems(self):
        tokens = preprocess("The students are implementing parallel loops")
        assert "the" not in tokens
        assert "students" not in tokens  # domain stopword
        assert "parallel" in tokens
        assert "loop" in tokens  # stemmed

    def test_stemming_can_be_disabled(self):
        tokens = preprocess("parallel loops", stemming=False)
        assert "loops" in tokens


class TestVocabulary:
    def test_build_sorted_unique(self):
        vocab = Vocabulary.build([["b", "a"], ["a", "c"]])
        assert vocab.tokens() == ["a", "b", "c"]
        assert len(vocab) == 3
        assert "a" in vocab and "z" not in vocab

    def test_min_df_filters_hapaxes(self):
        vocab = Vocabulary.build([["a", "b"], ["a", "c"]], min_df=2)
        assert vocab.tokens() == ["a"]

    def test_max_df_ratio_filters_ubiquitous(self):
        vocab = Vocabulary.build(
            [["a", "b"], ["a", "c"], ["a", "d"]], max_df_ratio=0.67
        )
        assert "a" not in vocab

    def test_df_counts_presence_not_frequency(self):
        vocab = Vocabulary.build([["a", "a", "a"], ["b"]], min_df=2)
        assert "a" not in vocab


class TestCountMatrix:
    def test_counts(self):
        vocab = Vocabulary.build([["a", "b"], ["b"]])
        counts = count_matrix([["a", "b", "b"], ["b"]], vocab)
        assert counts.shape == (2, 2)
        assert counts[0, vocab.index["a"]] == 1
        assert counts[0, vocab.index["b"]] == 2
        assert counts[1, vocab.index["a"]] == 0

    def test_out_of_vocabulary_ignored(self):
        vocab = Vocabulary.build([["a"]])
        counts = count_matrix([["a", "zzz"]], vocab)
        assert counts.sum() == 1


class TestTfidfWeights:
    def test_rarer_terms_weigh_more(self):
        vocab = Vocabulary.build([["a", "b"], ["a"], ["a"]])
        counts = count_matrix([["a", "b"], ["a"], ["a"]], vocab)
        idf = tfidf_weights(counts)
        assert idf[vocab.index["b"]] > idf[vocab.index["a"]]

    def test_smooth_keeps_ubiquitous_terms_positive(self):
        vocab = Vocabulary.build([["a"], ["a"]])
        counts = count_matrix([["a"], ["a"]], vocab)
        idf = tfidf_weights(counts, smooth=True)
        assert idf[0] >= 1.0


class TestL2Normalize:
    def test_rows_have_unit_norm(self):
        m = np.array([[3.0, 4.0], [1.0, 0.0]])
        normalized = l2_normalize(m)
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_zero_rows_stay_zero(self):
        m = np.array([[0.0, 0.0]])
        assert np.allclose(l2_normalize(m), 0.0)

    def test_input_not_mutated(self):
        m = np.array([[3.0, 4.0]])
        l2_normalize(m)
        assert np.allclose(m, [[3.0, 4.0]])


class TestTfidfVectorizer:
    CORPUS = [
        "parallel loops with OpenMP pragmas",
        "message passing with MPI ranks",
        "sorting algorithms with quicksort",
    ]

    def test_fit_transform_shape(self):
        X = TfidfVectorizer().fit_transform(self.CORPUS)
        assert X.shape[0] == 3
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0)

    def test_transform_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform(["x"])

    def test_query_similarity_ranks_correct_document(self):
        v = TfidfVectorizer()
        X = v.fit_transform(self.CORPUS)
        q = v.transform(["OpenMP parallel loop"])
        sims = (X @ q.T).ravel()
        assert int(np.argmax(sims)) == 0

    def test_unseen_terms_give_zero_vector(self):
        v = TfidfVectorizer()
        v.fit(self.CORPUS)
        q = v.transform(["zebra xylophone"])
        assert np.allclose(q, 0.0)

    def test_sublinear_tf_dampens_repeats(self):
        v_lin = TfidfVectorizer()
        v_sub = TfidfVectorizer(sublinear_tf=True)
        docs = ["loop loop loop loop sort", "loop sort"]
        x_lin = v_lin.fit_transform(docs)
        x_sub = v_sub.fit_transform(docs)
        # relative weight of the repeated term is lower under sublinear tf
        vocab = v_lin.vocabulary.index
        assert (
            x_sub[0, vocab[next(t for t in vocab if t.startswith("loop"))]]
            < x_lin[0, vocab[next(t for t in vocab if t.startswith("loop"))]]
        )


class TestOneTokenization:
    """Each text is preprocessed once per fit and once per transform, and
    the counts/weigh split reproduces fit_transform/transform bit for
    bit."""

    CORPUS = TestTfidfVectorizer.CORPUS + [
        "loop loop loop unrolling of parallel loops",
    ]

    @pytest.fixture()
    def preprocessed(self, monkeypatch):
        seen: list[str] = []
        original = vectorize.preprocess

        def counting(text, **kwargs):
            seen.append(text)
            return original(text, **kwargs)

        monkeypatch.setattr(vectorize, "preprocess", counting)
        return seen

    def test_fit_transform_preprocesses_each_text_once(self, preprocessed):
        TfidfVectorizer().fit_transform(self.CORPUS)
        assert Counter(preprocessed) == Counter(self.CORPUS)

    def test_transform_preprocesses_each_text_once(self, preprocessed):
        v = TfidfVectorizer().fit(self.CORPUS)
        preprocessed.clear()
        v.transform(self.CORPUS[:2])
        assert Counter(preprocessed) == Counter(self.CORPUS[:2])

    @pytest.mark.parametrize("sublinear", [False, True])
    def test_weigh_of_counts_matches_transform(self, sublinear):
        v = TfidfVectorizer(sublinear_tf=sublinear)
        counts = v.fit_counts(self.CORPUS)
        before = counts.copy()
        X = v.weigh(counts)
        assert np.array_equal(counts, before)  # counts left untouched
        ref = TfidfVectorizer(sublinear_tf=sublinear)
        assert np.array_equal(X, ref.fit_transform(self.CORPUS))
        assert np.array_equal(counts, count_matrix(
            [preprocess(t) for t in self.CORPUS], v.vocabulary))
        queries = ["OpenMP loop loop", "zebra"]
        assert np.array_equal(v.weigh(v.counts(queries)),
                              ref.transform(queries))

    def test_counts_and_weigh_unfitted_raise(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().counts(["x"])
        with pytest.raises(RuntimeError):
            TfidfVectorizer().weigh(np.ones((1, 1)))

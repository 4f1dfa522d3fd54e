"""Cosine kernels and top-k neighbour extraction."""

import numpy as np
import pytest

from repro.text import cosine, cosine_matrix, top_k_neighbors


class TestCosine:
    def test_identical_vectors(self):
        assert cosine([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_opposite_vectors(self):
        assert cosine([1, 0], [-1, 0]) == pytest.approx(-1.0)

    def test_zero_vector_gives_zero(self):
        assert cosine([0, 0], [1, 1]) == 0.0

    def test_scale_invariance(self):
        assert cosine([1, 2], [2, 4]) == pytest.approx(1.0)


class TestCosineMatrix:
    def test_self_similarity_diagonal(self):
        m = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        sims = cosine_matrix(m)
        assert np.allclose(np.diag(sims), 1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        m = rng.random((5, 4))
        sims = cosine_matrix(m)
        assert np.allclose(sims, sims.T)

    def test_cross_matrix_shape(self):
        a = np.ones((3, 4))
        b = np.ones((2, 4))
        assert cosine_matrix(a, b).shape == (3, 2)

    def test_values_clipped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        m = rng.random((10, 6))
        sims = cosine_matrix(m)
        assert sims.max() <= 1.0 and sims.min() >= -1.0

    def test_agrees_with_scalar_cosine(self):
        rng = np.random.default_rng(2)
        a = rng.random((3, 5))
        b = rng.random((2, 5))
        sims = cosine_matrix(a, b)
        for i in range(3):
            for j in range(2):
                assert sims[i, j] == pytest.approx(cosine(a[i], b[j]))

    def test_zero_rows_similarity_zero(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        sims = cosine_matrix(a)
        assert sims[0, 1] == 0.0


class TestTopK:
    def test_returns_k_sorted_neighbors(self):
        sims = np.array([[0.1, 0.9, 0.5]])
        out = top_k_neighbors(sims, 2)
        assert [i for i, _ in out[0]] == [1, 2]
        assert out[0][0][1] == pytest.approx(0.9)

    def test_k_larger_than_columns_clamped(self):
        sims = np.array([[0.5, 0.6]])
        out = top_k_neighbors(sims, 10)
        assert len(out[0]) == 2

    def test_zero_k_effective(self):
        sims = np.ones((1, 1))
        out = top_k_neighbors(sims, 0)
        assert out == [[]]

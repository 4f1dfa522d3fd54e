"""Dense cosine-similarity kernels.

A single BLAS-backed matrix multiply over L2-normalized rows, per the
HPC guide's "vectorize the hot loop" rule; no per-pair Python loops.
"""

from __future__ import annotations

import numpy as np

from .vectorize import l2_normalize


def cosine_matrix(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pairwise cosine similarity between rows of ``a`` and rows of ``b``.

    With ``b=None`` computes the symmetric self-similarity of ``a``.
    Rows need not be pre-normalized.  Zero rows yield zero similarity.
    """
    an = l2_normalize(np.asarray(a, dtype=np.float64))
    bn = an if b is None else l2_normalize(np.asarray(b, dtype=np.float64))
    sims = an @ bn.T
    # Guard against tiny FP excursions outside [-1, 1].
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two vectors (0.0 if either is zero)."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def top_k_neighbors(
    sims: np.ndarray, k: int
) -> list[list[tuple[int, float]]]:
    """For each row of a similarity matrix, its k most similar columns.

    Returns, per row, a list of ``(column index, similarity)`` sorted by
    descending similarity.
    """
    sims = np.asarray(sims, dtype=np.float64)
    n_rows, n_cols = sims.shape
    k = min(k, n_cols)
    if k <= 0:
        return [[] for _ in range(n_rows)]
    # argpartition then sort the slice: O(n + k log k) per row.
    part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    out: list[list[tuple[int, float]]] = []
    for row in range(n_rows):
        cols = part[row]
        order = np.argsort(-sims[row, cols], kind="stable")
        out.append(
            [(int(cols[j]), float(sims[row, cols[j]])) for j in order]
        )
    return out

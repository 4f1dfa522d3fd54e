"""ABL-2 — classification auto-suggest accuracy (the paper's future work).

"Once more material is classified using the system, we should be able to
suggest classifications to save time for the user."  Exact leave-one-out
evaluation of the shared model's kNN and NB arms over every classified
material of the seeded corpus, plus the latency of a single interactive
suggestion (what a curator would wait for in the Figure 1 form).
"""

from __future__ import annotations

import pytest

from repro.core.recommend import (
    HybridRecommender,
    TrainingFeatures,
    evaluate_leave_one_out,
)
from repro.corpus import keys as K


@pytest.fixture(scope="module")
def loo(repo):
    return evaluate_leave_one_out(repo, top=10)


def test_knn_leave_one_out(loo):
    result = loo["knn"]
    print(
        f"\nABL-2 — kNN LOO over {int(result['n'])} materials: "
        f"P={result['precision']:.2f} R={result['recall']:.2f} "
        f"F1={result['f1']:.2f}"
    )
    assert result["precision"] > 0.10  # far above ~0.03 random baseline


def test_nb_leave_one_out(loo):
    result = loo["nb"]
    print(
        f"\nABL-2 — NB LOO over {int(result['n'])} materials: "
        f"P={result['precision']:.2f} R={result['recall']:.2f} "
        f"F1={result['f1']:.2f}"
    )
    assert 0.0 <= result["f1"] <= 1.0


def test_fast_loo_full_corpus(benchmark, repo):
    """The exact LOO over every classified material: one model build per
    fold from the stored features, no text tokenized twice; see
    EXPERIMENTS.md ABL-2."""
    result = benchmark(evaluate_leave_one_out, repo, top=10)["knn"]
    print(
        f"\nABL-2 — exact LOO over {int(result['n'])} materials: "
        f"P={result['precision']:.2f} R={result['recall']:.2f}"
    )
    assert result["precision"] > 0.10


def test_interactive_knn_latency(benchmark, repo):
    """What the curator waits for after typing the description."""
    recommender = HybridRecommender(repo).fit()
    suggestions = benchmark(
        recommender.recommend,
        "Parallelize a Monte Carlo forest-fire simulation over a tree "
        "array with OpenMP and measure speedup",
        top=10,
    )
    assert suggestions


def test_cooccurrence_fit_and_query(benchmark, repo):
    cooccurrence = HybridRecommender(repo).fit().model.cooccurrence
    suggestions = benchmark(
        cooccurrence.recommend, [K.SDF_ARRAYS, K.P_OPENMP], top=10,
        min_score=0.0,
    )
    keys = {s.key for s in suggestions}
    print(f"\nABL-2 — co-occurrence completions of Arrays+OpenMP: "
          f"{sorted(keys)[:4]}")
    assert K.SDF_CTRL in keys or K.P_PARLOOPS in keys


def test_knn_fit_cost(benchmark, repo):
    """Model build over the whole corpus from freshly read features
    (what a cold start pays; a retrain pays only the journal delta)."""

    def cold_fit():
        with repo.db.pinned():
            return TrainingFeatures(repo).model()

    fitted = benchmark(cold_fit)
    assert fitted is not None

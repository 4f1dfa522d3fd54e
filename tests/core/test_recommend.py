"""Classification recommenders (future-work feature, implemented)."""

import numpy as np
import pytest

from repro.core.classification import ClassificationSet
from repro.core.material import Material
from repro.core.recommend import (
    KNN_K,
    KNN_THRESHOLD,
    MIN_LABEL_COUNT,
    NB_ALPHA,
    CooccurrenceRecommender,
    HybridRecommender,
    classify_model,
    evaluate_leave_one_out,
    material_text,
)
from repro.corpus import keys as K
from repro.corpus.generator import GeneratorConfig, seed_synthetic
from repro.text import KnnClassifier, NaiveBayesClassifier, TfidfVectorizer


class TestTextKnn:
    def test_recommends_pdc_keys_for_pdc_text(self, seeded_repo):
        suggestions = classify_model(seeded_repo).knn_suggest(
            "Parallelize loops over an image with OpenMP pragmas and "
            "measure speedup and efficiency"
        )
        keys = {s.label for s in suggestions[:12]}
        assert keys, "expected at least one suggestion"
        assert any(k.startswith("PDC12/") or "/PD/" in k for k in keys)

    def test_scores_sorted_descending(self, seeded_repo):
        suggestions = classify_model(seeded_repo).knn_suggest(
            "sorting with divide and conquer")
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)

    def test_fit_on_empty_repo_suggests_nothing(self, fresh_repo):
        model = classify_model(fresh_repo)
        assert model.knn is None and model.nb is None
        assert model.knn_suggest("parallel loops") == []
        assert HybridRecommender(fresh_repo).fit().recommend(
            "parallel loops", [K.SDF_ARRAYS]) == []


class TestTextNb:
    def test_recommends_something_plausible(self, seeded_repo):
        model = classify_model(seeded_repo)
        counts = model.vectorizer.counts(
            ["message passing with MPI scatter gather collectives"])
        suggestions = model.nb.suggest(counts, top=10)[0]
        assert suggestions
        assert len(suggestions) <= 10

    def test_min_label_count_filters_rare_labels(self, seeded_repo):
        nb = classify_model(seeded_repo).nb
        assert nb is not None
        # every modeled label is used by >= MIN_LABEL_COUNT materials
        for label in nb.labels_:
            assert len(seeded_repo.materials_with(label)) >= MIN_LABEL_COUNT


class TestCooccurrence:
    def _rec(self, repo) -> CooccurrenceRecommender:
        return classify_model(repo).cooccurrence

    def test_arrays_implies_control_structures(self, seeded_repo):
        # the Figure 3 cluster makes these strongly co-occurring
        suggestions = self._rec(seeded_repo).recommend(
            [K.SDF_ARRAYS], top=20, min_score=0.0)
        assert any(s.key == K.SDF_CTRL for s in suggestions)

    def test_never_suggests_selected(self, seeded_repo):
        suggestions = self._rec(seeded_repo).recommend(
            [K.SDF_ARRAYS, K.SDF_CTRL], top=50, min_score=0.0)
        keys = {s.key for s in suggestions}
        assert K.SDF_ARRAYS not in keys
        assert K.SDF_CTRL not in keys

    def test_unknown_selection_yields_nothing(self, seeded_repo):
        assert self._rec(seeded_repo).recommend(["CS13/NOT/A/KEY"]) == []

    def test_openmp_implies_parallel_loops(self, seeded_repo):
        suggestions = self._rec(seeded_repo).recommend(
            [K.P_OPENMP], top=20, min_score=0.0)
        assert any(s.key == K.P_PARLOOPS for s in suggestions)

    def test_counts_are_built_on_first_use(self, fresh_repo):
        """A retrain builds no co-occurrence counts; a selection does."""
        cs = ClassificationSet()
        cs.add("CS13", K.SDF_ARRAYS)
        cs.add("CS13", K.SDF_CTRL)
        fresh_repo.add_material(
            Material(title="t", description="d", collection="c"), cs)
        model = classify_model(fresh_repo)
        HybridRecommender(fresh_repo).fit().recommend("arrays")
        assert "cooccurrence" not in vars(model)
        recs = HybridRecommender(fresh_repo).fit().recommend(
            "", [K.SDF_ARRAYS])
        assert [r.key for r in recs] == [K.SDF_CTRL]
        assert "cooccurrence" in vars(model)


class TestHybrid:
    def test_blends_both_sources(self, seeded_repo):
        rec = HybridRecommender(seeded_repo).fit()
        suggestions = rec.recommend(
            "simulate fire spreading on a grid of cells in parallel",
            selected=[K.SDF_ARRAYS],
            top=10,
        )
        assert suggestions
        assert all(s.source == "hybrid" for s in suggestions)
        assert all(s.key != K.SDF_ARRAYS for s in suggestions)

    def test_weight_validation(self, seeded_repo):
        with pytest.raises(ValueError):
            HybridRecommender(seeded_repo, text_weight=1.5)


class TestEvaluation:
    def test_leave_one_out_reports_metrics(self, seeded_repo):
        result = evaluate_leave_one_out(seeded_repo, top=10)
        assert set(result) == {"knn", "nb"}
        n_classified = sum(
            1 for keys in seeded_repo.classification_keys().values() if keys)
        for arm in result.values():
            assert set(arm) == {"precision", "recall", "f1", "n"}
            assert 0.0 <= arm["precision"] <= 1.0
            assert 0.0 <= arm["recall"] <= 1.0
            assert arm["n"] == n_classified

    def test_fast_loo_on_empty_repo_raises(self, fresh_repo):
        with pytest.raises(ValueError):
            evaluate_leave_one_out(fresh_repo)

    def test_knn_beats_chance_on_seeded_corpus(self, seeded_repo):
        """With ~300 labels, random top-10 precision is ~3%; the text
        recommender should do far better on the real corpus."""
        result = evaluate_leave_one_out(seeded_repo, top=10)
        assert result["knn"]["precision"] > 0.10

    def test_matches_a_refit_per_held_out_material(self, fresh_repo):
        """Each fold scores with the model a cold fit over the other
        materials gives, and the shared model is left alone."""
        seed_synthetic(fresh_repo, "CS13", GeneratorConfig(
            n_materials=24, seed=20190523, collection="loo"))
        shared = classify_model(fresh_repo)
        assert evaluate_leave_one_out(fresh_repo, top=10) == _refit_loo(
            fresh_repo, top=10)
        assert classify_model(fresh_repo) is shared


def _refit_loo(repo, *, top):
    """Leave-one-out by refitting the textbook pipeline per material."""
    keys = repo.classification_keys()
    ids = [mid for mid in sorted(keys) if keys[mid]]
    texts = {mid: material_text(repo.get_material(mid)) for mid in ids}
    pairs = {"knn": [], "nb": []}
    for held in ids:
        train = [mid for mid in ids if mid != held]
        labels = [sorted(keys[mid]) for mid in train]
        vectorizer = TfidfVectorizer(min_df=1)
        counts = vectorizer.fit_counts([texts[mid] for mid in train])
        knn = KnnClassifier(k=KNN_K, threshold=KNN_THRESHOLD).fit(
            vectorizer.weigh(counts), labels)
        nb = NaiveBayesClassifier(
            alpha=NB_ALPHA, min_label_count=MIN_LABEL_COUNT,
        ).fit(counts, labels)
        query = vectorizer.counts([texts[held]])
        suggested = {
            "knn": {s.label for s in
                    knn.suggest(vectorizer.weigh(query))[0][:top]},
            "nb": {s.label for s in nb.suggest(query, top=top)[0]},
        }
        for arm, got in suggested.items():
            hit = len(got & keys[held])
            pairs[arm].append((hit / len(got), hit / len(keys[held]))
                              if got else (0.0, 0.0))
    out = {}
    for arm, rows in pairs.items():
        p = float(np.mean([pr for pr, _ in rows]))
        r = float(np.mean([rc for _, rc in rows]))
        out[arm] = {"precision": p, "recall": r,
                    "f1": 2 * p * r / (p + r) if p + r > 0 else 0.0,
                    "n": float(len(rows))}
    return out

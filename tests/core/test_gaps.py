"""Gap identification and alignment (Section IV-C machinery)."""

import pytest

from repro.core.classification import ClassificationSet
from repro.core.coverage import compute_coverage
from repro.core.gaps import alignment_score, curriculum_holes, find_gaps
from repro.core.material import Material
from repro.core.ontology import Tier
from repro.corpus import keys as K


def add(repo, title, keys, collection):
    cs = ClassificationSet()
    for key in keys:
        cs.add(key.split("/", 1)[0], key)
    return repo.add_material(
        Material(title=title, description="d", collection=collection), cs
    )


@pytest.fixture()
def two_corpora(fresh_repo):
    # reference: heavy on Arrays + control structures
    for i in range(3):
        add(fresh_repo, f"ref{i}", [K.SDF_ARRAYS, K.SDF_CTRL], "ref")
    add(fresh_repo, "ref-extra", [K.SDF_ARRAYS, K.AL_BIGO], "ref")
    # candidate: covers control structures and something unique
    add(fresh_repo, "cand0", [K.SDF_CTRL, K.P_OPENMP], "cand")
    add(fresh_repo, "cand1", [K.SDF_CTRL, K.PD_LOOPS], "cand")
    ref = compute_coverage(fresh_repo, "CS13", collection="ref")
    cand = compute_coverage(fresh_repo, "CS13", collection="cand")
    return fresh_repo, ref, cand


class TestFindGaps:
    def test_missing_in_candidate(self, two_corpora, cs13):
        repo, ref, cand = two_corpora
        report = find_gaps(cs13, ref, cand, min_reference_count=2)
        missing = {e.key for e in report.missing_in_candidate}
        assert K.SDF_ARRAYS in missing      # 4 ref materials, 0 candidate
        assert K.SDF_CTRL not in missing    # candidate covers it
        assert K.AL_BIGO not in missing     # only 1 ref material (< min)

    def test_unique_to_candidate(self, two_corpora, cs13):
        repo, ref, cand = two_corpora
        report = find_gaps(cs13, ref, cand)
        unique = {e.key for e in report.unique_to_candidate}
        assert K.PD_LOOPS in unique
        assert K.SDF_CTRL not in unique

    def test_ordering_by_reference_popularity(self, two_corpora, cs13):
        repo, ref, cand = two_corpora
        report = find_gaps(cs13, ref, cand)
        counts = [e.reference_count for e in report.missing_in_candidate]
        assert counts == sorted(counts, reverse=True)

    def test_top_development_targets_slices(self, two_corpora, cs13):
        repo, ref, cand = two_corpora
        report = find_gaps(cs13, ref, cand)
        assert len(report.top_development_targets(1)) <= 1

    def test_gap_entry_fields(self, two_corpora, cs13):
        repo, ref, cand = two_corpora
        report = find_gaps(cs13, ref, cand)
        entry = next(e for e in report.missing_in_candidate if e.key == K.SDF_ARRAYS)
        assert entry.label == "Arrays"
        assert "Software Development Fundamentals" in entry.path
        assert entry.deficit == 4

    def test_wrong_ontology_rejected(self, two_corpora, pdc12):
        repo, ref, cand = two_corpora
        with pytest.raises(ValueError):
            find_gaps(pdc12, ref, cand)


class TestAlignment:
    def test_identical_corpora_align_fully(self, fresh_repo, cs13):
        add(fresh_repo, "a", [K.SDF_ARRAYS, K.SDF_CTRL], "x")
        add(fresh_repo, "b", [K.SDF_ARRAYS, K.SDF_CTRL], "y")
        x = compute_coverage(fresh_repo, "CS13", collection="x")
        y = compute_coverage(fresh_repo, "CS13", collection="y")
        assert alignment_score(cs13, x, y) == pytest.approx(1.0)

    def test_disjoint_corpora_align_zero(self, fresh_repo, cs13):
        add(fresh_repo, "a", [K.SDF_ARRAYS], "x")
        add(fresh_repo, "b", [K.AL_BIGO], "y")
        x = compute_coverage(fresh_repo, "CS13", collection="x")
        y = compute_coverage(fresh_repo, "CS13", collection="y")
        assert alignment_score(cs13, x, y) == 0.0

    def test_empty_corpus_aligns_zero(self, fresh_repo, cs13):
        add(fresh_repo, "a", [K.SDF_ARRAYS], "x")
        x = compute_coverage(fresh_repo, "CS13", collection="x")
        empty = compute_coverage(fresh_repo, "CS13", collection="ghost")
        assert alignment_score(cs13, x, empty) == 0.0

    def test_alignment_symmetry(self, two_corpora, cs13):
        repo, ref, cand = two_corpora
        assert alignment_score(cs13, ref, cand) == pytest.approx(
            alignment_score(cs13, cand, ref)
        )


class TestCurriculumHoles:
    def test_holes_shrink_as_coverage_grows(self, fresh_repo, pdc12):
        empty = compute_coverage(fresh_repo, "PDC12", collection="ghost")
        before = curriculum_holes(pdc12, empty, tiers=(Tier.CORE,))
        add(fresh_repo, "m", [K.P_OPENMP], "c")
        after_cov = compute_coverage(fresh_repo, "PDC12", collection="c")
        after = curriculum_holes(pdc12, after_cov, tiers=(Tier.CORE,))
        assert len(after) == len(before) - 1
        assert all(n.tier is Tier.CORE for n in after)

    def test_no_tier_filter_counts_all_topics(self, fresh_repo, pdc12):
        empty = compute_coverage(fresh_repo, "PDC12", collection="ghost")
        holes = curriculum_holes(pdc12, empty)
        from repro.core.ontology import NodeKind
        n_topics = sum(n.kind is NodeKind.TOPIC for n in pdc12.nodes())
        assert len(holes) == n_topics

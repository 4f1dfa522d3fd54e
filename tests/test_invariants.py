"""Cross-module property-based tests on randomly generated corpora.

These exercise the analysis stack end-to-end over synthetic data, so the
invariants hold for *any* repository, not just the paper's seeded one.
PDC12 (116 entries) keeps the generator fast; the invariants themselves
are ontology-agnostic.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coverage import compute_coverage
from repro.core.persist import export_repository, import_repository
from repro.core.repository import Repository
from repro.core.similarity import incidence, shared_item_matrix, similarity_graph
from repro.corpus.generator import GeneratorConfig, seed_synthetic
from repro.corpus.seed import seed_ontologies

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_repo(n_materials: int, seed: int) -> tuple[Repository, list[int]]:
    repo = Repository()
    seed_ontologies(repo)
    ids = seed_synthetic(
        repo, "PDC12",
        GeneratorConfig(
            n_materials=n_materials, seed=seed, collection="x",
            min_items=1, max_items=6,
        ),
    )
    return repo, ids


corpus_params = st.tuples(
    st.integers(min_value=2, max_value=25),   # corpus size
    st.integers(min_value=0, max_value=10_000),  # generator seed
)


@SETTINGS
@given(corpus_params)
def test_coverage_rollup_dominates_direct(params):
    """A parent's rollup count is >= each child's, and every direct count
    is <= its own rollup count."""
    repo, _ = make_repo(*params)
    onto = repo.ontology("PDC12")
    cov = compute_coverage(repo, "PDC12", collection="x")
    for key, direct in cov.direct_counts.items():
        assert cov.rollup_counts[key] >= direct
    for node in onto.nodes():
        for child_key in node.children:
            child = cov.rollup_counts.get(child_key, 0)
            parent = cov.rollup_counts.get(node.key, 0)
            assert parent >= child


@SETTINGS
@given(corpus_params)
def test_area_counts_bounded_by_materials(params):
    repo, ids = make_repo(*params)
    onto = repo.ontology("PDC12")
    cov = compute_coverage(repo, "PDC12", collection="x")
    for area, count in cov.area_ranking(onto):
        assert 0 <= count <= len(ids)
    assert len(cov.covered_material_ids) <= len(ids)


@SETTINGS
@given(corpus_params)
def test_shared_item_matrix_properties(params):
    """Self shared-item matrix: symmetric, diagonal = set sizes, and every
    off-diagonal entry <= min of the two diagonals."""
    import numpy as np

    repo, ids = make_repo(*params)
    space = incidence(repo, ids)
    shared = shared_item_matrix(space)
    assert np.allclose(shared, shared.T)
    sizes = space.matrix.sum(axis=1)
    assert np.allclose(np.diag(shared), sizes)
    mins = np.minimum(sizes[:, None], sizes[None, :])
    assert (shared <= mins + 1e-9).all()


@SETTINGS
@given(corpus_params, st.integers(min_value=1, max_value=4))
def test_similarity_graph_edges_match_rule(params, threshold):
    """Every edge shares >= threshold items; every non-edge shares fewer."""
    repo, ids = make_repo(*params)
    half = max(1, len(ids) // 2)
    left, right = ids[:half], ids[half:]
    if not right:
        return
    graph = similarity_graph(repo, left, right, threshold=threshold)
    keysets = {
        mid: repo.classification_of(mid).keys("PDC12") for mid in ids
    }
    for lid in left:
        for rid in right:
            shared = len(keysets[lid] & keysets[rid])
            edge = graph.get_edge_data(lid, rid)
            assert (edge is not None) == (shared >= threshold)


@SETTINGS
@given(corpus_params)
def test_persistence_preserves_all_analyses(params):
    """Coverage before export == coverage after import, key for key."""
    repo, _ = make_repo(*params)
    restored = import_repository(export_repository(repo))
    a = compute_coverage(repo, "PDC12", collection="x")
    b = compute_coverage(restored, "PDC12", collection="x")
    assert a.direct_counts == b.direct_counts
    assert a.rollup_counts == b.rollup_counts


@SETTINGS
@given(corpus_params, st.integers(min_value=1, max_value=8))
def test_planner_coverage_monotone_in_budget(params, budget):
    """Allowing more materials never reduces plan coverage."""
    from repro.analysis import core_targets, plan_course
    from repro.core.ontology import Tier

    repo, _ = make_repo(*params)
    onto = repo.ontology("PDC12")
    targets = core_targets(onto, [Tier.CORE])
    small = plan_course(repo, "PDC12", targets, max_materials=budget)
    large = plan_course(repo, "PDC12", targets, max_materials=budget + 2)
    assert large.coverage_ratio >= small.coverage_ratio
    assert len(small.picks) <= budget


@SETTINGS
@given(corpus_params)
def test_migration_conserves_material_classification(params):
    """After PDC12 -> PDC19 migration, every material keeps at least as
    many classification entries (moves 1:1, splits 1:2, drops 0)."""
    from repro.core.migrate import migrate_classifications
    from repro.ontologies import load, pdc2019

    repo, ids = make_repo(*params)
    before = {mid: len(repo.classification_of(mid)) for mid in ids}
    report = migrate_classifications(
        repo, "PDC12", load("PDC19"), pdc2019.translate_key
    )
    assert not report.dropped_links
    for mid in ids:
        assert len(repo.classification_of(mid)) >= before[mid]

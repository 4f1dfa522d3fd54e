"""Coverage computation (Figure 2 machinery)."""

import itertools
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.classification import ClassificationSet
from repro.core.coverage import (
    CoverageReport,
    compare_coverage,
    compute_coverage,
)
from repro.core.material import Material
from repro.core.repository import Repository
from repro.corpus import keys as K
from repro.corpus.seed import seed_ontologies


def add(repo, title, keys, collection="c"):
    cs = ClassificationSet()
    for key in keys:
        onto = key.split("/", 1)[0]
        cs.add(onto, key)
    return repo.add_material(
        Material(title=title, description="d", collection=collection), cs
    )


def _kind_breakdown(cov, ontology):
    """Directly classified entries per node kind."""
    return Counter(ontology.node(key).kind for key in cov.direct_counts)


class TestCounts:
    def test_direct_counts(self, fresh_repo):
        add(fresh_repo, "A", [K.SDF_ARRAYS])
        add(fresh_repo, "B", [K.SDF_ARRAYS, K.SDF_CTRL])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        assert cov.direct_counts[K.SDF_ARRAYS] == 2
        assert cov.direct_counts[K.SDF_CTRL] == 1

    def test_rollup_deduplicates_materials(self, fresh_repo):
        # one material under two topics of the same unit counts once
        add(fresh_repo, "A", [K.SDF_ARRAYS, K.SDF_STRINGS])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        unit = "/".join(K.SDF_ARRAYS.split("/")[:-1])
        area = "/".join(K.SDF_ARRAYS.split("/")[:-2])
        assert cov.rollup_counts[unit] == 1
        assert cov.rollup_counts[area] == 1

    def test_rollup_counts_distinct_materials(self, fresh_repo):
        add(fresh_repo, "A", [K.SDF_ARRAYS])
        add(fresh_repo, "B", [K.SDF_STRINGS])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        unit = "/".join(K.SDF_ARRAYS.split("/")[:-1])
        assert cov.rollup_counts[unit] == 2

    def test_collection_filter(self, fresh_repo):
        add(fresh_repo, "A", [K.SDF_ARRAYS], collection="one")
        add(fresh_repo, "B", [K.SDF_CTRL], collection="two")
        cov = compute_coverage(fresh_repo, "CS13", collection="one")
        assert K.SDF_ARRAYS in cov.direct_counts
        assert K.SDF_CTRL not in cov.direct_counts
        assert cov.n_materials == 1

    def test_material_ids_filter(self, fresh_repo):
        a = add(fresh_repo, "A", [K.SDF_ARRAYS])
        add(fresh_repo, "B", [K.SDF_CTRL])
        cov = compute_coverage(fresh_repo, "CS13", material_ids=[a.id])
        assert K.SDF_CTRL not in cov.direct_counts
        assert cov.n_materials == 1

    def test_other_ontology_keys_ignored(self, fresh_repo):
        add(fresh_repo, "A", [K.SDF_ARRAYS, K.P_OPENMP])
        cov = compute_coverage(fresh_repo, "PDC12", collection="c")
        assert K.P_OPENMP in cov.direct_counts
        assert K.SDF_ARRAYS not in cov.direct_counts

    def test_empty_collection(self, fresh_repo):
        cov = compute_coverage(fresh_repo, "CS13", collection="ghost")
        assert cov.rollup_counts == {}
        assert cov.covered_material_ids == set()


class TestRankingHelpers:
    def test_area_ranking_descending(self, fresh_repo, cs13):
        add(fresh_repo, "A", [K.SDF_ARRAYS])
        add(fresh_repo, "B", [K.SDF_CTRL])
        add(fresh_repo, "C", [K.AL_BIGO])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        ranking = cov.area_ranking(cs13)
        assert ranking[0][0].code == "SDF"
        assert ranking[0][1] == 2
        assert ranking[1][0].code == "AL"
        counts = [n for _, n in ranking]
        assert counts == sorted(counts, reverse=True)

    def test_covered_and_uncovered_partition(self, fresh_repo, cs13):
        add(fresh_repo, "A", [K.SDF_ARRAYS])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        covered = {a.code for a in cov.covered_areas(cs13)}
        uncovered = {a.code for a in cov.uncovered_areas(cs13)}
        assert covered == {"SDF"}
        assert covered | uncovered == {a.code for a in cs13.areas()}

    def test_is_covered_and_count(self, fresh_repo):
        add(fresh_repo, "A", [K.SDF_ARRAYS])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        assert cov.is_covered(K.SDF_ARRAYS)
        assert cov.count(K.SDF_ARRAYS) == 1
        assert not cov.is_covered(K.AL_BIGO)
        assert cov.count(K.AL_BIGO) == 0

    def test_kind_breakdown_counts_entry_types(self, fresh_repo, cs13):
        from repro.core.ontology import NodeKind
        add(fresh_repo, "A", [K.SDF_ARRAYS, K.SDF_CTRL])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        assert _kind_breakdown(cov, cs13) == {NodeKind.TOPIC: 2}

    def test_kind_breakdown_on_seeded_corpus(self, seeded_repo, cs13):
        from repro.core.ontology import NodeKind
        cov = compute_coverage(seeded_repo, "CS13")
        breakdown = _kind_breakdown(cov, cs13)
        # The reconstructed corpus classifies at topic granularity only —
        # the IV-A observation that outcome-level tagging needs tooling.
        assert breakdown.get(NodeKind.TOPIC, 0) > 50
        assert NodeKind.LEARNING_OUTCOME not in breakdown

    def test_coverage_ratio_within_subtree(self, fresh_repo, cs13):
        add(fresh_repo, "A", [K.SDF_ARRAYS])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        unit = "/".join(K.SDF_ARRAYS.split("/")[:-1])
        ratio = cov.coverage_ratio(cs13, within=unit)
        assert 0.0 < ratio < 1.0
        assert cov.coverage_ratio(cs13) < ratio


class TestTree:
    def test_pruned_tree_excludes_uncovered(self, fresh_repo, cs13):
        add(fresh_repo, "A", [K.SDF_ARRAYS])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        tree = cov.tree(cs13)
        assert [c.code for c in tree.children] == ["SDF"]

    def test_unpruned_tree_includes_all_areas(self, fresh_repo, cs13):
        add(fresh_repo, "A", [K.SDF_ARRAYS])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        tree = cov.tree(cs13, prune=False, max_depth=1)
        assert len(tree.children) == len(cs13.areas())

    def test_max_depth_limits_tree(self, fresh_repo, cs13):
        add(fresh_repo, "A", [K.SDF_ARRAYS])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        tree = cov.tree(cs13, max_depth=1)
        for child in tree.children:
            assert child.children == []

    def test_tree_counts_match_report(self, fresh_repo, cs13):
        add(fresh_repo, "A", [K.SDF_ARRAYS, K.AL_BIGO])
        add(fresh_repo, "B", [K.SDF_ARRAYS])
        cov = compute_coverage(fresh_repo, "CS13", collection="c")
        tree = cov.tree(cs13)
        by_code = {c.code: c.count for c in tree.children}
        assert by_code == {"SDF": 2, "AL": 1}
        assert tree.count == 2  # two distinct materials overall


class TestCompare:
    def test_compare_coverage_shape(self, fresh_repo, cs13):
        add(fresh_repo, "A", [K.SDF_ARRAYS], collection="x")
        add(fresh_repo, "B", [K.AL_BIGO], collection="y")
        reports = {
            "x": compute_coverage(fresh_repo, "CS13", collection="x"),
            "y": compute_coverage(fresh_repo, "CS13", collection="y"),
        }
        rows = compare_coverage(reports, cs13)
        assert [name for name, _ in rows] == ["x", "y"]
        x_top = rows[0][1][0]
        assert x_top == ("Software Development Fundamentals", 1)


# ------------------------------------------------ scoped reads vs oracle
#
# The oracle is the whole-corpus computation coverage used to run: filter
# every link row down to the material set, then roll material sets up
# the full ontology tree from the root.  The scoped reads (collection or
# id lookups through indexes, root-path rollup) must agree with it.


def _oracle_pairs(repo, collection=None, material_ids=None):
    in_collection = (
        None if collection is None
        else {r["id"] for r in repo.db.table("materials")
              if r["collection"] == collection}
    )
    entries = repo.db.table("ontology_entries")
    return [
        (mid, entries.get(eid)["key"])
        for mid, eid in repo.material_classifications.pairs()
        if (in_collection is None or mid in in_collection)
        and (material_ids is None or mid in material_ids)
    ]


def _oracle_coverage(repo, ontology_name, collection=None,
                     material_ids=None):
    onto = repo.ontology(ontology_name)
    wanted = set(material_ids) if material_ids is not None else None
    direct_sets = {}
    for mid, key in _oracle_pairs(repo, collection, wanted):
        if key in onto:
            direct_sets.setdefault(key, set()).add(mid)
    rollup_sets = {}

    def roll(key):
        acc = set(direct_sets.get(key, ()))
        for child in onto.node(key).children:
            acc |= roll(child)
        if acc:
            rollup_sets[key] = acc
        return acc

    covered = roll(onto.root.key)
    return CoverageReport(
        ontology=ontology_name,
        n_materials=(len(wanted) if wanted is not None
                     else repo.material_count(collection)),
        direct_counts={k: len(s) for k, s in direct_sets.items()},
        rollup_counts={k: len(s) for k, s in rollup_sets.items()
                       if k != onto.root.key},
        covered_material_ids=covered,
    )


def _assert_same_report(got, want):
    # direct_counts follows pair order, so its key order is checked too;
    # rollup_counts is only read by key and len.
    assert list(got.direct_counts.items()) == list(want.direct_counts.items())
    assert got.rollup_counts == want.rollup_counts
    assert got.covered_material_ids == want.covered_material_ids
    assert got.n_materials == want.n_materials


@pytest.fixture(scope="module")
def oracle_repo():
    """One repository shared by every generated example; each example
    writes into collections of its own, so earlier examples only add
    unrelated rows to the unscoped reads."""
    repo = Repository()
    seed_ontologies(repo)
    repo.cache.enabled = False  # every read below is a fresh compute
    keys = [
        node.key
        for name in ("PDC12", "CS13")
        for node in repo.ontology(name).nodes()
    ]
    interior = [k for k in keys if not repo.ontology(
        k.split("/", 1)[0]).node(k).is_leaf()]
    return repo, keys, interior


_EXAMPLE = itertools.count()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scoped_coverage_matches_whole_corpus_oracle(oracle_repo, data):
    repo, keys, interior = oracle_repo
    key = st.one_of(st.sampled_from(interior), st.sampled_from(keys))
    materials = data.draw(st.lists(
        st.tuples(st.integers(0, 2), st.lists(key, max_size=4)),
        max_size=8,
    ))
    # (material, key) links to drop, and whether to re-add each one: a
    # re-added link takes a fresh id at the end of the link table.
    drops = data.draw(st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 63), st.booleans()),
        max_size=4,
    ))
    example = next(_EXAMPLE)
    collections = [f"x{example}-{c}" for c in "abc"]
    empty = f"x{example}-empty"
    added = []
    for coll, mat_keys in materials:
        mid = repo.db.insert(
            "materials", title=f"m{example}", collection=collections[coll],
        )["id"]
        for k in mat_keys:
            repo.classify(mid, k.split("/", 1)[0], k)
        added.append((mid, mat_keys))
    for i, j, readd in drops:
        if not added or not added[i % len(added)][1]:
            continue
        mid, mat_keys = added[i % len(added)]
        k = mat_keys[j % len(mat_keys)]
        repo.declassify(mid, k)
        if readd:
            repo.classify(mid, k.split("/", 1)[0], k)
    ids = [mid for mid, _ in added]
    subset = data.draw(st.sets(st.sampled_from(ids), max_size=6)) if ids \
        else set()
    subset.add(10**9)  # an id no material has

    for scope in (None, *collections, empty):
        assert list(repo.classification_pairs(scope)) == \
            _oracle_pairs(repo, scope)
    for name in ("PDC12", "CS13"):
        for scope in (None, *collections, empty):
            _assert_same_report(
                compute_coverage(repo, name, collection=scope),
                _oracle_coverage(repo, name, collection=scope),
            )
        _assert_same_report(
            compute_coverage(repo, name, material_ids=subset),
            _oracle_coverage(repo, name, material_ids=subset),
        )
        _assert_same_report(
            compute_coverage(repo, name, collection=collections[0],
                             material_ids=subset),
            _oracle_coverage(repo, name, collection=collections[0],
                             material_ids=subset),
        )

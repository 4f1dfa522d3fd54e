"""The mutation-versioned analytics cache: correctness under churn.

The central invariant: a cached coverage/similarity answer must be
byte-equal to a fresh recomputation after ANY sequence of repository
mutations — classify, declassify, add_material, delete_material —
including aborted transactions, LRU evictions and version rollbacks.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cache as cache_mod
from repro.core.cache import AnalyticsCache, Memo, freeze
from repro.core.classification import ClassificationSet
from repro.core.coverage import compute_coverage
from repro.core.material import Material
from repro.core.ontology import NodeKind, Ontology
from repro.core.repository import Repository
from repro.core.similarity import similarity_graph


# --------------------------------------------------------------------- helpers

KEYS = (
    "T/A/t1", "T/A/t2", "T/A/t3",
    "T/B/t4", "T/B/t5", "T/B/t6",
)


def tiny_ontology() -> Ontology:
    onto = Ontology("T")
    onto.add("T/A", "Area A", NodeKind.AREA)
    onto.add("T/B", "Area B", NodeKind.AREA)
    for key in KEYS:
        area = "/".join(key.split("/")[:2])
        onto.add(key, f"Topic {key[-2:]}", NodeKind.TOPIC, area)
    return onto


def tiny_repo() -> Repository:
    repo = Repository()
    repo.add_ontology(tiny_ontology())
    return repo


def add(repo: Repository, title: str, keys, collection: str = "c") -> int:
    cs = ClassificationSet()
    for key in keys:
        cs.add("T", key)
    stored = repo.add_material(
        Material(title=title, description=f"about {title}", collection=collection),
        cs,
    )
    assert stored.id is not None
    return stored.id


def coverage_bytes(report) -> bytes:
    """Canonical byte serialization of a CoverageReport."""
    return json.dumps({
        "ontology": report.ontology,
        "n_materials": report.n_materials,
        "direct": sorted(report.direct_counts.items()),
        "rollup": sorted(report.rollup_counts.items()),
        "covered": sorted(report.covered_material_ids),
    }, sort_keys=True).encode()


def similarity_bytes(graph) -> bytes:
    """Canonical byte serialization of a similarity graph."""
    return json.dumps({
        "nodes": sorted(
            (n, d["group"], d["title"]) for n, d in graph.nodes(data=True)
        ),
        "edges": sorted(
            (min(u, v), max(u, v), d["shared"], sorted(d["shared_keys"]))
            for u, v, d in graph.edges(data=True)
        ),
    }, sort_keys=True).encode()


def fresh_coverage(repo: Repository, collection=None):
    """Ground truth: recompute with the cache switched off."""
    repo.cache.enabled = False
    try:
        return compute_coverage(repo, "T", collection=collection)
    finally:
        repo.cache.enabled = True


def fresh_similarity(repo: Repository, ids, threshold=1):
    repo.cache.enabled = False
    try:
        return similarity_graph(repo, ids, threshold=threshold)
    finally:
        repo.cache.enabled = True


# ---------------------------------------------------------- AnalyticsCache unit


class TestAnalyticsCache:
    def test_hit_after_miss(self, bare_repo):
        cache = bare_repo.cache
        calls = []
        compute = lambda: calls.append(1) or 42
        for _ in range(3):
            assert cache.get_or_compute("f", (1,), ("materials",), compute) == 42
        assert len(calls) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2

    def test_mutation_invalidates(self, bare_repo):
        cache = bare_repo.cache
        values = iter(["old", "new"])
        compute = lambda: next(values)
        assert cache.get_or_compute("f", (), ("materials",), compute) == "old"
        bare_repo.db.insert("materials", title="x")
        assert cache.get_or_compute("f", (), ("materials",), compute) == "new"
        assert cache.stats.invalidations == 1

    def test_unrelated_table_mutation_keeps_entry(self, bare_repo):
        cache = bare_repo.cache
        assert cache.get_or_compute("f", (), ("tags",), lambda: "v") == "v"
        bare_repo.db.insert("materials", title="x")  # not a dependency
        assert cache.get_or_compute(
            "f", (), ("tags",), lambda: pytest.fail("should be cached")
        ) == "v"

    def test_lru_eviction_bound(self, bare_repo):
        cache = AnalyticsCache(bare_repo.db, maxsize=2)
        for i in range(5):
            cache.get_or_compute("f", (i,), ("materials",), lambda i=i: i)
        assert len(cache) == 2
        assert cache.stats.evictions == 3
        # Evicted keys recompute (still correct), surviving keys hit.
        assert cache.get_or_compute("f", (0,), ("materials",), lambda: 0) == 0
        assert cache.stats.hits == 0

    def test_lru_recency_order(self, bare_repo):
        cache = AnalyticsCache(bare_repo.db, maxsize=2)
        cache.get_or_compute("f", (1,), (), lambda: 1)
        cache.get_or_compute("f", (2,), (), lambda: 2)
        cache.get_or_compute("f", (1,), (), lambda: 1)      # refresh key 1
        cache.get_or_compute("f", (3,), (), lambda: 3)      # evicts key 2
        assert ("f", freeze((2,))) not in cache.keys()
        assert ("f", freeze((1,))) in cache.keys()

    def test_transaction_bypass(self, bare_repo):
        cache = bare_repo.cache
        with bare_repo.db.transaction():
            cache.get_or_compute("f", (), ("materials",), lambda: "in-tx")
        assert cache.stats.bypasses == 1
        assert len(cache) == 0  # nothing stored from inside the transaction

    def test_global_disable(self, monkeypatch):
        # CARCS_CACHE=off at build time bypasses every lookup ...
        monkeypatch.setenv(cache_mod.ENV_FLAG, "off")
        cache = Repository().cache
        calls = []
        for _ in range(2):
            cache.get_or_compute("f", (), (), lambda: calls.append(1))
        assert len(calls) == 2
        assert cache.stats.bypasses == 2 and len(cache) == 0
        # ... and a repository built with it unset caches.
        monkeypatch.delenv(cache_mod.ENV_FLAG)
        cache = Repository().cache
        calls = []
        for _ in range(2):
            cache.get_or_compute("f", (), (), lambda: calls.append(1))
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.bypasses == 0

    def test_env_flag_parsing(self, monkeypatch):
        for raw in ("off", "0", "false", "NO", " Disabled "):
            monkeypatch.setenv(cache_mod.ENV_FLAG, raw)
            assert not cache_mod.env_enabled()
        for raw in ("on", "1", "yes", ""):
            monkeypatch.setenv(cache_mod.ENV_FLAG, raw)
            assert cache_mod.env_enabled()
        monkeypatch.delenv(cache_mod.ENV_FLAG)
        assert cache_mod.env_enabled()

    def test_freeze_handles_containers(self):
        assert freeze([1, [2, 3]]) == (1, (2, 3))
        assert freeze({"b": 2, "a": [1]}) == (("a", (1,)), ("b", 2))
        assert freeze({1, 2}) == frozenset({1, 2})
        assert hash(freeze({"a": [{"x": {1, 2}}]})) is not None


class TestMemo:
    def test_memo_uses_owner_cache(self):
        class Thing:
            def __init__(self, repo):
                self.cache = repo.cache
                self.calls = 0

            @Memo("materials")
            def answer(self, x):
                self.calls += 1
                return x * 2

        repo = Repository()
        thing = Thing(repo)
        assert thing.answer(21) == 42
        assert thing.answer(21) == 42
        assert thing.calls == 1
        repo.db.insert("materials", title="x")
        assert thing.answer(21) == 42
        assert thing.calls == 2

    def test_memo_without_cache_falls_through(self):
        class Bare:
            @Memo("materials")
            def answer(self):
                return 7

        assert Bare().answer() == 7


# ------------------------------------------------------------ version semantics


class TestVersionSemantics:
    def test_classify_bumps_repository_version(self):
        repo = tiny_repo()
        mid = add(repo, "m1", [KEYS[0]])
        v = repo.version
        repo.classify(mid, "T", KEYS[1])
        assert repo.version > v

    def test_declassify_bumps_only_when_removing(self):
        repo = tiny_repo()
        mid = add(repo, "m1", [KEYS[0]])
        v = repo.version
        assert repo.declassify(mid, KEYS[0])
        assert repo.version > v
        v = repo.version
        assert not repo.declassify(mid, KEYS[0])  # nothing to remove
        assert repo.version == v

    def test_rollback_restores_version(self):
        repo = tiny_repo()
        mid = add(repo, "m1", [KEYS[0]])
        v = repo.version
        with pytest.raises(RuntimeError):
            with repo.db.transaction():
                repo.classify(mid, "T", KEYS[1])
                assert repo.version > v
                raise RuntimeError("abort")
        assert repo.version == v

    def test_aborted_transaction_cannot_poison_cache(self):
        """The stale-cache trap: an aborted mutation re-uses version
        numbers, so values computed mid-transaction must never be stored."""
        repo = tiny_repo()
        mid = add(repo, "m1", [KEYS[0]])
        baseline = coverage_bytes(compute_coverage(repo, "T", collection="c"))
        with pytest.raises(RuntimeError):
            with repo.db.transaction():
                repo.classify(mid, "T", KEYS[1])
                # A read inside the transaction sees the uncommitted state…
                inside = compute_coverage(repo, "T", collection="c")
                assert coverage_bytes(inside) != baseline
                raise RuntimeError("abort")
        # …but afterwards the cache still serves the pre-transaction truth,
        assert coverage_bytes(compute_coverage(repo, "T", collection="c")) == baseline
        # and a *different* committed mutation at the re-used version number
        # is picked up rather than shadowed by the aborted one.
        repo.classify(mid, "T", KEYS[2])
        after = compute_coverage(repo, "T", collection="c")
        assert coverage_bytes(after) == coverage_bytes(fresh_coverage(repo, "c"))
        assert KEYS[2] in after.direct_counts
        assert KEYS[1] not in after.direct_counts

    def test_stats_reports_version_and_cache_counters(self):
        repo = tiny_repo()
        add(repo, "m1", [KEYS[0]])
        compute_coverage(repo, "T", collection="c")
        compute_coverage(repo, "T", collection="c")
        stats = repo.stats()
        assert stats["version"] == repo.version > 0
        assert stats["cache_hits"] >= 1
        assert stats["cache_misses"] >= 1
        assert stats["cache_entries"] >= 1


# -------------------------------------------------------- cached == recomputed


class TestCachedEqualsFresh:
    def test_coverage_hit_is_byte_equal(self):
        repo = tiny_repo()
        add(repo, "m1", [KEYS[0], KEYS[1]])
        add(repo, "m2", [KEYS[1], KEYS[3]])
        first = compute_coverage(repo, "T", collection="c")
        again = compute_coverage(repo, "T", collection="c")
        assert again is first  # shared object on hit
        assert coverage_bytes(first) == coverage_bytes(fresh_coverage(repo, "c"))

    def test_coverage_after_each_mutation_kind(self):
        repo = tiny_repo()
        m1 = add(repo, "m1", [KEYS[0]])
        m2 = add(repo, "m2", [KEYS[3]])
        mutations = [
            lambda: repo.classify(m1, "T", KEYS[4]),
            lambda: repo.declassify(m2, KEYS[3]),
            lambda: add(repo, "m3", [KEYS[5]]),
            lambda: repo.delete_material(m1),
        ]
        for mutate in mutations:
            compute_coverage(repo, "T", collection="c")  # warm the cache
            mutate()
            cached = compute_coverage(repo, "T", collection="c")
            assert coverage_bytes(cached) == coverage_bytes(fresh_coverage(repo, "c"))

    def test_similarity_hit_matches_fresh(self):
        repo = tiny_repo()
        ids = [
            add(repo, "m1", [KEYS[0], KEYS[1]]),
            add(repo, "m2", [KEYS[0], KEYS[1]]),
            add(repo, "m3", [KEYS[4]]),
        ]
        first = similarity_graph(repo, ids, threshold=1)
        again = similarity_graph(repo, ids, threshold=1)
        assert similarity_bytes(first) == similarity_bytes(again)
        assert similarity_bytes(first) == similarity_bytes(
            fresh_similarity(repo, ids)
        )
        # The hit is the cached graph itself, shared safely because
        # nothing can write to it: no mutators, read-only attributes.
        assert again is first
        for mutator in ("add_node", "add_edge", "add_nodes_from",
                        "add_edges_from", "remove_node", "remove_edge",
                        "update", "clear"):
            assert not hasattr(first, mutator)
        u, v = next(iter(first.edges))
        with pytest.raises(TypeError):
            first.nodes[u]["title"] = "rogue"
        with pytest.raises(TypeError):
            first.get_edge_data(u, v)["shared"] = 0
        with pytest.raises(TypeError):
            first.nodes[99999] = {"group": "rogue"}
        assert 99999 not in similarity_graph(repo, ids, threshold=1)

    def test_lru_eviction_preserves_correctness(self):
        repo = tiny_repo()
        repo.cache = AnalyticsCache(repo.db, maxsize=1)
        add(repo, "a1", [KEYS[0]], collection="one")
        add(repo, "b1", [KEYS[3]], collection="two")
        for _ in range(3):
            for coll in ("one", "two"):  # each lookup evicts the other
                cached = compute_coverage(repo, "T", collection=coll)
                assert coverage_bytes(cached) == coverage_bytes(
                    fresh_coverage(repo, coll)
                )
        assert repo.cache.stats.evictions > 0

    def test_search_index_follows_version(self):
        repo = tiny_repo()
        add(repo, "quantum sieve", [KEYS[0]])
        assert any(
            "quantum" in h.material.title for h in repo.search("quantum sieve")
        )
        mid = add(repo, "parallel mandelbrot", [KEYS[1]])
        hits = repo.search("parallel mandelbrot")
        assert any(h.material.id == mid for h in hits)
        # In-place rename (no row-count change) must also be picked up.
        repo.update_material(mid, title="distributed raytracer")
        hits = repo.search("distributed raytracer")
        assert any(h.material.id == mid for h in hits)

    def test_recommender_memoized_until_mutation(self):
        repo = tiny_repo()
        add(repo, "m1", [KEYS[0], KEYS[1]])
        add(repo, "m2", [KEYS[0], KEYS[2]])
        first = repo.recommender().model
        assert repo.recommender().model is first
        add(repo, "m3", [KEYS[3]])
        assert repo.recommender().model is not first


# ----------------------------------------------------------- the property test


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "delete", "classify", "declassify"]),
        st.integers(0, 9),
        st.integers(0, len(KEYS) - 1),
    ),
    min_size=1,
    max_size=18,
)


@settings(max_examples=40, deadline=None)
@given(ops_strategy)
def test_cached_analytics_equal_fresh_under_random_mutations(ops):
    """For ANY mutation sequence, the cached coverage and similarity
    answers stay byte-equal to a fresh recomputation at every step."""
    repo = tiny_repo()
    live: list[int] = []
    counter = 0
    for op, pick, key_idx in ops:
        if op == "add":
            counter += 1
            live.append(
                add(repo, f"m{counter}", [KEYS[key_idx]], collection="c")
            )
        elif op == "delete" and live:
            repo.delete_material(live.pop(pick % len(live)))
        elif op == "classify" and live:
            repo.classify(live[pick % len(live)], "T", KEYS[key_idx])
        elif op == "declassify" and live:
            repo.declassify(live[pick % len(live)], KEYS[key_idx])

        cached_cov = compute_coverage(repo, "T", collection="c")
        assert coverage_bytes(cached_cov) == coverage_bytes(
            fresh_coverage(repo, "c")
        )
        if live:
            cached_sim = similarity_graph(repo, list(live), threshold=1)
            assert similarity_bytes(cached_sim) == similarity_bytes(
                fresh_similarity(repo, list(live))
            )
    # The loop above exercises hits (consecutive reads without mutation
    # happen whenever an op was a no-op) and invalidations; the cache must
    # have actually been used, not silently bypassed.
    assert repo.cache.stats.lookups > 0

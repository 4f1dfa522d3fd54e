"""SCALE — how the analyses behave as the crowdsourced corpus grows.

The paper's curation model implies corpora well beyond the 97 seeded
materials.  Synthetic corpora of growing size drive the coverage,
similarity and search kernels; the benches document the scaling shape
(coverage ~linear in links; similarity ~quadratic in materials via one
BLAS multiply; search index build linear).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from _results import record
from repro.core.coverage import compute_coverage
from repro.core.gaps import find_gaps
from repro.core.ontology import NodeKind
from repro.core.repository import Repository
from repro.core.search import SearchEngine
from repro.core.similarity import incidence, shared_item_matrix, similarity_graph
from repro.corpus import keys as K
from repro.corpus.generator import GeneratorConfig, seed_synthetic
from repro.corpus.seed import seed_all, seed_ontologies
from repro.db import query as db_query
from repro.web import CarCsApi
from repro.web.server import ApiServer

SIZES = (100, 400, 1600)
CACHE_SCALE_N = 10_000
PLANNER_SCALE_N = 100_000
#: CI latency budgets for the 10⁵-material analytics (generous multiples
#: of observed times — ~0.35 s coverage, ~0.02 s gaps on a dev host — so
#: slow shared runners don't flake, while a regression to scan-and-sort
#: behaviour still trips them).
COVERAGE_BUDGET_S = 2.5
GAP_BUDGET_S = 1.5
#: Scoped-coverage gate: a fixed 25-material collection inside corpora
#: of 10³ and 10⁴ materials.  Its uncached coverage may cost at most
#: ``SCOPED_GROWTH_LIMIT``× more in the bigger corpus; a read that walks
#: the whole link table grows ~10×.
SCOPED_COLLECTION_SIZE = 25
SCOPED_CORPUS_SIZES = (1_000, 10_000)
SCOPED_GROWTH_LIMIT = 2.0
HTTP_CLIENTS = 8
HTTP_REQUESTS_PER_CLIENT = 40


@pytest.fixture(scope="module")
def synthetic_repos():
    repos = {}
    for size in SIZES:
        repo = Repository()
        seed_ontologies(repo)
        ids = seed_synthetic(
            repo, "CS13",
            GeneratorConfig(n_materials=size, collection="bulk"),
        )
        repos[size] = (repo, ids)
    return repos


@pytest.mark.parametrize("size", SIZES)
def test_coverage_scaling(benchmark, synthetic_repos, size):
    repo, _ = synthetic_repos[size]
    coverage = benchmark(compute_coverage, repo, "CS13", collection="bulk")
    assert coverage.n_materials == size
    print(f"\nSCALE coverage n={size}: "
          f"{len(coverage.rollup_counts)} entries touched")


@pytest.mark.parametrize("size", SIZES)
def test_similarity_kernel_scaling(benchmark, synthetic_repos, size):
    repo, ids = synthetic_repos[size]
    space = incidence(repo, ids)

    shared = benchmark(shared_item_matrix, space)
    assert shared.shape == (size, size)


@pytest.mark.parametrize("size", SIZES[:2])
def test_search_index_scaling(benchmark, synthetic_repos, size):
    repo, _ = synthetic_repos[size]
    engine = SearchEngine(repo)

    def build_and_query():
        engine.refresh()
        return engine.search("parallel graph traversal", limit=10)

    hits = benchmark(build_and_query)
    assert isinstance(hits, list)


@pytest.fixture(scope="module")
def big_repo():
    """A 10⁴-material corpus (feasible since transactions journal undos
    instead of snapshotting every table on begin)."""
    repo = Repository()
    seed_ontologies(repo)
    ids = seed_synthetic(
        repo, "CS13",
        GeneratorConfig(n_materials=CACHE_SCALE_N, collection="bulk"),
    )
    return repo, ids


def _coverage_fingerprint(report) -> bytes:
    return json.dumps({
        "ontology": report.ontology,
        "n_materials": report.n_materials,
        "direct": sorted(report.direct_counts.items()),
        "rollup": sorted(report.rollup_counts.items()),
        "covered": sorted(report.covered_material_ids),
    }, sort_keys=True).encode()


def test_cached_coverage_speedup_at_scale(big_repo, cache_enabled):
    """Warm cached coverage must beat a cold pass ≥10× at n=10⁴, with
    byte-identical output."""
    if not cache_enabled:
        pytest.skip("CARCS_CACHE=off: measuring cold paths only")
    repo, _ = big_repo
    repo.cache.clear()

    t0 = time.perf_counter()
    cold = compute_coverage(repo, "CS13", collection="bulk")
    cold_s = time.perf_counter() - t0

    warm_s = float("inf")
    for _ in range(3):  # best-of-3 to keep the assertion scheduler-proof
        t0 = time.perf_counter()
        warm = compute_coverage(repo, "CS13", collection="bulk")
        warm_s = min(warm_s, time.perf_counter() - t0)

    assert warm is cold  # a hit returns the shared report
    repo.cache.enabled = False
    try:
        fresh = compute_coverage(repo, "CS13", collection="bulk")
    finally:
        repo.cache.enabled = True
    assert _coverage_fingerprint(warm) == _coverage_fingerprint(fresh)

    speedup = cold_s / warm_s if warm_s else float("inf")
    print(f"\nSCALE cached coverage n={CACHE_SCALE_N}: "
          f"cold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e6:.1f} µs, "
          f"{speedup:,.0f}x")
    assert cold_s >= 10 * warm_s, (
        f"warm cache only {speedup:.1f}x faster (cold {cold_s:.4f}s, "
        f"warm {warm_s:.4f}s)"
    )


def test_cached_similarity_speedup_on_subset(big_repo, cache_enabled):
    """Similarity is quadratic, so the warm path is benched on a 500-id
    subset of the 10⁴ corpus (full n² would dominate the suite)."""
    if not cache_enabled:
        pytest.skip("CARCS_CACHE=off: measuring cold paths only")
    repo, ids = big_repo
    subset = ids[:500]
    repo.cache.clear()

    t0 = time.perf_counter()
    cold = similarity_graph(repo, subset, threshold=2)
    cold_s = time.perf_counter() - t0

    warm_s = float("inf")
    for _ in range(3):  # a hit returns the shared immutable graph
        t0 = time.perf_counter()
        warm = similarity_graph(repo, subset, threshold=2)
        warm_s = min(warm_s, time.perf_counter() - t0)

    assert set(warm.nodes) == set(cold.nodes)
    assert set(map(frozenset, warm.edges)) == set(map(frozenset, cold.edges))
    speedup = cold_s / warm_s if warm_s else float("inf")
    print(f"\nSCALE cached similarity n=500: "
          f"cold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.2f} ms, "
          f"{speedup:,.0f}x")
    assert cold_s >= 10 * warm_s


def test_cache_hit_rate_under_read_heavy_load(big_repo, cache_enabled):
    """The ROADMAP's read-heavy deployment shape: many reads per write.
    Documents the hit rate the ETag/analytics layer sustains."""
    if not cache_enabled:
        pytest.skip("CARCS_CACHE=off")
    repo, ids = big_repo
    repo.cache.clear()
    for round_no in range(5):
        for _ in range(20):
            compute_coverage(repo, "CS13", collection="bulk")
        repo.classify(ids[round_no], "CS13", K.PD_PATTERNS)
    stats = repo.cache.stats
    print(f"\nSCALE cache hit rate (100 reads / 5 writes): "
          f"{stats.hit_rate:.1%} ({stats.hits} hits, {stats.misses} misses, "
          f"{stats.invalidations} invalidations)")
    assert stats.hit_rate > 0.9


@pytest.fixture(scope="module")
def mega_repo():
    """A 10⁵-material corpus for the planner/analytics gates.

    Seeded by direct row inserts inside one transaction — the
    ``Repository.add_material`` path (author/tag dedup, submission
    bookkeeping) would dominate the suite at this scale, and the gates
    measure reads, not ingest.  Materials spread over 100 collections
    (~10³ rows each) with ~2 classifications per material."""
    repo = Repository()
    seed_ontologies(repo)
    onto = repo.ontology("CS13")
    keys = [n.key for n in onto.nodes()
            if n.kind in (NodeKind.TOPIC, NodeKind.LEARNING_OUTCOME)]
    eids = [repo.entry_id(k) for k in keys]
    db = repo.db
    with db.transaction():
        for i in range(PLANNER_SCALE_N):
            mid = db.insert(
                "materials",
                title=f"material {i:06d}",
                collection=f"c{i % 100:02d}",
                year=2000 + i % 20,
            )["id"]
            for j in range(2):
                db.insert(
                    "material_classifications",
                    materials_id=mid,
                    ontology_entries_id=eids[(i + j * 7) % len(eids)],
                )
    return repo


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_planner_speedup_at_1e5(mega_repo):
    """GATE — a planner-chosen indexed equality+order query must beat
    the naive full-scan interpretation ≥10× at 10⁵ rows.

    ``filter(collection=...)`` resolves through the hash index (~10³ of
    10⁵ rows touched); the naive reference interpreter copies and
    filters the whole table before sorting."""
    q = (db_query(mega_repo.db, "materials")
         .filter(collection="c07").order_by("title").limit(20))
    planned_s = _best_of(lambda: q.all())
    naive_s = _best_of(lambda: q._run_naive())
    assert q.all() == q._run_naive()
    speedup = naive_s / planned_s if planned_s else float("inf")
    print(f"\nSCALE planner n={PLANNER_SCALE_N}: "
          f"planned {planned_s * 1e3:.2f} ms, naive {naive_s * 1e3:.1f} ms, "
          f"{speedup:,.0f}x  [{q.plan().summary()}]")
    record("scale.planner_speedup_1e5", speedup, 10.0, unit="x")
    assert naive_s >= 10 * planned_s, (
        f"planned query only {speedup:.1f}x faster "
        f"(planned {planned_s:.4f}s, naive {naive_s:.4f}s)"
    )


def test_coverage_latency_at_1e5(mega_repo):
    """GATE — full-corpus coverage at 10⁵ materials stays within its CI
    latency budget (cold, cache cleared every round)."""
    def cold_coverage():
        mega_repo.cache.clear()
        return compute_coverage(mega_repo, "CS13")

    elapsed = _best_of(cold_coverage)
    report = compute_coverage(mega_repo, "CS13")
    assert report.n_materials == PLANNER_SCALE_N
    print(f"\nSCALE coverage n={PLANNER_SCALE_N}: {elapsed * 1e3:.0f} ms "
          f"(budget {COVERAGE_BUDGET_S:.1f} s)")
    record("scale.coverage_latency_1e5", elapsed, COVERAGE_BUDGET_S,
           comparator="<=", unit="s")
    assert elapsed < COVERAGE_BUDGET_S, (
        f"coverage took {elapsed:.2f}s at n={PLANNER_SCALE_N} "
        f"(budget {COVERAGE_BUDGET_S}s)"
    )


def test_gap_latency_at_1e5(mega_repo):
    """GATE — subset coverage + gap comparison against the full corpus
    stays within its CI latency budget at 10⁵ materials."""
    onto = mega_repo.ontology("CS13")
    reference = compute_coverage(mega_repo, "CS13")

    def cold_gaps():
        mega_repo.cache.clear()
        candidate = compute_coverage(mega_repo, "CS13", collection="c01")
        return find_gaps(onto, reference, candidate,
                         reference_name="all", candidate_name="c01")

    elapsed = _best_of(cold_gaps)
    report = cold_gaps()
    assert report.alignment > 0
    print(f"\nSCALE gaps n={PLANNER_SCALE_N}: {elapsed * 1e3:.0f} ms "
          f"(budget {GAP_BUDGET_S:.1f} s)")
    record("scale.gap_latency_1e5", elapsed, GAP_BUDGET_S,
           comparator="<=", unit="s")
    assert elapsed < GAP_BUDGET_S, (
        f"gap analysis took {elapsed:.2f}s at n={PLANNER_SCALE_N} "
        f"(budget {GAP_BUDGET_S}s)"
    )


def _corpus_with_term(n_materials: int) -> Repository:
    """``n_materials`` materials with 4 CS13 links each; every
    ``n / 25``-th one belongs to collection ``term``, so the term's
    materials and links are spread across the whole link table."""
    repo = Repository()
    seed_ontologies(repo)
    onto = repo.ontology("CS13")
    eids = [repo.entry_id(n.key) for n in onto.nodes()
            if n.kind in (NodeKind.TOPIC, NodeKind.LEARNING_OUTCOME)]
    stride = n_materials // SCOPED_COLLECTION_SIZE
    db = repo.db
    with db.transaction():
        for i in range(n_materials):
            mid = db.insert(
                "materials",
                title=f"material {i:05d}",
                collection="term" if i % stride == 0 else f"c{i % 40:02d}",
            )["id"]
            for j in range(4):
                db.insert(
                    "material_classifications",
                    materials_id=mid,
                    ontology_entries_id=eids[(i + j * 7) % len(eids)],
                )
    return repo


def test_scoped_coverage_is_independent_of_corpus_size():
    """GATE — uncached coverage of a 25-material collection costs at
    most 2× more at 10⁴ corpus materials than at 10³: the read touches
    the collection's rows, not the corpus (cache cleared every round;
    the two sizes alternate so host drift hits both alike)."""
    repos = [_corpus_with_term(size) for size in SCOPED_CORPUS_SIZES]

    def cold_coverage(repo):
        repo.cache.clear()
        return compute_coverage(repo, "CS13", collection="term")

    for repo in repos:
        report = cold_coverage(repo)
        assert report.n_materials == SCOPED_COLLECTION_SIZE
        assert len(report.covered_material_ids) == SCOPED_COLLECTION_SIZE
    costs = [float("inf")] * len(repos)
    for _ in range(30):
        for slot, repo in enumerate(repos):
            costs[slot] = min(costs[slot],
                              _best_of(lambda: cold_coverage(repo), rounds=1))
    small, big = costs
    growth = big / small
    print(f"\nSCALE scoped coverage ({SCOPED_COLLECTION_SIZE} materials): "
          f"{small * 1e3:.2f} ms at n={SCOPED_CORPUS_SIZES[0]}, "
          f"{big * 1e3:.2f} ms at n={SCOPED_CORPUS_SIZES[1]} "
          f"({growth:.2f}x, limit {SCOPED_GROWTH_LIMIT:.0f}x)")
    record("scale.scoped_coverage_growth_1e4", growth, SCOPED_GROWTH_LIMIT,
           comparator="<=", unit="x")
    assert growth <= SCOPED_GROWTH_LIMIT, (
        f"scoped coverage grew {growth:.1f}x from n={SCOPED_CORPUS_SIZES[0]}"
        f" to n={SCOPED_CORPUS_SIZES[1]} (limit {SCOPED_GROWTH_LIMIT}x)"
    )


def _hammer(url: str, clients: int, per_client: int) -> tuple[float, int]:
    """Fire ``clients × per_client`` GETs from concurrent threads;
    returns (elapsed seconds, completed-2xx count)."""
    done = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def worker(slot: int):
        barrier.wait()
        for _ in range(per_client):
            with urllib.request.urlopen(url, timeout=30) as response:
                if 200 <= response.status < 300:
                    done[slot] += 1

    threads = [
        threading.Thread(target=worker, args=(s,)) for s in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join(120)
    return time.perf_counter() - t0, sum(done)


@pytest.mark.parametrize("threaded", (False, True), ids=("serial", "threaded"))
def test_http_request_throughput(threaded):
    """SCALE — requests/second over real HTTP with concurrent clients.

    Documents what the ThreadingHTTPServer flip buys: N clients hitting
    a cached analytics endpoint, serial vs threaded accept loop."""
    repo = seed_all()
    with ApiServer(CarCsApi(repo), port=0, threaded=threaded) as srv:
        url = f"{srv.url}/api/v1/coverage?collection=itcs3145&ontology=PDC12"
        urllib.request.urlopen(url, timeout=30).read()  # warm the cache
        elapsed, completed = _hammer(
            url, HTTP_CLIENTS, HTTP_REQUESTS_PER_CLIENT
        )
    expected = HTTP_CLIENTS * HTTP_REQUESTS_PER_CLIENT
    assert completed == expected
    rate = completed / elapsed if elapsed else float("inf")
    mode = "threaded" if threaded else "serial"
    print(f"\nSCALE http throughput [{mode}] {HTTP_CLIENTS} clients: "
          f"{completed} requests in {elapsed:.2f} s -> {rate:,.0f} req/s")


def test_insert_throughput(benchmark):
    """Classified-material insert rate (the crowdsourcing write path)."""
    repo = Repository()
    seed_ontologies(repo)
    from repro.corpus.generator import generate_specs

    pairs = generate_specs(
        repo.ontology("CS13"), GeneratorConfig(n_materials=50)
    )

    counter = [0]

    def insert_batch():
        collection = f"batch{counter[0]}"
        counter[0] += 1
        for material, cs in pairs:
            from dataclasses import replace
            repo.add_material(
                replace(material,
                        title=f"{material.title} {collection}",
                        collection=collection),
                cs,
            )

    benchmark.pedantic(insert_batch, rounds=3, iterations=1)
    assert repo.material_count() >= 150

"""TIERED — bounded-memory opens and graceful overload shedding.

Two gates for the million-material scale-out
(docs/capacity.md, docs/architecture.md §Tiered storage):

**Gate A — bounded RSS.**  A blocked-checkpoint database synthesized
out of process (``carcs synth``) must open lazily: after the open plus
a point-read workload that strides across every region of the
keyspace, this process's RSS may grow by at most the block-cache
budget plus a fixed overhead allowance — independent of corpus size.
The default corpus is 10^5 materials; ``CARCS_SCALE=1`` reruns the
same gate at 10^6 (the opt-in ci.sh stage).

**Gate C — cold point reads decode one row.**  The same striding point
reads, each landing on a block that no earlier read decoded whole, may
decode at most ``ROWS_DECODED_PER_READ`` rows per read
(``storage_stats()["block_cache_rows_decoded"]``): a block is written
one row per line, so a cold probe decodes its row, not its 2048-row
block.

**Gate D — a cold sorted index builds in O(n log n).**  A lazily
opened table builds a declared sorted index on first use, over every
row.  Building one over 10^5 synthetic rows may cost at most
``SORTED_BUILD_RATIO`` times the build over 10^4 (best of 3 each, a
title-like and a year-like column): a sort build grows about 11-20x
here, one bisect insert per row about 45x.

**Gate B — load shedding.**  Under sustained overload (offered load
far above the admission rate limit) the API must absorb the excess as
structured 429s while the *served* requests keep their latency: served
p99 stays within budget and every shed answer carries ``Retry-After``.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from _results import record
from repro.core.repository import Repository
from repro.corpus.seed import seed_ontologies
from repro.db import Database, SortedIndex
from repro.obs.runtime import rss_bytes
from repro.web import CarCsApi, Client
from repro.web.middleware import CLIENT_HEADER

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Gate A sizing: cache budget the open is held to, plus a fixed
#: allowance for the interpreter, manifest, lazy pk maps and fixture
#: noise.  The allowance is deliberately generous — the point is that
#: it does NOT scale with the corpus (a 10^6 corpus is ~1.7 GB eager).
CACHE_BUDGET = 32 * 1024 * 1024
FIXED_OVERHEAD = 160 * 1024 * 1024
POINT_READS = 2_000

#: Gate C: rows a striding cold point read may decode (decoding whole
#: blocks would be about 50 per read at 10^5: 49 blocks of 2048 rows
#: over 2000 reads).
ROWS_DECODED_PER_READ = 2.0

#: Gate D: largest allowed cost of a 10^5-row sorted-index build over
#: a 10^4-row one.
SORTED_BUILD_RATIO = 30.0

#: Gate B sizing: offered load (4 workers going flat out, in-process)
#: exceeds 50 req/s by orders of magnitude, so most requests must shed.
RATE_LIMIT = 50.0
RATE_BURST = 25.0
WORKERS = 4
REQUESTS_PER_WORKER = 250
SERVED_P99_BUDGET_S = 0.100


def _synthesize(directory, n: int) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "synth", str(directory),
         "--n", str(n)],
        cwd=REPO_ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=1800,
    )


def _bounded_open(tmp_path, monkeypatch, n: int, gate: str,
                  decode_gate: str) -> None:
    _synthesize(tmp_path / "corpus", n)
    monkeypatch.setenv("CARCS_CACHE_BYTES", str(CACHE_BUDGET))
    gc.collect()
    before = rss_bytes()
    if before < 0:
        pytest.skip("RSS not measurable on this platform")
    db = Database.open(tmp_path / "corpus")
    materials = db.table("materials")
    stride = max(1, n // POINT_READS)
    reads = range(1, n + 1, stride)
    for pk in reads:
        assert materials.get(pk)["id"] == pk
    grown = rss_bytes() - before
    stats = db.storage_stats()
    budget = CACHE_BUDGET + FIXED_OVERHEAD
    print(f"\nTIERED gate A (n={n}): RSS +{grown / 1e6:.0f} MB "
          f"(budget {budget / 1e6:.0f} MB), "
          f"{stats['block_cache_misses']} block reads, "
          f"{stats['block_cache_evictions']} evictions, "
          f"cache {stats['block_cache_resident_bytes'] / 1e6:.1f} MB")
    record(gate, grown, budget, comparator="<=", unit="bytes")
    assert stats["block_cache_resident_bytes"] <= CACHE_BUDGET
    assert grown <= budget, (
        f"opening the {n}-material corpus grew RSS by "
        f"{grown / 1e6:.0f} MB; the lazy tier is budgeted "
        f"{budget / 1e6:.0f} MB"
    )
    per_read = stats["block_cache_rows_decoded"] / len(reads)
    print(f"TIERED gate C (n={n}): {per_read:.2f} rows decoded per cold "
          f"point read (budget {ROWS_DECODED_PER_READ:g})")
    record(decode_gate, per_read, ROWS_DECODED_PER_READ, comparator="<=",
           unit="rows")
    assert per_read <= ROWS_DECODED_PER_READ, (
        f"{len(reads)} striding point reads decoded "
        f"{stats['block_cache_rows_decoded']} rows; a cold probe should "
        f"decode its own row, not its block"
    )
    db.close()


def test_bounded_rss_open_at_1e5(tmp_path, monkeypatch):
    """GATES A and C — lazy open of a 10^5-material blocked checkpoint."""
    _bounded_open(tmp_path, monkeypatch, 100_000, "tiered.open_rss_1e5",
                  "tiered.rows_decoded_per_read_1e5")


def test_bounded_rss_open_at_1e6(tmp_path, monkeypatch):
    """GATES A and C (opt-in) — the same bounds hold at 10^6 materials."""
    if os.environ.get("CARCS_SCALE") != "1":
        pytest.skip("set CARCS_SCALE=1 to run (builds a 10^6-row corpus)")
    _bounded_open(tmp_path, monkeypatch, 1_000_000, "tiered.open_rss_1e6",
                  "tiered.rows_decoded_per_read_1e6")


def _synthetic_rows(n: int) -> dict[int, dict]:
    """``pk -> row`` in pk order: a title from random words (values
    land anywhere in the index) and a year with 10 values and Nones."""
    rng = random.Random(n)
    words = ["parallel", "sorting", "matrix", "cuda", "mpi", "openmp",
             "prefix", "scan", "hurricane", "storm", "cache", "lab"]
    return {
        pk: {"id": pk,
             "title": f"{rng.choice(words)} {rng.choice(words)} {pk}",
             "year": None if pk % 13 == 0 else 2010 + rng.randrange(10)}
        for pk in range(1, n + 1)
    }


def _best_build_s(rows: dict[int, dict]) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for column in ("title", "year"):
            SortedIndex.build(column, rows.items())
        best = min(best, time.perf_counter() - t0)
    return best


def test_sorted_index_build_scales_n_log_n():
    """GATE D — ten times the rows cost at most 30x the sorted build."""
    small = _best_build_s(_synthetic_rows(10_000))
    large = _best_build_s(_synthetic_rows(100_000))
    ratio = large / small
    print(f"\nTIERED gate D: sorted build {small * 1e3:.1f} ms at 1e4, "
          f"{large * 1e3:.1f} ms at 1e5: {ratio:.1f}x "
          f"(budget {SORTED_BUILD_RATIO:g}x)")
    record("tiered.sorted_build_ratio_1e5", ratio, SORTED_BUILD_RATIO,
           comparator="<=", unit="ratio")
    assert ratio <= SORTED_BUILD_RATIO, (
        f"a 10^5-row sorted-index build cost {ratio:.0f}x the 10^4-row "
        f"build; one sort per build grows about 11-20x"
    )


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def test_overload_sheds_while_served_p99_holds():
    """GATE — admission control absorbs a sustained overload."""
    repo = Repository()
    seed_ontologies(repo)
    api = CarCsApi(repo, rate_limit=RATE_LIMIT, rate_burst=RATE_BURST)
    served: list[float] = []
    shed: list[float] = []
    bad: list[int] = []
    lock = threading.Lock()
    barrier = threading.Barrier(WORKERS)

    def worker() -> None:
        client = Client(api, root="/api/v1")
        headers = {CLIENT_HEADER: "bench"}  # one shared bucket
        barrier.wait()
        for i in range(REQUESTS_PER_WORKER):
            path = "/stats" if i % 2 else "/ontologies"
            t0 = time.perf_counter()
            response = client.get(path, headers=headers)
            elapsed = time.perf_counter() - t0
            with lock:
                if response.status == 200:
                    served.append(elapsed)
                elif (response.status == 429
                      and response.headers.get("retry-after")):
                    shed.append(elapsed)
                else:
                    bad.append(response.status)

    threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    window = time.perf_counter() - t0

    total = WORKERS * REQUESTS_PER_WORKER
    shed_rate = len(shed) / total
    p99 = _percentile(served, 0.99)
    print(f"\nTIERED gate B: {total} requests in {window:.2f}s "
          f"(offered {total / window:,.0f} req/s, limit {RATE_LIMIT:.0f})")
    print(f"  served {len(served)} (p99 {p99 * 1e3:.2f} ms, "
          f"budget {SERVED_P99_BUDGET_S * 1e3:.0f} ms)   "
          f"shed {len(shed)} ({shed_rate:.0%})   other {bad[:5]}")
    record("tiered.shed_served_p99_s", p99, SERVED_P99_BUDGET_S,
           comparator="<=", unit="s")
    record("tiered.shed_rate_under_overload", shed_rate, 0.5, unit="fraction")
    assert not bad, f"unexpected statuses under overload: {bad[:5]}"
    assert len(served) >= RATE_BURST, "admission starved the workload"
    assert shed_rate >= 0.5, (
        f"offered load should overwhelm the {RATE_LIMIT:.0f}/s limit, "
        f"but only {shed_rate:.0%} was shed"
    )
    assert p99 <= SERVED_P99_BUDGET_S, (
        f"served p99 {p99 * 1e3:.1f} ms blew the "
        f"{SERVED_P99_BUDGET_S * 1e3:.0f} ms budget under overload"
    )

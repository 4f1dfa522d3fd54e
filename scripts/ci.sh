#!/usr/bin/env bash
# Tier-1 gate: byte-compile everything, then run the unit/integration
# suite.  Benchmarks are excluded (run them with `pytest benchmarks/`).
set -euo pipefail

cd "$(dirname "$0")/.."

# Every benchmark gate below records its measured value + threshold
# into this machine-readable artifact (see benchmarks/_results.py).
export CARCS_BENCH_RESULTS="${CARCS_BENCH_RESULTS:-BENCH_results.json}"
rm -f "$CARCS_BENCH_RESULTS"

python -m compileall -q src
# The suite includes the dead-code gate (tests/test_dead_code.py): every
# function, method and class in src/ must be named by program code, and
# a method counts as named only through an attribute, an import alias or
# a string literal, never a bare local name.  tests/db/test_snapshot.py
# holds the writer/pinned read oracle: inside every transaction, after
# its first writes, a caught savepoint and just before exit, each read
# through the writer's table handle equals, in the same order, the same
# read on a pin of a mirror database that made those writes one
# committed statement at a time;
# and TestIndexInheritanceCost::test_job_queue_reads_scan_no_rows, which
# fails when a job queue's writer or pinned reads scan rows after
# warm-up; next to it, tests/jobs/test_queue.py::
# test_idle_lease_takes_no_write_lock fails when a lease or run_pending
# on a drained queue acquires the write lock.  The lean response path: tests/web/test_response_path.py
# counts one JSON encode and one sendall per response over a real
# socket, and tests/web/test_header_parsing.py checks the server's
# header reader against http.client.parse_headers, row by row.
PYTHONPATH=src python -m pytest -x -q tests/

# Paper stage: the benchmarks that reproduce the paper's figures, use
# cases and ablations assert its numbers (Figure 2's area ranking,
# Figure 3's isolated materials and cluster, UC-C's gap counts); run
# them as plain tests, without timing.
PYTHONPATH=src python -m pytest -q --benchmark-disable \
    benchmarks/bench_figure2_coverage.py \
    benchmarks/bench_figure3_similarity.py \
    benchmarks/bench_corpus_stats.py \
    benchmarks/bench_usecase_coverage.py \
    benchmarks/bench_usecase_gaps.py \
    benchmarks/bench_ablation_threshold.py \
    benchmarks/bench_recommend.py \
    benchmarks/bench_crowdsim.py \
    benchmarks/bench_extensions.py \
    benchmarks/bench_api.py

# Multi-process e2e: real `carcs serve` primary/replica/router
# processes over loopback — replication, plus one trace id covering
# router -> primary -> job worker (skipped by default; CI opts in).
CARCS_MULTIPROC=1 PYTHONPATH=src python -m pytest -q \
    tests/replication/test_multiprocess.py tests/web/test_multiproc_trace.py

# Docs gate: the generated API reference must match the live route
# table, every relative doc link must resolve, and the runnable
# examples in docs/db-internals.md must execute against the real
# engine API (drift fails the build).
PYTHONPATH=src python scripts/gen_api_docs.py --check
python scripts/check_doc_links.py
PYTHONPATH=src python scripts/check_doc_snippets.py

# Observability gate: sampled tracing must stay within its 10%
# warm-path overhead budget, single-node and with trace-context
# propagation on a router->primary proxied request
# (docs/architecture.md, "Observability").
PYTHONPATH=src python -m pytest -q benchmarks/bench_obs.py

# Storage gate: pinned MVCC reads must beat a per-request read lock
# (the engine's former reader-writer lock, kept in the benchmark) >= 2x
# under a durable writer, and batch-mode WAL ingest must stay within
# 30% of in-memory, measured in interleaved best-of-7 pairs
# (docs/architecture.md, "Storage & durability").
PYTHONPATH=src python -m pytest -q benchmarks/bench_storage.py

# Jobs gate: enqueue-to-suggestion throughput of the classification
# queue must stay above its floor at a 10^3-material backlog, and on its
# 400-material training set absorbing one editor accept into the model
# must cost at most 1/3 of a cold fit, measured in interleaved best-of-7
# pairs (docs/architecture.md, "Jobs").
PYTHONPATH=src python -m pytest -q benchmarks/bench_jobs.py

# Planner gate: at 10^5 materials a planner-chosen indexed
# equality+order query must beat the naive full-scan interpretation
# >= 10x, and the coverage/gap analytics must stay within their latency
# budgets (docs/architecture.md, "Query planning").
PYTHONPATH=src python -m pytest -q benchmarks/bench_scale.py -k "at_1e5"

# Scoped-read gate: uncached coverage of a 25-material collection must
# cost at most 2x more in a 10^4-material corpus than in a 10^3 one
# (docs/architecture.md, "Cache & version invalidation").
PYTHONPATH=src python -m pytest -q benchmarks/bench_scale.py \
    -k "scoped_coverage_is_independent_of_corpus_size"

# Search gate: at 10^4 materials, absorbing one PATCH through the
# change journal must cost at most 1/10 of a full BM25 index rebuild
# (docs/architecture.md, "Search index lifecycle").
PYTHONPATH=src python -m pytest -q benchmarks/bench_search.py \
    -k "single_doc_update_beats_full_rebuild"

# Replication gate: read fan-out across replicas must scale >= 3x with
# 4 replicas on >= 4 usable CPUs (no-collapse floor on smaller hosts),
# and replica staleness must stay bounded under sustained writes
# (docs/architecture.md, "Replication").
PYTHONPATH=src python -m pytest -q benchmarks/bench_replication.py

# Tiered-storage gate: a 10^5-material blocked checkpoint (synthesized
# out of process by `carcs synth`) must open lazily with RSS growth
# bounded by the block-cache budget + fixed overhead, its striding cold
# point reads must decode about one row each, not a block, a sorted
# index over 10^5 rows must build in at most 30x the 10^4-row time
# (gate D: one sort, not one insert per row), and sustained overload
# must be absorbed as 429s while served p99 stays in budget
# (docs/capacity.md).
PYTHONPATH=src python -m pytest -q benchmarks/bench_tiered.py

# Opt-in scale stage (CARCS_SCALE=1): the same bounded-RSS gate at
# 10^6 materials, plus the slow/scale-marked test tiers — minutes of
# wall clock and gigabytes of disk, so nightly CI flips the flag.
if [ "${CARCS_SCALE:-0}" = "1" ]; then
    CARCS_SLOW=1 CARCS_SCALE=1 PYTHONPATH=src python -m pytest -q \
        -m "slow or scale" tests/
    CARCS_SCALE=1 PYTHONPATH=src python -m pytest -q \
        benchmarks/bench_tiered.py -k "1e6"
fi

"""The benchmark's own tests: per-layer counts repeat exactly for a seed,
seeds change the op sequence, and the traced run accounts for op time.

Run from the root of a source checkout (takes about three minutes)::

    python3 -m pytest perfbench/test_counts.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402

#: Short runs that still reach the mechanism each workload exists to
#: load: analytics-cache hits (browse), a checkpoint (curate), block
#: evictions (catalog), a retrain (classify: one accept per 33 ops).
SHORT_OPS = {"browse": 400, "curate": 1200, "catalog": 3000, "classify": 40}
MECHANISM = {"browse": "cache_hits", "curate": "checkpoints",
             "catalog": "block_evictions", "classify": "retrains"}

#: Program counters a later change may claim, as deltas over the op loop.
COUNTS = (
    "cache_hits", "cache_misses", "cache_invalidations", "cache_bypasses",
    "block_misses", "block_evictions", "wal_appends", "wal_fsyncs",
    "checkpoints", "docs_reindexed",
)

#: The traced run's layer self times must cover at least this share of
#: op wall time; the rest is the client's glue between calls.
ATTRIBUTED_SHARE = 0.90


def _counts(result: dict) -> dict[str, float]:
    out = {key: result["counts"][key] for key in COUNTS}
    if "layers" in result:
        out["retrains"] = result["layers"]["jobs.classify.retrains"]
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    seed = run.input_seed(workload, 7)
    first = run.measure(workload, seed, SHORT_OPS[workload], True)
    second = run.measure(workload, seed, SHORT_OPS[workload], True)
    for result in first + second:
        assert result["failed"] == 0, result["errors"]
    plain, traced = first
    # Tracing wraps calls but must not change what the program does.
    assert {k: plain["counts"][k] for k in COUNTS} == {
        k: traced["counts"][k] for k in COUNTS}
    counts = _counts(traced)
    assert counts == _counts(second[1])
    assert counts[MECHANISM[workload]] >= 1
    assert traced["layers"]["harness.attributed_share"] >= ATTRIBUTED_SHARE


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_the_op_sequence(workload):
    import importlib
    import shutil

    module = importlib.import_module(workload)
    workdir = run.ROOT / ".perfbench" / f"test-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "db").mkdir(parents=True)
    (workdir / "keys.json").write_text(json.dumps(
        [f"CS13/key-{i}" for i in range(50)]))
    try:
        ops = [
            module.make_inputs(run.input_seed(workload, seed), 300,
                               workdir)["ops"]
            for seed in (1, 1, 2)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert ops[0] == ops[1]
    assert ops[0] != ops[2]

"""The workload process: one fresh interpreter per measured run.

``run.py`` starts it as::

    python3 perfbench/child.py <workload> <seed> <n_ops> <trace 0|1> <workdir>

and, for workloads whose inputs are large, first as::

    python3 perfbench/child.py prepare <workload> <seed> <workdir>

A measuring run generates the (small) inputs, sets the program up the
workload's ``SETUP_REPEATS`` times (timing each, after a
``gc.collect()``), computes the reference outputs, drives the fixed op
sequence and prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402

PROGRAM_MODULES = sorted(
    {module for module, *_ in layers.INSTRUMENTS}
    | {"repro.web", "repro.web.server", "repro.corpus.seed"})


def measure(name: str, seed: int, n_ops: int, trace: bool,
            workdir: Path) -> dict:
    wl = importlib.import_module(name)
    inputs = wl.make_inputs(seed, n_ops, workdir)
    # Set-up time excludes imports: the program's modules load first.
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    log = harness.SpanLog() if trace else None
    if log is not None:
        layers.install(log)
    setups = []
    raw_setups = []
    state = None
    for _ in range(wl.SETUP_REPEATS):
        if state is not None:
            wl.teardown(state)
            state = None
        gc.collect()
        state, seconds, raw = harness.timed_setup(
            wl.setup(inputs, log), wl.SPEED_SENSITIVITY)
        setups.append(seconds)
        raw_setups.append(raw)
    try:
        ref = wl.reference(state, inputs)
        before = wl.counters(state)
        result = harness.run_ops(wl, state, ref, inputs["ops"], log)
        counts = layers.counter_deltas(before, wl.counters(state))
        extra = wl.extra(state, inputs)
    finally:
        wl.teardown(state)
    completed = result.attempted - result.failed
    out = {
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "setup_s": statistics.median(setups),
        "raw_setup_s": statistics.median(raw_setups),
        "wall_s": result.wall,
        "raw_wall_s": result.raw_wall,
        "speed_factor": result.factor,
        "throughput_ops": completed / result.wall,
        "latency_p50_ms": harness.percentile(result.latencies, 50) * 1e3,
        "latency_p90_ms": harness.percentile(result.latencies, 90) * 1e3,
        "rss_peak_mib": harness.rss_peak_mib(),
        "counts": counts,
        "by_kind": result.by_kind(inputs["ops"]),
    }
    if log is not None:
        out["layers"] = layers.layer_metrics(log, result.attempted, counts,
                                             extra, result.factor)
    return out


def main(argv: list[str]) -> int:
    if argv[0] == "prepare":
        # Large inputs are built here, out of the measured process, so
        # they set neither its peak RSS nor its heap layout.
        _, name, seed, workdir = argv
        importlib.import_module(name).prepare(int(seed), Path(workdir))
        return 0
    name, seed, n_ops, trace, workdir = argv
    # One CPU for the whole process, before any thread starts: its
    # threads take turns on the GIL anyway, and on a virtual machine a
    # hand-off to an idle vCPU waits until the hypervisor runs it. Runs
    # without the pin saw browse's p90 double for minutes at a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out = measure(name, int(seed), int(n_ops), trace == "1", Path(workdir))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""CAR-CS benchmark: four closed-loop, single-client workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``browse``, ``curate``, ``catalog`` and
``classify`` (see ``perfbench/WORKLOADS.md``). ``--seed`` fixes the
generated inputs. ``--seconds`` fixes the op count: every run executes
the same seeded op sequence of ``OPS_PER_SECOND * seconds`` ops, so two
runs do identical work whatever the host's speed. ``--trace 0`` prints
the end-to-end metrics of one untraced run; ``--trace 1`` prints the
per-layer metrics of a separate traced run, plus its overhead against an
untraced run.

Each measured run is a fresh interpreter (``child.py``) with a fixed
environment. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("browse", "curate", "catalog", "classify")

#: The fixed environment of every workload process: the program's
#: shipped defaults (tracer, admission, caches, 64 MiB block cache) with
#: any ``CARCS_*`` override of the caller removed, batched WAL fsyncs,
#: single-threaded BLAS and deterministic string hashing.
FIXED_ENV = {
    "CARCS_WAL_SYNC": "batch",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "rss_peak_mib": "MiB",
}

#: The whole run, set-up and any traced pass included, must end within
#: this many seconds.
BUDGET_S = 170.0


class RunFailed(RuntimeError):
    pass


def input_seed(workload: str, seed: int) -> int:
    """The seed the workload's input generators see."""
    return zlib.crc32(f"{workload}:{seed}".encode()) & 0x7FFFFFFF


def _env(extra: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CARCS_")}
    env.update(FIXED_ENV)
    env.update(extra)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list[str], env: dict[str, str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("time budget exhausted")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"child {args[:2]} timed out") from None
    if proc.returncode != 0:
        raise RunFailed(f"child {args[:2]} exited {proc.returncode}")
    return stdout


def _measure(workload: str, seed: int, n_ops: int, trace: bool,
             workdir: Path, env: dict[str, str], deadline: float) -> dict:
    stdout = _child(
        [workload, str(seed), str(n_ops), "1" if trace else "0",
         str(workdir)], env, deadline)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{workload} printed no result")
    result = json.loads(lines[-1])
    for error in result["errors"]:
        print(f"perfbench: {workload}: {error}", file=sys.stderr)
    return result


def measure(workload: str, seed: int, n_ops: int, trace: bool) -> list[dict]:
    """Build the inputs and run ``n_ops`` ops of ``workload`` in a fresh
    process; with ``trace``, again in a second, traced process. Returns
    the processes' results, untraced first."""
    import importlib

    module = importlib.import_module(workload)
    env = _env(getattr(module, "ENV", {}))
    deadline = time.monotonic() + BUDGET_S
    workdir = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if hasattr(module, "prepare"):
            _child(["prepare", workload, str(seed), str(workdir)], env,
                   deadline)
        runs = [_measure(workload, seed, n_ops, False, workdir, env,
                         deadline)]
        if trace:
            runs.append(_measure(workload, seed, n_ops, True, workdir, env,
                                 deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return runs


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import importlib

    n_ops = max(1, round(
        importlib.import_module(workload).OPS_PER_SECOND * seconds))
    runs = measure(workload, input_seed(workload, seed), n_ops, trace)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if trace:
        from layers import units

        plain, traced = runs
        values = dict(traced["layers"])
        values["harness.trace_overhead"] = (
            traced["throughput_ops"] / plain["throughput_ops"])
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in units().items()
        }
    else:
        metrics = {
            name: {"value": runs[0][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared machinery of the workload process: the op loop, latency
statistics and the in-memory span log that gives per-layer self times.

Every workload module exposes the same functions::

    make_inputs(seed, n_ops, workdir) -> inputs   # pure input generation
    setup(inputs, log) -> generator               # the program's set-up
    reference(state, inputs) -> ref               # expected outputs
    run_op(state, op) -> output                   # one closed-loop op
    verify(state, ref, op, output) -> bool        # output correctness
    teardown(state)                               # stop what setup started
    counters(state) -> dict[str, float]           # public program counters
    extra(state, inputs) -> dict[str, float]      # what only it knows

plus ``OPS_PER_SECOND`` (how many ops one second of ``--seconds``
buys) and ``SETUP_REPEATS`` (how many times a run sets the program up;
the median is reported, since one-shot set-up timings swing widely on a
shared host). ``setup`` yields between its phases and returns the ready
state (see :func:`timed_setup`); a workload whose inputs are too large
to build in the measured process also has ``prepare(seed, workdir)``.
"""

from __future__ import annotations

import functools
import gc
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable


def op_kinds(rng: random.Random, mix: tuple[tuple[str, float], ...],
             n: int) -> list[str]:
    """``n`` op kinds in random order, each kind exactly its share of
    ``n`` (largest remainders round). Sampling kinds independently would
    let the count of a rare, expensive kind, and so the run's total
    work, vary by several percent between seeds."""
    counts = {kind: int(share * n) for kind, share in mix}
    by_remainder = sorted(mix, key=lambda ks: ks[1] * n - int(ks[1] * n),
                          reverse=True)
    for kind, _ in by_remainder[:n - sum(counts.values())]:
        counts[kind] += 1
    kinds = [kind for kind, _ in mix for _ in range(counts[kind])]
    rng.shuffle(kinds)
    return kinds


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99), linearly interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rss_peak_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpanLog:
    """Spans recorded around calls into the program's public functions.

    A span is ``(name, layer, start, end, parent index, op index)``.
    Spans nest through a per-thread stack; a span opened on a thread
    whose stack is empty (the HTTP server's handler thread) is parented
    to :attr:`cross_parent`, the client-side request span that is open
    while the closed-loop client waits for its reply.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.active = False
        self.op = -1
        self.cross_parent: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self.cross_parent
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        return stack, idx, parent

    def _close(self, stack: list[int], idx: int, parent: int | None,
               name: str, layer: str, start: float) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans[idx] = (name, layer, start, end, parent, self.op)

    @contextmanager
    def span(self, name: str, layer: str, *, cross: bool = False):
        """Record one span; ``cross`` makes it the parent of spans that
        other threads open while it is open."""
        if not self.active:
            yield
            return
        stack, idx, parent = self._open()
        if cross:
            self.cross_parent = idx
        start = time.perf_counter()
        try:
            yield
        finally:
            if cross:
                self.cross_parent = None
            self._close(stack, idx, parent, name, layer, start)

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` recording a span per call while the log is active."""
        log = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not log.active:
                return fn(*args, **kwargs)
            stack, idx, parent = log._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                log._close(stack, idx, parent, name, layer, start)

        return traced

    def wrap_context(self, fn: Callable, name: str, layer: str) -> Callable:
        """Like :meth:`wrap` for a function returning a context manager:
        the span runs from ``__enter__`` to ``__exit__``."""
        log = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            manager = fn(*args, **kwargs)
            if not log.active:
                return manager
            return _chain(log.span(name, layer), manager)

        return traced


@contextmanager
def _chain(outer, inner):
    with outer, inner as value:
        yield value


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the durations of its children."""
    out = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def speed_probe() -> float:
    """Seconds one fixed unit of pure-Python work takes right now.

    A shared host's core speed swings by up to 2x within tens of
    milliseconds and drifts over minutes (other tenants share the
    cores), far more than any change worth measuring. Every time metric
    is therefore scaled to a reference core by :func:`speed_scale`,
    with probes run next to the work they scale.
    """
    t0 = time.perf_counter()
    table: dict[str, int] = {}
    acc = 0
    for i in range(5_000):
        key = f"k{i % 997}"
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
    sorted(table.values(), reverse=True)
    return time.perf_counter() - t0


#: The probe's time on a 2-vCPU x86-64 host in its fast periods, so
#: scaled figures read close to wall-clock figures there.
REFERENCE_PROBE_S = 0.0015

#: Speed probes per run of the op loop (one at every segment boundary).
#: The host's speed decorrelates within ~35 ms, so the scale's error
#: falls with the number of probes, not with their length.
SEGMENTS = 200


def speed_scale(before: float, after: float, sensitivity: float) -> float:
    """The factor that scales work timed between two probes to the
    reference core. ``sensitivity`` is how strongly the workload's own
    speed follows the probe's: the exponent of a log-log fit of its raw
    throughput on ``REFERENCE_PROBE_S / probe`` across runs. Work that
    waits on sockets and thread hand-offs or runs in NumPy slows less
    than the pure-Python probe does."""
    return (2 * REFERENCE_PROBE_S / (before + after)) ** sensitivity


def timed_setup(phases, sensitivity: float) -> tuple[Any, float, float]:
    """Run a workload's set-up, a generator that yields between phases
    and returns the ready state; returns (state, scaled seconds, raw
    seconds). A speed probe runs at every phase boundary and scales the
    phase between two probes, as the op loop scales its segments."""
    scaled = raw = 0.0
    before = speed_probe()
    while True:
        t0 = time.perf_counter()
        try:
            next(phases)
        except StopIteration as stop:
            state, done = stop.value, True
        else:
            done = False
        seconds = time.perf_counter() - t0
        after = speed_probe()
        raw += seconds
        scaled += seconds * speed_scale(before, after, sensitivity)
        before = after
        if done:
            return state, scaled, raw


class OpResult:
    """Outcome of the timed op loop.

    ``latencies`` and ``wall`` are scaled to the reference core (see
    :func:`speed_scale`); ``raw_wall`` is the unscaled wall time and
    ``factor`` the run's overall scale.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.wall = 0.0
        self.raw_wall = 0.0
        self.factor = 1.0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def by_kind(self, ops: list) -> dict[str, dict[str, float]]:
        """Share, p50 and p90 (ms) of each op kind: where the whole
        run's percentiles sit relative to the op classes."""
        groups: dict[str, list[float]] = {}
        for op, latency in zip(ops, self.latencies):
            groups.setdefault(op[0], []).append(latency)
        return {
            kind: {
                "share": len(lats) / len(self.latencies),
                "p50_ms": percentile(lats, 50) * 1e3,
                "p90_ms": percentile(lats, 90) * 1e3,
            }
            for kind, lats in sorted(groups.items())
        }


def run_ops(wl, state, ref, ops: list, log: SpanLog | None) -> OpResult:
    """Drive ``ops`` closed-loop through ``wl.run_op``.

    The ops run in ``SEGMENTS`` consecutive segments with a speed probe
    at every boundary; a segment's times are scaled by the mean of its
    two probes (see :func:`speed_scale`). Verification and probes run
    between ops and are excluded from the measured time, so
    ``throughput_ops`` is the program's rate, not the checker's. A
    failed op counts at the run's whole wall time, so it misses any
    latency limit.
    """
    result = OpResult()
    size = -(-len(ops) // SEGMENTS)
    probes: list[float] = []
    seg_walls: list[float] = []
    raw: list[float] = []
    failed: list[bool] = []
    gc.collect()
    for first in range(0, len(ops), size):
        probes.append(speed_probe())
        seg_wall = 0.0
        for index in range(first, min(first + size, len(ops))):
            op = ops[index]
            latency, ok = _one_op(wl, state, ref, index, op, log, result)
            seg_wall += latency
            raw.append(latency)
            failed.append(not ok)
        seg_walls.append(seg_wall)
    probes.append(speed_probe())
    factors = [
        speed_scale(probes[i], probes[i + 1], wl.SPEED_SENSITIVITY)
        for i in range(len(seg_walls))
    ]
    result.raw_wall = sum(seg_walls)
    result.wall = sum(w * f for w, f in zip(seg_walls, factors))
    result.factor = result.wall / result.raw_wall
    result.failed = sum(failed)
    result.latencies = [
        result.wall if bad else latency * factors[i // size]
        for i, (latency, bad) in enumerate(zip(raw, failed))
    ]
    return result


def _one_op(wl, state, ref, index: int, op: tuple, log: SpanLog | None,
            result: OpResult) -> tuple[float, bool]:
    """Run and then verify one op; returns (seconds, verified)."""
    if log is not None:
        log.op = index
        log.active = True
    t0 = time.perf_counter()
    try:
        if log is not None:
            with log.span("op", "harness"):
                output = wl.run_op(state, op)
        else:
            output = wl.run_op(state, op)
    except Exception as exc:  # noqa: BLE001 — a failed op is counted
        latency = time.perf_counter() - t0
        if log is not None:
            log.active = False
        _note(result, f"op {index} {op[0]}: {exc!r}")
        return latency, False
    latency = time.perf_counter() - t0
    if log is not None:
        log.active = False
    try:
        ok = bool(wl.verify(state, ref, op, output))
    except Exception as exc:  # noqa: BLE001 — verification failure
        _note(result, f"op {index} {op[0]} verify: {exc!r}")
        return latency, False
    if not ok:
        _note(result, f"op {index} {op[0]}: wrong output")
    return latency, ok


def _note(result: OpResult, message: str) -> None:
    if len(result.errors) < 5:
        result.errors.append(message)

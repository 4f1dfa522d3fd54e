"""Workers: threads that lease, execute and finish queued jobs.

A :class:`Worker` loops ``lease -> handler -> complete/fail``; a
:class:`WorkerPool` runs N of them over one shared handler registry.
Handlers are plain callables ``(JobContext) -> result``; the context
carries the decoded payload and a :meth:`JobContext.heartbeat` hook
long-running handlers call between batches so their lease outlives the
visibility timeout.

Failure taxonomy:

* an ordinary exception fails the attempt *retryably* — the job goes
  back to the queue with exponential backoff until ``max_attempts``;
* :class:`FatalJobError` (or an unknown job kind) dead-letters
  immediately — retrying cannot help;
* :class:`~repro.jobs.queue.StaleLease` means another worker owns the
  job now (this worker stalled past its visibility timeout) — the
  result is dropped on the floor, which is safe because handlers are
  required to be idempotent per job.

Every run is wrapped in a ``job.run`` trace span and lands in the
``carcs_job_seconds`` histogram / ``carcs_jobs_total`` counters when a
metrics registry is attached.  With a :class:`~repro.obs.Tracer`
attached, ``job.run`` opens as the *root of its own trace segment*
using the trace context the enqueuing request persisted in the job row
— so the asynchronous leg of a classify request carries the request's
trace id and stitches under its enqueue span in the fleet-wide view.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Callable, Mapping

from repro.obs import MetricsRegistry, Tracer
from repro.obs import trace as _trace

from .queue import JobQueue, StaleLease


class FatalJobError(RuntimeError):
    """Raise from a handler to dead-letter the job without retries."""


class JobContext:
    """What a handler sees: the job row, its payload, and a heartbeat."""

    def __init__(self, queue: JobQueue, job: dict[str, Any],
                 worker_id: str) -> None:
        self.queue = queue
        self.job = job
        self.worker_id = worker_id

    @property
    def payload(self) -> dict[str, Any]:
        return self.job["payload"]

    def heartbeat(self) -> None:
        """Extend the lease; call between batches of a long job.
        Raises :class:`StaleLease` when the lease was lost — the
        handler should abort, another worker owns the job now."""
        self.queue.heartbeat(self.job["id"], self.worker_id)


Handler = Callable[[JobContext], Any]


class Worker(threading.Thread):
    """One lease-execute-finish loop on its own thread."""

    def __init__(
        self,
        queue: JobQueue,
        handlers: Mapping[str, Handler],
        *,
        worker_id: str,
        poll_interval: float = 0.05,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(name=f"carcs-worker-{worker_id}", daemon=True)
        self.queue = queue
        self.handlers = handlers
        self.worker_id = worker_id
        self.poll_interval = poll_interval
        self.metrics = metrics
        self.tracer = tracer
        self.jobs_run = 0
        self._stop_event = threading.Event()

    def _job_span(self, job: dict[str, Any]):
        """The ``job.run`` span: a root in the enqueuing request's trace
        when a tracer is attached (worker threads have no ambient trace
        to hang a child under), else a plain child span."""
        attrs = dict(
            kind=job["kind"], job=job["id"], attempt=job["attempts"],
            worker=self.worker_id,
        )
        if self.tracer is None:
            return _trace.span("job.run", **attrs)
        return self.tracer.adopt("job.run", job.get("trace_context"), **attrs)

    def stop(self) -> None:
        self._stop_event.set()

    def run(self) -> None:
        while not self._stop_event.is_set():
            job = self.queue.lease(self.worker_id)
            if job is None:
                self._stop_event.wait(self.poll_interval)
                continue
            self.run_job(job)

    def run_job(self, job: dict[str, Any]) -> str:
        """Execute one leased job; returns the outcome label."""
        start = time.perf_counter()
        outcome = "done"
        with self._job_span(job) as span_:
            try:
                handler = self.handlers.get(job["kind"])
                if handler is None:
                    raise FatalJobError(f"no handler for kind {job['kind']!r}")
                result = handler(JobContext(self.queue, job, self.worker_id))
                self.queue.complete(job["id"], self.worker_id, result)
            except StaleLease:
                # Another worker owns the job now; idempotent handlers
                # make dropping this attempt safe.
                outcome = "stale"
            except FatalJobError as exc:
                outcome = "dead"
                span_.mark_error(f"FatalJobError: {exc}")
                self._fail(job, str(exc), retryable=False)
            except Exception as exc:  # noqa: BLE001 — the retry boundary
                outcome = "retry"
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                span_.mark_error(detail)
                self._fail(job, detail, retryable=True)
            span_.set(outcome=outcome)
        self.jobs_run += 1
        if self.metrics is not None:
            self.metrics.histogram(
                "carcs_job_seconds", kind=job["kind"],
            ).observe(time.perf_counter() - start)
            self.metrics.counter(
                "carcs_jobs_total", kind=job["kind"], outcome=outcome,
            ).inc()
        return outcome

    def _fail(self, job: dict[str, Any], error: str,
              *, retryable: bool) -> None:
        try:
            self.queue.fail(
                job["id"], self.worker_id, error, retryable=retryable
            )
        except StaleLease:
            pass


class WorkerPool:
    """N workers over one queue and handler registry."""

    def __init__(
        self,
        queue: JobQueue,
        handlers: Mapping[str, Handler],
        *,
        size: int = 2,
        poll_interval: float = 0.05,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        name: str = "pool",
    ) -> None:
        self.queue = queue
        self.workers = [
            Worker(
                queue, handlers,
                worker_id=f"{name}-{i}",
                poll_interval=poll_interval,
                metrics=metrics,
                tracer=tracer,
            )
            for i in range(size)
        ]

    def start(self) -> "WorkerPool":
        for worker in self.workers:
            worker.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        for worker in self.workers:
            worker.stop()
        for worker in self.workers:
            worker.join(timeout)

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until no job is queued or leased (or ``timeout``)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.queue.pending() == 0:
                return True
            time.sleep(0.01)
        return self.queue.pending() == 0


def run_pending(
    queue: JobQueue,
    handlers: Mapping[str, Handler],
    *,
    worker_id: str = "inline",
    max_jobs: int | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> int:
    """Synchronously drain runnable jobs in the calling thread.

    The deterministic single-threaded form of a worker loop — tests,
    the CLI's ``carcs jobs --drain``, and benchmarks use it when thread
    scheduling would only add noise.  Returns the number of jobs run.
    """
    worker = Worker(queue, handlers, worker_id=worker_id, metrics=metrics,
                    tracer=tracer)
    run = 0
    while max_jobs is None or run < max_jobs:
        job = queue.lease(worker_id)
        if job is None:
            break
        worker.run_job(job)
        run += 1
    return run

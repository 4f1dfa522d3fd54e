"""A durable job queue persisted through the relational engine.

Job state lives in a ``_jobs`` system table written via the normal
commit path, so it inherits every durability property the engine
already guarantees: each state transition is one WAL record, jobs
survive crashes and replay on :meth:`repro.db.Database.open`, and they
replicate to read replicas through the same frame stream as any other
table — no second persistence mechanism to keep honest.

Semantics follow the classic lease model:

* :meth:`JobQueue.enqueue` files a job (``queued``), optionally
  deduplicated by an idempotency key and bounded by ``max_queued``
  (the web layer turns :class:`QueueFull` into a 429).
* :meth:`JobQueue.lease` hands the oldest runnable job to a worker and
  starts its *visibility timeout*: a worker that dies silently simply
  stops heartbeating, and once the deadline passes the job is leased
  out again.  Each lease counts one attempt.
* :meth:`JobQueue.heartbeat` extends the deadline of a long-running
  job; :meth:`JobQueue.complete` / :meth:`JobQueue.fail` finish the
  attempt.  Retryable failures go back to ``queued`` with exponential
  backoff until ``max_attempts``; then the job parks in the ``dead``
  state for inspection.
* Every owner-asserting call fences on ``(job id, worker id)``: a
  zombie worker whose lease expired and was re-issued gets
  :class:`StaleLease` instead of clobbering the new owner's run.

The clock is injectable so tests drive visibility timeouts and backoff
deterministically.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from repro.db import Column, Database, TableSchema
from repro.db import query as db_query
from repro.obs import trace as _trace

#: Name of the system table.  The leading underscore keeps it visually
#: apart from the CAR-CS data model; the search index ignores it (see
#: ``repro.core.search._IRRELEVANT_TABLES``).
JOBS_TABLE = "_jobs"

QUEUED = "queued"
LEASED = "leased"
DONE = "done"
DEAD = "dead"

STATES = (QUEUED, LEASED, DONE, DEAD)


class QueueFull(RuntimeError):
    """``enqueue`` refused: the backlog is at ``max_queued``."""


class StaleLease(RuntimeError):
    """The caller no longer owns the job (lease expired and was
    re-issued, or the job already finished)."""


def _jobs_schema() -> TableSchema:
    return TableSchema(
        JOBS_TABLE,
        columns=(
            Column("id", int),
            Column("kind", str),
            Column("payload", str, default="{}"),
            Column("status", str, default=QUEUED),
            Column("attempts", int, default=0),
            Column("max_attempts", int, default=3),
            Column("not_before", float, default=0.0),
            Column("lease_owner", str, nullable=True, default=None),
            Column("lease_deadline", float, nullable=True, default=None),
            Column("idempotency_key", str, nullable=True, default=None),
            # traceparent of the enqueuing request: the worker opens its
            # job.run root from it, so the async leg of a request shares
            # the request's trace id (see repro.obs.trace).
            Column("trace_context", str, nullable=True, default=None),
            Column("result", str, nullable=True, default=None),
            Column("error", str, default=""),
            Column("enqueued_at", float, default=0.0),
            Column("updated_at", float, default=0.0),
        ),
    )


class JobQueue:
    """Durable lease-based job queue over the ``_jobs`` system table.

    Parameters
    ----------
    db:
        The database the jobs live in (usually ``repo.db``).
    clock:
        Source of "now" (seconds).  Injectable for deterministic
        visibility-timeout and backoff tests.
    visibility_timeout:
        Seconds a leased job stays invisible before it is considered
        abandoned and re-queued (or dead-lettered past ``max_attempts``).
    base_backoff / backoff_factor / max_backoff:
        Exponential retry delay: ``min(max_backoff, base_backoff *
        backoff_factor ** (attempt - 1))``.
    max_queued:
        Backlog bound (queued + leased).  ``enqueue`` past it raises
        :class:`QueueFull`.
    create:
        Create the ``_jobs`` table if missing.  Pass ``False`` on read
        replicas: their state must come exclusively from the primary's
        frame stream, and the table appears once the primary ships it.
    """

    def __init__(
        self,
        db: Database,
        *,
        clock: Callable[[], float] = time.time,
        visibility_timeout: float = 30.0,
        base_backoff: float = 0.5,
        backoff_factor: float = 2.0,
        max_backoff: float = 60.0,
        max_queued: int = 10_000,
        create: bool = True,
    ) -> None:
        self.db = db
        self.clock = clock
        self.visibility_timeout = float(visibility_timeout)
        self.base_backoff = float(base_backoff)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff = float(max_backoff)
        self.max_queued = int(max_queued)
        if create and JOBS_TABLE not in db:
            db.create_table(_jobs_schema())
            db.table(JOBS_TABLE).create_index("status")
            db.table(JOBS_TABLE).create_index("idempotency_key")
            # Sorted: the lease scan is a range predicate
            # (``not_before <= now``) the planner turns into a bisect.
            db.table(JOBS_TABLE).create_sorted_index("not_before")

    # ------------------------------------------------------------- helpers

    @property
    def available(self) -> bool:
        """Whether the ``_jobs`` table exists (it may not yet on a
        replica that has not received the primary's DDL frame)."""
        return JOBS_TABLE in self.db

    def backoff(self, attempt: int) -> float:
        """Retry delay after the ``attempt``-th failed attempt."""
        return min(
            self.max_backoff,
            self.base_backoff * self.backoff_factor ** max(attempt - 1, 0),
        )

    @staticmethod
    def _decode(row: dict[str, Any]) -> dict[str, Any]:
        job = dict(row)
        job["payload"] = json.loads(row["payload"] or "{}")
        job["result"] = (
            json.loads(row["result"]) if row["result"] is not None else None
        )
        return job

    def _none_in(self, *states: str) -> bool:
        """Whether no job is in any of ``states``: bucket lengths read
        as a transaction opened now would read them, with no lock."""
        jobs = self.db.latest(JOBS_TABLE)
        return not any(jobs.eq_pks("status", state) for state in states)

    def _checked(self, job_id: int, worker_id: str) -> dict[str, Any]:
        row = self.db.table(JOBS_TABLE).get_or_none(job_id)
        if row is None:
            raise StaleLease(f"job {job_id} does not exist")
        if row["status"] != LEASED or row["lease_owner"] != worker_id:
            raise StaleLease(
                f"job {job_id} is {row['status']!r} owned by "
                f"{row['lease_owner']!r}, not leased to {worker_id!r}"
            )
        return row

    # ------------------------------------------------------------- enqueue

    def enqueue(
        self,
        kind: str,
        payload: dict[str, Any] | None = None,
        *,
        max_attempts: int = 3,
        idempotency_key: str | None = None,
        delay: float = 0.0,
    ) -> dict[str, Any]:
        """File a job; returns the (decoded) job row.

        With an ``idempotency_key``, re-enqueueing returns the existing
        job instead of filing a duplicate — callers may retry the call
        blindly after a timeout.

        The ambient trace context (if the caller runs inside a traced
        request) is persisted with the row, so the worker that later
        runs the job can open its ``job.run`` span in the *same* trace.
        """
        now = float(self.clock())
        table = self.db.table(JOBS_TABLE)
        extra: dict[str, Any] = {}
        if "trace_context" in table.schema.column_names():
            # Storage directories written before the column existed
            # replay their old schema on open; jobs there simply stay
            # unlinked instead of failing the insert.
            extra["trace_context"] = _trace.current_traceparent()
        with self.db.transaction():
            if idempotency_key is not None:
                existing = table.find_one(idempotency_key=idempotency_key)
                if existing is not None:
                    return self._decode(existing)
            backlog = table.count(status=QUEUED) + table.count(status=LEASED)
            if backlog >= self.max_queued:
                raise QueueFull(
                    f"job backlog at {backlog} >= max_queued="
                    f"{self.max_queued}"
                )
            row = self.db.insert(
                JOBS_TABLE,
                kind=kind,
                payload=json.dumps(payload or {}),
                max_attempts=int(max_attempts),
                not_before=now + float(delay),
                idempotency_key=idempotency_key,
                enqueued_at=now,
                updated_at=now,
                **extra,
            )
        return self._decode(row)

    # ------------------------------------------------------------ leasing

    def requeue_expired(self, now: float | None = None) -> int:
        """Return abandoned jobs (lease deadline passed) to the queue —
        or dead-letter them once out of attempts.  Returns how many
        jobs changed state.  With no job leased it opens no
        transaction."""
        if self._none_in(LEASED):
            return 0
        now = float(self.clock()) if now is None else now
        moved = 0
        with self.db.transaction():
            # Planner-backed: the status equality probes the hash index;
            # the deadline check stays a residual predicate because an
            # expired lease may also have a NULL deadline.
            expired = db_query(self.db, JOBS_TABLE).filter(
                status=LEASED
            ).where(
                lambda r: r["lease_deadline"] is None
                or r["lease_deadline"] <= now
            )
            for row in expired:
                if row["attempts"] >= row["max_attempts"]:
                    self.db.update(
                        JOBS_TABLE, row["id"],
                        status=DEAD, lease_owner=None, lease_deadline=None,
                        error=(
                            f"lease expired after {row['attempts']} "
                            f"attempt(s)"
                        ),
                        updated_at=now,
                    )
                else:
                    self.db.update(
                        JOBS_TABLE, row["id"],
                        status=QUEUED, lease_owner=None, lease_deadline=None,
                        not_before=now + self.backoff(row["attempts"]),
                        updated_at=now,
                    )
                moved += 1
        return moved

    def lease(
        self, worker_id: str, *, visibility_timeout: float | None = None
    ) -> dict[str, Any] | None:
        """Lease the oldest runnable job to ``worker_id``; ``None`` when
        nothing is runnable.  The lease counts one attempt.  With no job
        queued or leased it opens no transaction, so an idle poll takes
        no write lock."""
        if not self.available or self._none_in(QUEUED, LEASED):
            return None
        timeout = (
            self.visibility_timeout if visibility_timeout is None
            else float(visibility_timeout)
        )
        now = float(self.clock())
        with self.db.transaction():
            self.requeue_expired(now)
            # Planner-backed runnable scan: status probes the hash
            # index, ``not_before <= now`` is a sorted-index range, and
            # the oldest-job pick is an ordered first().
            row = db_query(self.db, JOBS_TABLE).filter(
                status=QUEUED
            ).where_range(
                "not_before", high=now, include_high=True
            ).order_by("id").first()
            if row is None:
                return None
            updated = self.db.update(
                JOBS_TABLE, row["id"],
                status=LEASED,
                lease_owner=worker_id,
                lease_deadline=now + timeout,
                attempts=row["attempts"] + 1,
                updated_at=now,
            )
        return self._decode(updated)

    def heartbeat(self, job_id: int, worker_id: str) -> float:
        """Extend the caller's lease; returns the new deadline.  Raises
        :class:`StaleLease` when the caller lost the job."""
        now = float(self.clock())
        with self.db.transaction():
            self._checked(job_id, worker_id)
            deadline = now + self.visibility_timeout
            self.db.update(
                JOBS_TABLE, job_id,
                lease_deadline=deadline, updated_at=now,
            )
        return deadline

    # ----------------------------------------------------------- finishing

    def complete(
        self, job_id: int, worker_id: str, result: Any = None
    ) -> dict[str, Any]:
        now = float(self.clock())
        with self.db.transaction():
            self._checked(job_id, worker_id)
            row = self.db.update(
                JOBS_TABLE, job_id,
                status=DONE, lease_owner=None, lease_deadline=None,
                result=json.dumps(result), error="", updated_at=now,
            )
        return self._decode(row)

    def fail(
        self, job_id: int, worker_id: str, error: str,
        *, retryable: bool = True,
    ) -> dict[str, Any]:
        """Finish the attempt unsuccessfully.  Retryable failures with
        attempts left re-queue with exponential backoff; everything
        else dead-letters."""
        now = float(self.clock())
        with self.db.transaction():
            row = self._checked(job_id, worker_id)
            if retryable and row["attempts"] < row["max_attempts"]:
                row = self.db.update(
                    JOBS_TABLE, job_id,
                    status=QUEUED, lease_owner=None, lease_deadline=None,
                    not_before=now + self.backoff(row["attempts"]),
                    error=error, updated_at=now,
                )
            else:
                row = self.db.update(
                    JOBS_TABLE, job_id,
                    status=DEAD, lease_owner=None, lease_deadline=None,
                    error=error, updated_at=now,
                )
        return self._decode(row)

    # ---------------------------------------------------------- inspection

    def get(self, job_id: int) -> dict[str, Any] | None:
        if not self.available:
            return None
        row = self.db.table(JOBS_TABLE).get_or_none(job_id)
        return self._decode(row) if row is not None else None

    def jobs(
        self, status: str | None = None, *, kind: str | None = None
    ) -> list[dict[str, Any]]:
        """All jobs (newest first), optionally filtered."""
        if not self.available:
            return []
        q = db_query(self.db, JOBS_TABLE)
        if status:
            q = q.filter(status=status)
        if kind is not None:
            q = q.filter(kind=kind)
        rows = q.order_by("id", descending=True).all()
        return [self._decode(r) for r in rows]

    def counts(self) -> dict[str, int]:
        """Backlog by state (always all four states, plus ``total``)."""
        table = self.db.table(JOBS_TABLE) if self.available else None
        out = {
            state: (table.count(status=state) if table is not None else 0)
            for state in STATES
        }
        out["total"] = sum(out.values())
        return out

    def pending(self) -> int:
        """Jobs not yet finished (the drain condition)."""
        counts = self.counts()
        return counts[QUEUED] + counts[LEASED]

"""Durable job queue semantics: leases, backoff, fencing, durability."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.jobs import (
    DEAD,
    DONE,
    JOBS_TABLE,
    LEASED,
    QUEUED,
    JobQueue,
    QueueFull,
    StaleLease,
    run_pending,
)


class FakeClock:
    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(clock):
    return JobQueue(Database("jobs-test"), clock=clock)


def count_write_locks(db, monkeypatch) -> list[int]:
    """A one-element counter of the write lock acquisitions on ``db``."""
    acquired = [0]
    acquire = db.lock.acquire_write

    def counting() -> None:
        acquired[0] += 1
        acquire()

    monkeypatch.setattr(db.lock, "acquire_write", counting)
    return acquired


def test_enqueue_lease_complete_happy_path(queue, clock):
    job = queue.enqueue("classify", {"top": 3})
    assert job["status"] == QUEUED
    assert job["payload"] == {"top": 3}
    assert job["attempts"] == 0

    leased = queue.lease("w1")
    assert leased["id"] == job["id"]
    assert leased["status"] == LEASED
    assert leased["attempts"] == 1
    assert leased["lease_deadline"] == clock.now + queue.visibility_timeout

    done = queue.complete(job["id"], "w1", {"suggested": 7})
    assert done["status"] == DONE
    assert done["result"] == {"suggested": 7}
    assert queue.lease("w1") is None


def test_lease_order_is_oldest_first(queue):
    first = queue.enqueue("classify")
    second = queue.enqueue("classify")
    assert queue.lease("w")["id"] == first["id"]
    assert queue.lease("w")["id"] == second["id"]


def test_delay_defers_runnability(queue, clock):
    queue.enqueue("classify", delay=10.0)
    assert queue.lease("w") is None
    clock.advance(10.0)
    assert queue.lease("w") is not None


def test_idempotency_key_dedupes(queue):
    a = queue.enqueue("classify", idempotency_key="sweep-1")
    b = queue.enqueue("classify", idempotency_key="sweep-1")
    assert a["id"] == b["id"]
    assert queue.counts()["total"] == 1
    c = queue.enqueue("classify", idempotency_key="sweep-2")
    assert c["id"] != a["id"]


def test_queue_full_raises(clock):
    queue = JobQueue(Database("full"), clock=clock, max_queued=2)
    queue.enqueue("classify")
    queue.enqueue("classify")
    with pytest.raises(QueueFull):
        queue.enqueue("classify")
    # Finished jobs free backlog slots.
    job = queue.lease("w")
    queue.complete(job["id"], "w")
    queue.enqueue("classify")


def test_visibility_timeout_releases_abandoned_lease(queue, clock):
    job = queue.enqueue("classify")
    assert queue.lease("w1")["id"] == job["id"]
    # Not expired yet: nothing to lease.
    clock.advance(queue.visibility_timeout / 2)
    assert queue.lease("w2") is None
    # Past the deadline the next lease call returns the job to the
    # queue — with a retry backoff, so it only becomes runnable (and
    # leasable) once that elapses.
    clock.advance(queue.visibility_timeout)
    assert queue.lease("w2") is None
    clock.advance(queue.max_backoff)
    again = queue.lease("w2")
    assert again["id"] == job["id"]
    assert again["attempts"] == 2
    assert again["lease_owner"] == "w2"


def test_heartbeat_extends_lease(queue, clock):
    job = queue.enqueue("classify")
    queue.lease("w1")
    clock.advance(queue.visibility_timeout - 1)
    deadline = queue.heartbeat(job["id"], "w1")
    assert deadline == clock.now + queue.visibility_timeout
    # The extension keeps the job invisible past the original deadline.
    clock.advance(queue.visibility_timeout - 1)
    assert queue.lease("w2") is None


def test_retryable_failure_backs_off_exponentially(queue, clock):
    job = queue.enqueue("classify", max_attempts=3)
    queue.lease("w")
    failed = queue.fail(job["id"], "w", "boom", retryable=True)
    assert failed["status"] == QUEUED
    assert failed["error"] == "boom"
    assert failed["not_before"] == clock.now + queue.backoff(1)
    assert queue.lease("w") is None          # still backing off
    clock.advance(queue.backoff(1))
    assert queue.lease("w")["attempts"] == 2
    failed = queue.fail(job["id"], "w", "boom again")
    assert failed["not_before"] == clock.now + queue.backoff(2)
    assert queue.backoff(2) > queue.backoff(1)


def test_exhausted_attempts_dead_letter(queue, clock):
    job = queue.enqueue("classify", max_attempts=2)
    for _ in range(2):
        clock.advance(queue.max_backoff)
        leased = queue.lease("w")
        assert leased is not None
        queue.fail(job["id"], "w", "boom")
    dead = queue.get(job["id"])
    assert dead["status"] == DEAD
    clock.advance(queue.max_backoff)
    assert queue.lease("w") is None


def test_non_retryable_failure_dead_letters_immediately(queue):
    job = queue.enqueue("classify", max_attempts=5)
    queue.lease("w")
    assert queue.fail(job["id"], "w", "bad payload",
                      retryable=False)["status"] == DEAD


def test_stale_lease_fencing(queue, clock):
    """A zombie whose lease was re-issued cannot clobber the new owner."""
    job = queue.enqueue("classify")
    queue.lease("zombie")
    clock.advance(queue.visibility_timeout + 1)
    queue.requeue_expired()
    clock.advance(queue.max_backoff)
    assert queue.lease("fresh")["id"] == job["id"]
    with pytest.raises(StaleLease):
        queue.complete(job["id"], "zombie")
    with pytest.raises(StaleLease):
        queue.heartbeat(job["id"], "zombie")
    with pytest.raises(StaleLease):
        queue.fail(job["id"], "zombie", "late")
    # The rightful owner still finishes.
    assert queue.complete(job["id"], "fresh")["status"] == DONE


def test_counts_and_pending(queue, clock):
    queue.enqueue("classify")
    queue.enqueue("classify")
    queue.enqueue("classify")
    leased = queue.lease("w")
    counts = queue.counts()
    assert counts[QUEUED] == 2 and counts[LEASED] == 1
    assert queue.pending() == 3
    queue.fail(leased["id"], "w", "boom", retryable=False)
    assert queue.counts()[DEAD] == 1
    assert queue.pending() == 2


def test_jobs_survive_reopen(tmp_path, clock):
    """The queue rides the WAL: state replays on ``Database.open``."""
    db = Database("durable")
    queue = JobQueue(db, clock=clock)
    queued = queue.enqueue("classify", {"collection": "nifty"})
    running = queue.enqueue("classify")
    queue.enqueue("classify", idempotency_key="dedup-me")
    db.attach(tmp_path)
    # Post-attach commits land in the WAL too.
    assert queue.lease("w1")["id"] == queued["id"]
    queue.complete(queued["id"], "w1", {"ok": True})
    assert queue.lease("w1")["id"] == running["id"]
    db.close()

    reopened = Database.open(tmp_path)
    queue2 = JobQueue(reopened, clock=clock, create=False)
    assert queue2.available
    assert queue2.get(queued["id"])["status"] == DONE
    assert queue2.get(queued["id"])["result"] == {"ok": True}
    # The leased job survived as leased — its owner is gone, so after
    # the visibility timeout (plus retry backoff) it is leased again.
    assert queue2.get(running["id"])["status"] == LEASED
    clock.advance(queue2.visibility_timeout + 1)
    queue2.requeue_expired()
    clock.advance(queue2.max_backoff)
    assert queue2.lease("w2")["id"] == running["id"]
    # Idempotency keys survive too.
    dup = queue2.enqueue("classify", idempotency_key="dedup-me")
    assert dup["id"] == 3
    reopened.close()


def test_replica_view_without_table_degrades(clock):
    db = Database("replica")
    queue = JobQueue(db, clock=clock, create=False)
    assert not queue.available
    assert JOBS_TABLE not in db
    assert queue.lease("w") is None
    assert queue.jobs() == []
    assert queue.get(1) is None
    assert queue.counts()["total"] == 0
    assert queue.pending() == 0


# -- lean leases: an idle queue is read, not written ---------------------


def test_idle_lease_takes_no_write_lock(queue, monkeypatch):
    queue.enqueue("classify")
    assert run_pending(queue, {"classify": lambda ctx: None}) == 1
    acquired = count_write_locks(queue.db, monkeypatch)
    version = queue.db.version
    assert queue.lease("w") is None
    assert run_pending(queue, {"classify": lambda ctx: None}) == 0
    assert acquired[0] == 0
    assert queue.db.version == version


def test_transaction_leases_the_job_it_enqueued(queue):
    with queue.db.transaction():
        job = queue.enqueue("classify")
        leased = queue.lease("w")
        assert leased is not None and leased["id"] == job["id"]
    assert queue.get(job["id"])["status"] == LEASED


def test_lease_inside_an_older_pin_sees_a_later_enqueue(queue):
    with queue.db.pinned() as pin:
        job = queue.enqueue("classify")
        assert job["id"] not in pin.table(JOBS_TABLE)
        leased = queue.lease("w")
        assert leased is not None and leased["id"] == job["id"]


def test_requeue_expired_without_leases_opens_no_frame(
        queue, clock, monkeypatch):
    job = queue.enqueue("classify")
    acquired = count_write_locks(queue.db, monkeypatch)
    version = queue.db.version
    assert queue.requeue_expired() == 0
    assert acquired[0] == 0
    assert queue.db.version == version
    # An expired lease still goes back to the queue.
    queue.lease("w")
    clock.advance(queue.visibility_timeout + 1)
    assert queue.requeue_expired() == 1
    requeued = queue.get(job["id"])
    assert requeued["status"] == QUEUED
    assert requeued["lease_owner"] is None

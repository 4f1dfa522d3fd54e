"""WriterLock semantics: one reentrant writer, owner-checked release."""

import threading
import time

import pytest

from repro.db.locks import WriterLock

WAIT = 5.0  # generous thread-sync timeout; tests fail fast on deadlock


class TestReentrancy:
    def test_write_inside_write(self):
        lock = WriterLock()
        with lock.write():
            with lock.write():
                assert lock.write_held
        assert not lock.write_held

    def test_unbalanced_release_raises(self):
        lock = WriterLock()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_over_release_after_balanced_use_raises(self):
        # A correct acquire/release pair must not leave residue that lets
        # a later unbalanced release slip through.
        lock = WriterLock()
        with lock.write():
            pass
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_release_write_from_other_thread_raises(self):
        lock = WriterLock()
        lock.acquire_write()
        caught: list[BaseException] = []

        def thief():
            try:
                lock.release_write()
            except RuntimeError as exc:
                caught.append(exc)

        t = threading.Thread(target=thief)
        t.start(); t.join(WAIT)
        assert len(caught) == 1
        lock.release_write()  # the owner can still release cleanly
        assert not lock.write_held


class TestSharingAndExclusion:
    def test_second_writer_waits_for_the_first(self):
        lock = WriterLock()
        order = []

        def other():
            order.append(("other holds", lock.write_held))
            with lock.write():
                order.append("other in")

        with lock.write():
            t = threading.Thread(target=other)
            t.start()
            time.sleep(0.05)      # give the other writer a chance to (wrongly) enter
            order.append("first out")
        t.join(WAIT)
        assert order == [("other holds", False), "first out", "other in"]

    def test_concurrent_counter_mutation_is_exclusive(self):
        """A read-modify-write under the write lock never loses updates."""
        lock = WriterLock()
        state = {"n": 0}

        def bump():
            for _ in range(2000):
                with lock.write():
                    n = state["n"]
                    time.sleep(0)  # yield the GIL mid-update
                    state["n"] = n + 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        assert not any(t.is_alive() for t in threads)
        assert state["n"] == 8000

"""The database's writer lock: one reentrant writer at a time.

Readers never take it — they pin a published MVCC snapshot
(:meth:`repro.db.Database.pinned`) — so the only job left is to
serialize writers (DML, DDL, whole transactions) and to tell a thread
whether it is the one writing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class WriterLock:
    """A reentrant mutex that knows which thread holds it."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._owner: int | None = None
        self._depth = 0

    def acquire_write(self) -> None:
        self._lock.acquire()
        self._owner = threading.get_ident()
        self._depth += 1

    def release_write(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError("release_write by a non-writing thread")
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
        self._lock.release()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    @property
    def write_held(self) -> bool:
        """Is the *current thread* holding the lock?"""
        return self._owner == threading.get_ident()

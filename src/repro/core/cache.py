"""Mutation-versioned memoization for repository analytics.

Coverage, similarity and recommendation read the classification pairs of
a material set (whole-corpus only when unscoped); on a read-heavy
deployment (the paper's hosted prototype) the repository mutates rarely
between those reads, so they are almost always recomputing an
identical answer.  :class:`AnalyticsCache` memoizes such results keyed on
``(function, arguments, versions of the tables the function reads)``.
The version counters live in :mod:`repro.db` and are bumped on every
committed mutation, so invalidation is automatic and exact: a cached
entry is served only while every table it was derived from is untouched.

Correctness rules:

* **A thread inside its own transaction bypasses the cache entirely**
  (both lookups and stores).  Rollback restores version counters, so a
  value computed from uncommitted state could otherwise be served later
  under a re-used version number.  Concurrent *readers* are unaffected
  by other threads' transactions: they read committed pinned snapshots
  (:meth:`repro.db.Database.pinned`), whose versions are durable.
  Hence **write paths that run inside a transaction use point lookups,
  never memoized whole-corpus analytics**: there each memoized call is
  a bypass that recomputes the full pass (counted in
  ``CacheStats.bypasses``).
* Cached values are **shared** by every caller, so memoized functions
  return immutable values (tuples, frozen graphs) or values callers
  treat as read-only.
* The cache is LRU-bounded (``maxsize`` distinct keys); stale entries are
  replaced in place and counted as invalidations.

Each cache starts enabled unless the ``CARCS_CACHE`` environment
variable says otherwise (``CARCS_CACHE=off`` disables every cache built
after it is set), so benchmarks can measure cold behaviour without code
changes; ``cache.enabled`` switches one cache at run time.

Scope note: this cache invalidates **whole entries** on any dependency
version drift.  Scoped reads keep the recompute small: a collection's
coverage reads only that collection's rows, so the miss after a
curator's write costs O(collection), not O(corpus).
State that can be repaired per document — the search engine's inverted
index, the classify model's training features — deliberately lives
*outside* this cache: :class:`repro.core.view.MaterialView` replays the
database change journal (:meth:`repro.db.Database.changes_since`) into
it and patches only the touched materials instead of discarding
everything.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db import Database

ENV_FLAG = "CARCS_CACHE"
_FALSEY = {"off", "0", "false", "no", "disabled"}


def env_enabled() -> bool:
    """Does the ``CARCS_CACHE`` environment variable allow caching?"""
    return os.environ.get(ENV_FLAG, "on").strip().lower() not in _FALSEY


def freeze(value: Any) -> Any:
    """Canonical hashable form of ``value`` (for cache keys).

    Lists/tuples become tuples, sets frozensets, dicts sorted item
    tuples; everything else must already be hashable.  A hashable tuple
    or frozenset holds only hashable values, so it is already canonical
    and comes back as is, hashed once in C rather than walked.
    """
    if isinstance(value, (tuple, frozenset)):
        try:
            hash(value)
            return value
        except TypeError:
            pass
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    return value


@dataclass
class CacheStats:
    """Counters exposed through ``Repository.stats()`` and ``/stats``."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0   # stale entry replaced by a fresh recompute
    evictions: int = 0       # LRU bound enforced
    bypasses: int = 0        # disabled or inside a transaction

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.invalidations

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.invalidations = 0
        self.evictions = self.bypasses = 0


class AnalyticsCache:
    """LRU memo keyed on ``(function, args, relevant table versions)``."""

    def __init__(self, db: "Database", *, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.db = db
        self.maxsize = maxsize
        self.enabled = env_enabled()
        self.stats = CacheStats()
        # Serializes bookkeeping *and* computes: concurrent readers asking
        # for the same cold entry produce one compute, not a thundering
        # herd.  Reentrant because memoized computations call other
        # memoized computations (coverage -> classification_pairs).
        self._lock = threading.RLock()
        # (name, frozen key) -> (table-version tuple, value)
        self._entries: "OrderedDict[tuple, tuple[tuple, Any]]" = OrderedDict()

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[tuple]:
        return list(self._entries)

    # -- core -------------------------------------------------------------

    def table_versions(self, tables: Sequence[str]) -> tuple:
        """Version of each dependency table (-1 when dropped/absent).

        Pin-aware: inside a pinned snapshot scope the versions come from
        the snapshot, so a cached entry computed from pinned state is
        stamped with (and validated against) that same state."""
        pin = self.db._pin()
        source: Any = pin.tables if pin is not None else self.db._tables
        out = []
        for name in tables:
            table = source.get(name)
            out.append(table.version if table is not None else -1)
        return tuple(out)

    def get_or_compute(
        self,
        name: str,
        key: Any,
        tables: Sequence[str],
        compute: Callable[[], Any],
    ) -> Any:
        """Return the memoized result of ``compute``.

        ``name`` identifies the computation (usually the qualified
        function name), ``key`` its arguments, and ``tables`` the tables
        whose mutation would change the answer.  Every hit returns the
        stored value itself.
        """
        # Readers take no database lock: computes run against the pinned
        # snapshot (or live state for unpinned callers).  The cache lock
        # alone serializes bookkeeping and computes — concurrent readers
        # asking for the same cold entry still produce one compute.
        # The span's ``key`` attribute is the raw (hashable) key object,
        # not its repr: stringification happens if and when the trace is
        # rendered, so traced lookups never pay repr() on the hot path.
        with _trace.span("cache.get", name=name) as span_:
            with self._lock:
                if not self.enabled or self.db.in_transaction:
                    # Inside this thread's own transaction versions
                    # are not yet durable (rollback restores them),
                    # so neither lookups nor stores are safe.  Other
                    # threads' transactions don't matter: they read
                    # committed pinned snapshots.
                    self.stats.bypasses += 1
                    if span_:
                        span_.set(outcome="bypass", key=key)
                    return compute()
                versions = self.table_versions(tables)
                full_key = (name, freeze(key))
                entry = self._entries.get(full_key)
                if entry is not None and entry[0] == versions:
                    self.stats.hits += 1
                    if span_:
                        span_.set(outcome="hit", key=key)
                    self._entries.move_to_end(full_key)
                    return entry[1]
                value = compute()
                if span_:
                    span_.set(key=key)
                if entry is not None:
                    self.stats.invalidations += 1
                    span_.set(outcome="invalidation")
                else:
                    self.stats.misses += 1
                    span_.set(outcome="miss")
                self._entries[full_key] = (versions, value)
                self._entries.move_to_end(full_key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
                return value

    # -- maintenance ------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.stats.reset()


class Memo:
    """Decorator memoizing a call through its owner's ``cache`` attribute.

    The owner is the first argument: a method's ``self``, or the
    repository a module-level analytics function takes first.

    ::

        class Repository:
            @Memo("materials", "material_classifications")
            def classification_pairs(self, collection=None): ...

    The wrapped call becomes an :class:`AnalyticsCache` lookup keyed on
    the method's qualified name and its (frozen) arguments, depending on
    the named tables.  Owners without a cache attribute fall through to a
    plain call, so the decorator is inert on detached objects.
    """

    def __init__(self, *tables: str, cache_attr: str = "cache") -> None:
        self.tables = tables
        self.cache_attr = cache_attr

    def __call__(self, fn: Callable) -> Callable:
        import functools

        @functools.wraps(fn)
        def wrapper(owner: Any, *args: Any, **kwargs: Any) -> Any:
            cache = getattr(owner, self.cache_attr, None)
            if cache is None:
                return fn(owner, *args, **kwargs)
            key = (args, tuple(sorted(kwargs.items())))
            return cache.get_or_compute(
                fn.__qualname__,
                key,
                self.tables,
                lambda: fn(owner, *args, **kwargs),
            )

        wrapper.__wrapped__ = fn
        return wrapper

"""Change-journal catch-up for every per-material derived structure.

Some state derived from the repository is cheaper to patch than to
rebuild: the search engine's inverted index and the classify job's
training features both hold one entry per material.  :class:`MaterialView`
keeps them current from the database **change journal**
(:meth:`repro.db.Database.changes_since`): it owns each subscriber's
version cursor, maps each committed change to the material it touches,
and hands each touched material to the subscriber it catches up.

A subscriber implements

* ``reindex(material, keys)`` — replace the material's entry (``keys``
  is its set of classified ontology keys);
* ``remove(material_id)`` — drop the entry, if any;
* ``rebuild()`` — rebuild everything from the repository;

says through ``classified_only`` whether it holds unclassified
materials at all (one that does not has an unclassified material
removed without the material being read), and guards its state with its
own ``lock``: the view holds it while it catches the subscriber up, and
the subscriber's readers hold it around every read, so no reader sees a
half-applied delta and catching one subscriber up never stalls readers
of another.

A subscriber is caught up when it is read, never eagerly, so a write
costs nothing until something reads what it changed.  It falls back to
``rebuild()`` when a change cannot be mapped to a bounded set of
materials (DDL, an ontology-entry or facet-name edit, which no
repository API makes) or when the bounded journal has been outrun.
State built inside the caller's own transaction is never kept: rollback
restores version numbers, so its cursor is dropped and the next read
rebuilds.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.db.errors import RowNotFound
from repro.obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Change

    from .repository import Repository

#: Tables whose change-journal entries map to one affected material
#: (column holding the material id is ``materials_id`` for every link
#: table, ``id`` for materials itself).
_LINK_TABLES = frozenset((
    "material_authors", "material_tags", "material_datasets",
    "material_languages", "material_classifications",
))

#: Tables whose mutations cannot change any material: user sign-ups,
#: curation-workflow writes and the job queue never reach a subscriber.
_IRRELEVANT_TABLES = frozenset(
    ("users", "submissions", "suggestions", "_jobs")
)

#: Facet-name tables: inserts are inert (a name row affects nothing
#: until a link row references it, and that link has its own journal
#: entry); updates/deletes would rename facets under indexed materials,
#: which no repository API currently does — full rebuild if ever seen.
_NAME_TABLES = frozenset(("authors", "tags", "datasets", "languages"))


def affected_materials(changes: Iterable["Change"]) -> set[int] | None:
    """The ids of the materials ``changes`` touch, or ``None`` when a
    change cannot be mapped to a bounded set of materials."""
    affected: set[int] = set()
    for change in changes:
        if change.table in _IRRELEVANT_TABLES:
            continue
        if change.table == "materials":
            affected.add(change.pk)
        elif change.table in _LINK_TABLES:
            assert change.row is not None
            affected.add(change.row["materials_id"])
        elif (
            change.op == "insert"
            and (change.table in _NAME_TABLES
                 or change.table == "ontology_entries")
        ):
            continue  # inert until something links to the new row
        else:
            return None
    return affected


class MaterialView:
    """The repository's change-journal cursors, one per subscriber.

    For a consistent read, callers pin the database around
    :meth:`catch_up` and the read that follows it, under the
    subscriber's lock.
    """

    def __init__(self, repo: "Repository") -> None:
        self.repo = repo
        # Guards the making of shared subscribers.
        self._lock = threading.Lock()
        # Subscriber -> the version it reflects (None: nothing committed
        # built yet), read and written only under that subscriber's
        # lock.  Weak, so a throwaway subscriber (a test's reference
        # engine) leaves when it is dropped.
        self._cursors: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._shared: dict[str, Any] = {}

    def shared(self, name: str, factory: Callable[[], Any]) -> Any:
        """The one subscriber kept under ``name`` for the view's
        lifetime, made on first use."""
        with self._lock:
            subscriber = self._shared.get(name)
            if subscriber is None:
                subscriber = self._shared[name] = factory()
            return subscriber

    def peek(self, name: str) -> Any:
        """The subscriber kept under ``name``, or ``None`` if not made."""
        return self._shared.get(name)

    def catch_up(self, subscriber: Any) -> str | None:
        """Bring ``subscriber`` to the repository version: ``"delta"``
        when the journal was replayed into it, ``"full"`` when it was
        rebuilt, ``None`` when it was current."""
        with subscriber.lock:
            db = self.repo.db
            version = self.repo.version
            cursor = self._cursors.get(subscriber)
            # A pinned reader may find the cursor *ahead* of its pin
            # (another thread caught up after a newer commit); serving
            # the fresher state is right, rebuilding would regress it
            # for everyone else.
            if cursor is not None and cursor >= version:
                return None
            if cursor is not None and not db.in_transaction:
                changes = db.changes_since(cursor, upto=version)
                affected = (
                    None if changes is None else affected_materials(changes)
                )
                if affected is not None:
                    with _trace.span(
                        "view.delta", changes=len(changes),
                        materials=len(affected),
                    ):
                        self._apply(affected, subscriber)
                    self._cursors[subscriber] = version
                    return "delta"
            self.refresh(subscriber)
            return "full"

    def refresh(self, subscriber: Any) -> None:
        """Rebuild ``subscriber`` now."""
        with subscriber.lock:
            subscriber.rebuild()
            # State built from this thread's uncommitted writes records
            # no version, so the next read rebuilds it.
            self._cursors[subscriber] = (
                None if self.repo.db.in_transaction else self.repo.version
            )

    def _apply(self, affected: set[int], subscriber: Any) -> None:
        repo = self.repo
        for mid in sorted(affected):
            keys = frozenset(
                key for _, key in repo.classification_pairs_of([mid])
            )
            if subscriber.classified_only and not keys:
                subscriber.remove(mid)
                continue
            try:
                material = repo.get_material(mid)
            except RowNotFound:
                subscriber.remove(mid)
            else:
                subscriber.reindex(material, keys)

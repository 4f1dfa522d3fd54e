"""Faceted and full-text search over materials.

Section III-A: "one can explicitly filter against a group of features
that is of interest to an instructor looking for material" — course
level, language, dataset use, kind, collection, and (most importantly)
classification under an ontology subtree.  Full-text ranking answers the
"traditional search tools" queries.

:class:`SearchEngine` serves both from the incrementally maintained
inverted index of :mod:`repro.core.index`: facet posting sets are
intersected before BM25 scoring, and the index is kept current by
replaying the database **change journal**
(:meth:`repro.db.Database.changes_since`).  A single insert or PATCH
re-indexes only the affected document; a full rebuild happens only when
the bounded journal has been outrun or a non-delta-able change (DDL,
ontology edit, facet-name rename) appears.

An index built from uncommitted state is never kept, because rollback
would re-use its version numbers for different content.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.db.errors import RowNotFound
from repro.obs import trace as _trace

from .index import MaterialIndex, text_tokens
from .material import CourseLevel, Material, MaterialKind
from .repository import Repository

#: The scorer's name, as reported in v2 search payloads, the
#: ``carcs_search_seconds{mode}`` label and the ``search.*`` spans.
MODE = "bm25"

#: Tables whose change-journal entries map to one affected material and
#: are therefore delta-maintainable (column holding the material id is
#: ``materials_id`` for every link table, ``id`` for materials itself).
_LINK_TABLES = frozenset((
    "material_authors", "material_tags", "material_datasets",
    "material_languages", "material_classifications",
))

#: Tables whose mutations cannot change any search result: skipping them
#: means user sign-ups and curation-workflow writes no longer invalidate
#: the index at all.
_IRRELEVANT_TABLES = frozenset(
    ("users", "submissions", "suggestions", "_jobs")
)

#: Facet-name tables: inserts are inert (a name row affects nothing
#: until a link row references it, and that link has its own journal
#: entry); updates/deletes would rename facets under indexed documents,
#: which no repository API currently does — full rebuild if ever seen.
_NAME_TABLES = frozenset(("authors", "tags", "datasets", "languages"))


@dataclass
class SearchFilters:
    """Conjunction of facet constraints; ``None``/empty means 'any'."""

    kinds: tuple[MaterialKind, ...] = ()
    course_levels: tuple[CourseLevel, ...] = ()
    languages: tuple[str, ...] = ()
    datasets_required: bool | None = None
    collections: tuple[str, ...] = ()
    years: tuple[int, int] | None = None           # inclusive range
    under: tuple[str, ...] = ()                    # ontology subtree keys
    tags: tuple[str, ...] = ()


@dataclass
class SearchHit:
    material: Material
    score: float


class SearchEngine:
    """Combined facet + full-text search over one repository.

    The index is maintained lazily: a query first reconciles with the
    repository's mutation version by replaying the change journal and
    re-resolving only the touched materials.  :meth:`refresh` forces an
    eager full rebuild.

    Attach a :class:`repro.obs.MetricsRegistry` via :attr:`metrics` (the
    API layer does) to get index-size gauges, incremental-vs-full
    rebuild counters and a search latency histogram.
    """

    mode = MODE

    def __init__(self, repo: Repository) -> None:
        self.repo = repo
        #: Optional MetricsRegistry; set by the web layer.
        self.metrics = None
        self._index = MaterialIndex()
        self._indexed_version: int | None = None
        # maintenance counters (numeric only; merged into Repository.stats)
        self.full_rebuilds = 0
        self.delta_catchups = 0
        self.docs_reindexed = 0
        self.searches = 0
        # The engine is shared (Repository.search_engine memoizes one
        # instance) and reconciliation swaps several fields; a reentrant
        # mutex keeps concurrent searches from observing a half-built
        # index.
        self._engine_lock = threading.RLock()

    # ------------------------------------------------------------ stats

    def stats(self) -> dict[str, int]:
        """Numeric maintenance/size counters (``Repository.stats`` merges
        these under a ``search_`` prefix; ``/api/v1/metrics`` re-exports
        them as gauges)."""
        return {
            "full_rebuilds": self.full_rebuilds,
            "delta_catchups": self.delta_catchups,
            "docs_reindexed": self.docs_reindexed,
            "searches": self.searches,
            **self._index.stats(),
        }

    def _record_rebuild(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "carcs_search_rebuilds_total", kind=kind
            ).inc()
            for name, value in self._index.stats().items():
                self.metrics.gauge(f"carcs_search_index_{name}").set(value)

    # ------------------------------------------------------- maintenance

    def refresh(self) -> None:
        """Force a full rebuild of the index."""
        with self._engine_lock:
            self._refresh_locked()

    def _refresh_locked(self) -> None:
        with _trace.span("search.rebuild", mode=MODE) as span_:
            index = MaterialIndex()
            keys_by_id = self.repo.classification_keys()
            for material in self.repo.materials():
                assert material.id is not None
                index.add(material, keys_by_id.get(material.id, frozenset()))
            self._index = index
            span_.set(docs=len(index.docs))
        self.full_rebuilds += 1
        self._record_rebuild("full")
        # An index built from uncommitted state must not survive the
        # transaction: rollback restores version counters, so keeping it
        # could serve phantom rows under a re-used version number.  Only
        # this thread's own transaction matters — concurrent readers run
        # against committed pinned snapshots.
        if self.repo.db.lock.write_held and self.repo.db.in_transaction:
            self._indexed_version = None
        else:
            self._indexed_version = self.repo.version

    def ensure_fresh(self) -> None:
        """Reconcile the index with the repository version (public form
        of the lazy step every query performs; benchmarks time this)."""
        with self.repo.db.pinned(), self._engine_lock:
            self._ensure_index()

    def _ensure_index(self) -> None:
        version = self.repo.version
        # An index built inside a transaction records no version, so a
        # non-None indexed version can only describe committed state.  A
        # pinned reader may also find the shared index *ahead* of its pin
        # (another thread reconciled after a newer commit); serving the
        # fresher index is the right call — rebuilding would regress the
        # shared index for everyone else.
        if self._indexed_version is not None and self._indexed_version >= version:
            return
        in_writer_tx = (
            self.repo.db.lock.write_held and self.repo.db.in_transaction
        )
        if self._indexed_version is not None and not in_writer_tx:
            changes = self.repo.db.changes_since(
                self._indexed_version, upto=version
            )
            if changes is not None:
                with _trace.span(
                    "search.delta", changes=len(changes)
                ) as span_:
                    before = self.docs_reindexed
                    applied = self._apply_changes(changes)
                    span_.set(
                        applied=applied, docs=self.docs_reindexed - before
                    )
                if applied:
                    self._indexed_version = version
                    self.delta_catchups += 1
                    self._record_rebuild("delta")
                    return
        self._refresh_locked()

    def _apply_changes(self, changes) -> bool:
        """Catch the index up by re-resolving only the touched materials.

        Returns ``False`` when a change cannot be mapped to a bounded set
        of materials (DDL, ontology-entry or facet-name edits) — the
        caller then falls back to a full rebuild.
        """
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
                return False
        for mid in affected:
            try:
                material = self.repo.get_material(mid)
            except RowNotFound:
                self._index.remove(mid)
            else:
                keys = frozenset(
                    key for _, key in self.repo.classification_pairs_of([mid])
                )
                self._index.reindex(material, keys)
            self.docs_reindexed += 1
        return True

    # ------------------------------------------------------------ search

    def _subtree_sets(self, filters: SearchFilters) -> list[frozenset[str]]:
        sets = []
        for key in filters.under:
            onto_name = key.split("/", 1)[0]
            onto = self.repo.ontology(onto_name)
            sets.append(frozenset(onto.subtree_keys(key)))
        return sets

    def search(
        self,
        text: str = "",
        filters: SearchFilters | None = None,
        *,
        limit: int = 20,
    ) -> list[SearchHit]:
        """Ranked results; with empty ``text`` returns facet matches with
        score 1.0 in repository (id) order."""
        started = time.perf_counter()
        with _trace.span("search.query", mode=MODE, limit=limit) as span_:
            with self.repo.db.pinned(), self._engine_lock:
                hits = self._search_locked(text, filters, limit=limit)
            span_.set(hits=len(hits))
        if self.metrics is not None:
            self.metrics.histogram(
                "carcs_search_seconds", mode=MODE
            ).observe(time.perf_counter() - started)
        return hits

    def _search_locked(
        self,
        text: str = "",
        filters: SearchFilters | None = None,
        *,
        limit: int = 20,
    ) -> list[SearchHit]:
        self._ensure_index()
        self.searches += 1
        filters = filters or SearchFilters()
        candidates = self._index.candidates(
            filters, self._subtree_sets(filters)
        )
        if not text.strip():
            return [
                SearchHit(self._index.docs[i], 1.0)
                for i in sorted(candidates)[:limit]
            ]
        scores = self._index.score(text_tokens(text), candidates)
        return self._ranked(scores, limit)

    def _ranked(self, scores: dict[int, float], limit: int) -> list[SearchHit]:
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            SearchHit(self._index.docs[i], s) for i, s in ranked if s > 0.0
        ][:limit]

    # --------------------------------------------------------- similar-to

    def similar_to(
        self, material_id: int, *, limit: int = 10
    ) -> list[SearchHit]:
        """Text-level nearest neighbours of a material (complements the
        classification-level similarity of :mod:`repro.core.similarity`)."""
        with _trace.span("search.similar", material_id=material_id):
            with self.repo.db.pinned(), self._engine_lock:
                return self._similar_to_locked(material_id, limit=limit)

    def _similar_to_locked(
        self, material_id: int, *, limit: int = 10
    ) -> list[SearchHit]:
        self._ensure_index()
        if material_id not in self._index:
            raise KeyError(f"no material with id {material_id}")
        tokens = self._index.doc_tokens(material_id)
        candidates = set(self._index.docs)
        candidates.discard(material_id)
        return self._ranked(self._index.score(tokens, candidates), limit)

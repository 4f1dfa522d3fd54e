"""Faceted and full-text search over materials.

Section III-A: "one can explicitly filter against a group of features
that is of interest to an instructor looking for material" — course
level, language, dataset use, kind, collection, and (most importantly)
classification under an ontology subtree.  Full-text ranking answers the
"traditional search tools" queries.

:class:`SearchEngine` serves both from the incrementally maintained
inverted index of :mod:`repro.core.index`: facet posting sets are
intersected before BM25 scoring.  The engine is the first subscriber of
the repository's :class:`~repro.core.view.MaterialView`, which replays
the database **change journal** into it: a single insert or PATCH
re-indexes only the affected document, and a full rebuild happens only
when the bounded journal has been outrun or a non-delta-able change
(DDL, ontology edit, facet-name rename) appears.  An index built from
uncommitted state is never kept, because rollback would re-use its
version numbers for different content.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from typing import Collection, Iterable

from repro.obs import trace as _trace

from .index import MaterialIndex, text_tokens
from .material import CourseLevel, Material, MaterialKind
from .repository import Repository

#: The scorer's name, as reported in v2 search payloads, the
#: ``carcs_search_seconds{mode}`` label and the ``search.*`` spans.
MODE = "bm25"

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


class SearchHits(list):
    """A window of ranked hits; ``total`` counts every hit of the
    query, inside the window or not."""

    def __init__(self, hits: Iterable[SearchHit], total: int) -> None:
        super().__init__(hits)
        self.total = total


class SearchEngine:
    """Combined facet + full-text search over one repository.

    The index is maintained lazily: a query first has the repository's
    :class:`~repro.core.view.MaterialView` replay the change journal
    into it, re-resolving only the touched materials.  :meth:`refresh`
    forces an eager full rebuild.

    Attach a :class:`repro.obs.MetricsRegistry` via :attr:`metrics` (the
    API layer does) to get index-size gauges, incremental-vs-full
    rebuild counters and a search latency histogram.
    """

    mode = MODE
    #: Unclassified materials are searchable too.
    classified_only = False

    def __init__(self, repo: Repository) -> None:
        self.repo = repo
        #: Optional MetricsRegistry; set by the web layer.
        self.metrics = None
        self._index = MaterialIndex()
        # maintenance counters (numeric only; merged into Repository.stats)
        self.full_rebuilds = 0
        self.delta_catchups = 0
        self.docs_reindexed = 0
        self.searches = 0
        self._view = repo.material_view()
        #: Guards the index: catch-up swaps and patches it, and
        #: concurrent searches must not observe it half-built.
        self.lock = threading.RLock()

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
        self._view.refresh(self)

    def rebuild(self) -> None:
        """Rebuild the index from every material (view subscriber)."""
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

    def reindex(self, material: Material, keys: frozenset[str]) -> None:
        """Replace one material's postings (view subscriber)."""
        self._index.reindex(material, keys)
        self.docs_reindexed += 1

    def remove(self, material_id: int) -> None:
        """Drop one material's postings (view subscriber)."""
        self._index.remove(material_id)
        self.docs_reindexed += 1

    def ensure_fresh(self) -> None:
        """Reconcile the index with the repository version (public form
        of the lazy step every query performs; benchmarks time this)."""
        with self.repo.db.pinned(), self.lock:
            self._ensure_index()

    def _ensure_index(self) -> None:
        if self._view.catch_up(self) == "delta":
            self.delta_catchups += 1
            self._record_rebuild("delta")

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
        offset: int = 0,
        limit: int | None = 20,
    ) -> SearchHits:
        """Ranked hits ``offset`` to ``offset + limit`` (``limit=None``:
        all the rest); their ``total`` counts every hit.  With empty
        ``text`` the hits are the facet matches with score 1.0 in
        repository (id) order.  Only the window's hits are built;
        ranking heap-selects ``offset + limit`` keys.  The hits come
        from the index's version, which may be newer than the caller's
        pin (:meth:`~repro.core.view.MaterialView.catch_up`), so a count
        read under the pin must not cap them."""
        started = time.perf_counter()
        with _trace.span("search.query", mode=MODE, limit=limit) as span_:
            with self.repo.db.pinned(), self.lock:
                self._ensure_index()
                self.searches += 1
                filters = filters or SearchFilters()
                candidates = self._index.candidates(
                    filters, self._subtree_sets(filters)
                )
                if text.strip():
                    hits = self._scored_hits(
                        self._index.score(text_tokens(text), candidates),
                        offset, limit,
                    )
                else:
                    docs = self._index.docs
                    ids = docs.keys() if candidates is None else candidates
                    hits = SearchHits(
                        (SearchHit(docs[i], 1.0)
                         for i in _top(ids, offset, limit)),
                        len(ids),
                    )
            span_.set(hits=len(hits))
        if self.metrics is not None:
            self.metrics.histogram(
                "carcs_search_seconds", mode=MODE
            ).observe(time.perf_counter() - started)
        return hits

    def _scored_hits(self, scores: dict[int, float], offset: int,
                     limit: int | None) -> SearchHits:
        """The window of the positive-score hits ranked by
        ``(-score, id)``."""
        ranked = [(-s, i) for i, s in scores.items() if s > 0.0]
        docs = self._index.docs
        return SearchHits(
            (SearchHit(docs[i], -neg) for neg, i in _top(ranked, offset, limit)),
            len(ranked),
        )

    # --------------------------------------------------------- similar-to

    def similar_to(
        self, material_id: int, *, limit: int = 10
    ) -> SearchHits:
        """Text-level nearest neighbours of a material (complements the
        classification-level similarity of :mod:`repro.core.similarity`)."""
        with _trace.span("search.similar", material_id=material_id):
            with self.repo.db.pinned(), self.lock:
                self._ensure_index()
                if material_id not in self._index:
                    raise KeyError(f"no material with id {material_id}")
                scores = self._index.score(
                    self._index.doc_tokens(material_id), None
                )
                scores.pop(material_id, None)
                return self._scored_hits(scores, 0, limit)


def _top(keys: Collection, offset: int, limit: int | None) -> list:
    """``sorted(keys)[offset:offset + limit]``, heap-selecting only the
    first ``offset + limit`` keys (``heapq.nsmallest`` is documented
    equal to ``sorted(...)[:n]``); ``limit=None`` sorts them all."""
    if limit is None:
        return sorted(keys)[offset:]
    return heapq.nsmallest(offset + limit, keys)[offset:]

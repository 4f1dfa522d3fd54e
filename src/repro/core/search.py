"""Faceted and full-text search over materials.

Section III-A: "one can explicitly filter against a group of features
that is of interest to an instructor looking for material" — course
level, language, dataset use, kind, collection, and (most importantly)
classification under an ontology subtree.  Full-text ranking answers the
"traditional search tools" queries.

Two interchangeable backends live behind one :class:`SearchEngine`
surface, selected by the ``CARCS_SEARCH`` environment variable:

* ``bm25`` (default) — the incrementally maintained inverted index of
  :mod:`repro.core.index`: facet posting sets intersected before BM25
  scoring, kept current by replaying the database **change journal**
  (:meth:`repro.db.Database.changes_since`).  A single insert or PATCH
  re-indexes only the affected document; a full rebuild happens only
  when the bounded journal has been outrun or a non-delta-able change
  (DDL, ontology edit, facet-name rename) appears.
* ``dense`` — the original TF-IDF + cosine path, retained as an escape
  hatch and as the reference the benchmarks compare against.  It refits
  the vectorizer whenever the repository version moves.

Both modes share tokenization (:func:`repro.core.index.text_tokens`)
and both guard against the aborted-transaction trap: an index built from
uncommitted state is never kept, because rollback would re-use its
version numbers for different content.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.db.errors import RowNotFound
from repro.obs import trace as _trace
from repro.text import TfidfVectorizer, cosine_matrix

from .index import MaterialIndex, text_tokens
from .material import CourseLevel, Material, MaterialKind
from .repository import Repository

#: Environment variable selecting the backend (``bm25`` | ``dense``).
ENV_MODE = "CARCS_SEARCH"
MODE_BM25 = "bm25"
MODE_DENSE = "dense"

#: Tables whose change-journal entries map to one affected material and
#: are therefore delta-maintainable (column holding the material id is
#: ``materials_id`` for every link table, ``id`` for materials itself).
_LINK_TABLES = frozenset((
    "material_authors", "material_tags", "material_datasets",
    "material_languages", "material_classifications",
))

#: Tables whose mutations cannot change any search result: skipping them
#: means user sign-ups and curation-workflow writes no longer invalidate
#: the index at all (the dense path rebuilt on *every* version bump).
_IRRELEVANT_TABLES = frozenset(
    ("users", "submissions", "suggestions", "_jobs")
)

#: Facet-name tables: inserts are inert (a name row affects nothing
#: until a link row references it, and that link has its own journal
#: entry); updates/deletes would rename facets under indexed documents,
#: which no repository API currently does — full rebuild if ever seen.
_NAME_TABLES = frozenset(("authors", "tags", "datasets", "languages"))


def env_mode() -> str:
    """Backend selected by ``CARCS_SEARCH`` (unset/unknown → ``bm25``)."""
    raw = os.environ.get(ENV_MODE, MODE_BM25).strip().lower()
    return MODE_DENSE if raw == MODE_DENSE else MODE_BM25


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

    def matches(self, material: Material, classified_keys: frozenset[str],
                subtree_sets: Sequence[frozenset[str]]) -> bool:
        if self.kinds and material.kind not in self.kinds:
            return False
        if self.course_levels and material.course_level not in self.course_levels:
            return False
        if self.languages and not (
            set(l.lower() for l in self.languages)
            & set(l.lower() for l in material.languages)
        ):
            return False
        if self.datasets_required is True and not material.datasets:
            return False
        if self.datasets_required is False and material.datasets:
            return False
        if self.collections and material.collection not in self.collections:
            return False
        if self.years is not None:
            lo, hi = self.years
            if material.year is None or not (lo <= material.year <= hi):
                return False
        if self.tags and not (set(self.tags) & set(material.tags)):
            return False
        # Every requested subtree must be touched by the classification.
        for subtree in subtree_sets:
            if not (classified_keys & subtree):
                return False
        return True


@dataclass
class SearchHit:
    material: Material
    score: float


class SearchEngine:
    """Combined facet + full-text search over one repository.

    The index is maintained lazily: a query first reconciles with the
    repository's mutation version.  In ``bm25`` mode reconciliation is
    incremental (replay the change journal, re-resolve only the touched
    materials); in ``dense`` mode it is a full refit.  :meth:`refresh`
    forces an eager full rebuild in either mode.

    Attach a :class:`repro.obs.MetricsRegistry` via :attr:`metrics` (the
    API layer does) to get index-size gauges, incremental-vs-full
    rebuild counters and a search latency histogram.
    """

    def __init__(self, repo: Repository, *, mode: str | None = None) -> None:
        self.repo = repo
        self.mode = mode if mode in (MODE_BM25, MODE_DENSE) else env_mode()
        #: Optional MetricsRegistry; set by the web layer.
        self.metrics = None
        # dense-mode state
        self._materials: list[Material] = []
        self._vectorizer: TfidfVectorizer | None = None
        self._matrix: np.ndarray | None = None
        # bm25-mode state
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
        out = {
            "full_rebuilds": self.full_rebuilds,
            "delta_catchups": self.delta_catchups,
            "docs_reindexed": self.docs_reindexed,
            "searches": self.searches,
        }
        if self.mode == MODE_BM25:
            out.update(self._index.stats())
        else:
            out["docs"] = len(self._materials)
            vocab = self._vectorizer.vocabulary if self._vectorizer else None
            out["terms"] = len(vocab) if vocab is not None else 0
        return out

    def _record_rebuild(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "carcs_search_rebuilds_total", kind=kind
            ).inc()
            for name, value in self._index.stats().items():
                self.metrics.gauge(f"carcs_search_index_{name}").set(value)

    # ------------------------------------------------------- maintenance

    def refresh(self) -> None:
        """Force a full rebuild of the active backend's index."""
        with self._engine_lock:
            self._refresh_locked()

    def _refresh_locked(self) -> None:
        with _trace.span("search.rebuild", mode=self.mode) as span_:
            if self.mode == MODE_BM25:
                index = MaterialIndex()
                keys_by_id = self.repo.classification_keys()
                for material in self.repo.materials():
                    assert material.id is not None
                    index.add(material, keys_by_id.get(material.id, frozenset()))
                self._index = index
                span_.set(docs=len(index.docs))
            else:
                self._materials = self.repo.materials()
                texts = [m.text() for m in self._materials]
                if texts:
                    self._vectorizer = TfidfVectorizer(min_df=1)
                    self._matrix = self._vectorizer.fit_transform(texts)
                else:
                    self._vectorizer = None
                    self._matrix = None
                span_.set(docs=len(self._materials))
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
        if (
            self.mode == MODE_BM25
            and self._indexed_version is not None
            and not in_writer_tx
        ):
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
        with _trace.span("search.query", mode=self.mode, limit=limit) as span_:
            with self.repo.db.pinned(), self._engine_lock:
                hits = self._search_locked(text, filters, limit=limit)
            span_.set(hits=len(hits))
        if self.metrics is not None:
            self.metrics.histogram(
                "carcs_search_seconds", mode=self.mode
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
        subtree_sets = self._subtree_sets(filters)
        if self.mode == MODE_BM25:
            return self._bm25_search(text, filters, subtree_sets, limit)
        return self._dense_search(text, filters, subtree_sets, limit)

    def _bm25_search(
        self, text: str, filters: SearchFilters,
        subtree_sets: list[frozenset[str]], limit: int,
    ) -> list[SearchHit]:
        candidates = self._index.candidates(filters, subtree_sets)
        if not text.strip():
            return [
                SearchHit(self._index.docs[i], 1.0)
                for i in sorted(candidates)[:limit]
            ]
        scores = self._index.score(text_tokens(text), candidates)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            SearchHit(self._index.docs[i], s) for i, s in ranked if s > 0.0
        ][:limit]

    def _dense_search(
        self, text: str, filters: SearchFilters,
        subtree_sets: list[frozenset[str]], limit: int,
    ) -> list[SearchHit]:
        # Classification key sets batch-loaded in one pass (previously one
        # link-table query per material per search).
        keys_by_id = self.repo.classification_keys()
        candidates: list[tuple[int, Material]] = []
        for idx, material in enumerate(self._materials):
            assert material.id is not None
            keys = keys_by_id.get(material.id, frozenset())
            if filters.matches(material, keys, subtree_sets):
                candidates.append((idx, material))

        if not text.strip():
            return [SearchHit(m, 1.0) for _, m in candidates[:limit]]

        if self._vectorizer is None or self._matrix is None or not candidates:
            return []
        qvec = self._vectorizer.transform([text])
        rows = np.array([idx for idx, _ in candidates])
        sims = cosine_matrix(qvec, self._matrix[rows]).ravel()
        order = np.argsort(-sims, kind="stable")
        hits = [
            SearchHit(candidates[int(i)][1], float(sims[int(i)]))
            for i in order
            if sims[int(i)] > 0.0
        ]
        return hits[:limit]

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
        if self.mode == MODE_BM25:
            if material_id not in self._index:
                raise KeyError(f"no material with id {material_id}")
            tokens = self._index.doc_tokens(material_id)
            candidates = set(self._index.docs)
            candidates.discard(material_id)
            scores = self._index.score(tokens, candidates)
            ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
            return [
                SearchHit(self._index.docs[i], s)
                for i, s in ranked if s > 0.0
            ][:limit]
        if self._matrix is None:
            raise KeyError(f"no material with id {material_id}")
        try:
            row = next(
                i for i, m in enumerate(self._materials) if m.id == material_id
            )
        except StopIteration:
            raise KeyError(f"no material with id {material_id}") from None
        sims = cosine_matrix(
            self._matrix[row : row + 1], self._matrix
        ).ravel()
        sims[row] = -1.0
        order = np.argsort(-sims, kind="stable")[:limit]
        return [
            SearchHit(self._materials[int(i)], float(sims[int(i)]))
            for i in order
            if sims[int(i)] > 0.0
        ]

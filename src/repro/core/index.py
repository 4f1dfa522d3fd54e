"""Incremental inverted index over materials: BM25 text + facet postings.

This is the index behind :mod:`repro.core.search` and the paper's use
case A ("explicitly filter against a group of features ... traditional
search tools", Section III-A):

* a **token → postings** inverted index (``{token: {doc_id: tf}}``) with
  cached per-document lengths, scored with BM25 at query time;
* **per-facet posting sets** (kind, course level, language, collection,
  tag, dataset presence, classification key) intersected *before*
  scoring, so a query never scans the whole corpus;
* O(changed document) **delta maintenance**: :meth:`MaterialIndex.add`,
  :meth:`~MaterialIndex.remove` and :meth:`~MaterialIndex.reindex`
  touch only one document's postings, never the rest of the corpus.

Every piece of scoring state is either an exact integer (term counts,
document lengths, their running total) or derived from those integers at
query time, so an incrementally maintained index returns *bit-identical*
scores to one rebuilt from scratch — the invariant the property tests in
``tests/core/test_search_index.py`` enforce over randomized mutation
sequences.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.text import preprocess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .material import Material
    from .search import SearchFilters

# Standard BM25 constants (Robertson et al.): k1 saturates term
# frequency, b scales the document-length normalization.
BM25_K1 = 1.5
BM25_B = 0.75


def text_tokens(text: str) -> list[str]:
    """The index's tokenization: tokenize → stopwords → stemming
    (:func:`repro.text.preprocess`), applied alike to documents and
    queries."""
    return preprocess(text)


class MaterialIndex:
    """Inverted text + facet index over one set of materials.

    Not thread-safe on its own: :class:`repro.core.search.SearchEngine`
    serializes every call under its engine lock.
    """

    def __init__(self) -> None:
        # token -> {doc_id: term frequency}
        self._postings: dict[str, dict[int, int]] = {}
        # doc_id -> {token: term frequency}; the reverse mapping that
        # makes removal O(document tokens) instead of O(vocabulary).
        self._doc_terms: dict[int, dict[str, int]] = {}
        self._doc_lengths: dict[int, int] = {}
        self._total_length = 0  # exact int: parity under any op order
        # Documents by id — the hit payload, kept current by reindex().
        self.docs: dict[int, "Material"] = {}
        # Facet posting sets: facet value -> doc ids.
        self._by_kind: dict[str, set[int]] = {}
        self._by_level: dict[str, set[int]] = {}
        self._by_language: dict[str, set[int]] = {}   # lowercased
        self._by_collection: dict[str, set[int]] = {}
        self._by_tag: dict[str, set[int]] = {}
        self._by_key: dict[str, set[int]] = {}        # classification keys
        self._with_datasets: set[int] = set()
        self._year_of: dict[int, int | None] = {}
        self.keys_of: dict[int, frozenset[str]] = {}
        # Exact sizes of the text and facet postings, kept by every set
        # insertion and removal so stats() never walks the index.
        self._n_postings = 0
        self._n_facet_postings = 0

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.docs)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self.docs

    def doc_tokens(self, doc_id: int) -> list[str]:
        """Distinct indexed tokens of one document (similar-to queries)."""
        return list(self._doc_terms[doc_id])

    def stats(self) -> dict[str, int]:
        """Size gauges: documents, distinct terms, text/facet postings
        (maintained counts; O(1))."""
        return {
            "docs": len(self.docs),
            "terms": len(self._postings),
            "postings": self._n_postings,
            "facet_postings": self._n_facet_postings,
        }

    # -- maintenance ------------------------------------------------------

    def _facet_add(self, index: dict[str, set[int]], value: str,
                   doc_id: int) -> None:
        bucket = index.setdefault(value, set())
        if doc_id not in bucket:  # a repeated tag posts once
            bucket.add(doc_id)
            self._n_facet_postings += 1

    def _facet_remove(self, index: dict[str, set[int]], value: str,
                      doc_id: int) -> None:
        bucket = index.get(value)
        if bucket is not None and doc_id in bucket:
            bucket.remove(doc_id)
            self._n_facet_postings -= 1
            if not bucket:
                del index[value]

    def add(self, material: "Material", keys: frozenset[str]) -> None:
        """Index one material (text + facets); O(material tokens)."""
        doc_id = material.id
        assert doc_id is not None
        if doc_id in self.docs:
            raise ValueError(f"material {doc_id} already indexed")
        terms: dict[str, int] = {}
        for token in text_tokens(material.text()):
            terms[token] = terms.get(token, 0) + 1
        length = sum(terms.values())
        for token, tf in terms.items():
            self._postings.setdefault(token, {})[doc_id] = tf
        self._n_postings += len(terms)
        self._doc_terms[doc_id] = terms
        self._doc_lengths[doc_id] = length
        self._total_length += length
        self.docs[doc_id] = material

        self._facet_add(self._by_kind, material.kind.value, doc_id)
        if material.course_level is not None:
            self._facet_add(self._by_level, material.course_level.value, doc_id)
        for lang in material.languages:
            self._facet_add(self._by_language, lang.lower(), doc_id)
        if material.collection:
            self._facet_add(self._by_collection, material.collection, doc_id)
        for tag in material.tags:
            self._facet_add(self._by_tag, tag, doc_id)
        for key in keys:
            self._facet_add(self._by_key, key, doc_id)
        if material.datasets:
            self._with_datasets.add(doc_id)
            self._n_facet_postings += 1
        self._year_of[doc_id] = material.year
        self.keys_of[doc_id] = keys

    def remove(self, doc_id: int) -> bool:
        """Drop one material from every posting; O(material tokens)."""
        material = self.docs.pop(doc_id, None)
        if material is None:
            return False
        terms = self._doc_terms.pop(doc_id)
        self._total_length -= self._doc_lengths.pop(doc_id)
        self._n_postings -= len(terms)
        for token in terms:
            plist = self._postings[token]
            del plist[doc_id]
            if not plist:
                del self._postings[token]

        self._facet_remove(self._by_kind, material.kind.value, doc_id)
        if material.course_level is not None:
            self._facet_remove(self._by_level, material.course_level.value, doc_id)
        for lang in material.languages:
            self._facet_remove(self._by_language, lang.lower(), doc_id)
        if material.collection:
            self._facet_remove(self._by_collection, material.collection, doc_id)
        for tag in material.tags:
            self._facet_remove(self._by_tag, tag, doc_id)
        for key in self.keys_of.pop(doc_id):
            self._facet_remove(self._by_key, key, doc_id)
        if doc_id in self._with_datasets:
            self._with_datasets.remove(doc_id)
            self._n_facet_postings -= 1
        del self._year_of[doc_id]
        return True

    def reindex(self, material: "Material", keys: frozenset[str]) -> None:
        """Replace one material's postings with its current state."""
        assert material.id is not None
        self.remove(material.id)
        self.add(material, keys)

    # -- faceted candidate selection --------------------------------------

    def candidates(
        self,
        filters: "SearchFilters",
        subtree_sets: Sequence[frozenset[str]] = (),
    ) -> set[int] | None:
        """Doc ids satisfying every facet constraint, via posting-set
        intersection (no per-material scan); ``None`` when nothing
        narrows, meaning every document."""
        cand: set[int] | None = None

        def narrow(matching: set[int]) -> None:
            nonlocal cand
            cand = set(matching) if cand is None else cand & matching

        def union(index: Mapping[str, set[int]], values: Iterable[str]) -> set[int]:
            out: set[int] = set()
            for value in values:
                out |= index.get(value, set())
            return out

        if filters.kinds:
            narrow(union(self._by_kind, (k.value for k in filters.kinds)))
        if filters.course_levels:
            narrow(union(self._by_level, (c.value for c in filters.course_levels)))
        if filters.languages:
            narrow(union(self._by_language, (l.lower() for l in filters.languages)))
        if filters.collections:
            narrow(union(self._by_collection, filters.collections))
        if filters.tags:
            narrow(union(self._by_tag, filters.tags))
        if filters.datasets_required is True:
            narrow(self._with_datasets)
        elif filters.datasets_required is False:
            narrow(self.docs.keys() - self._with_datasets)
        for subtree in subtree_sets:
            # Conjunctive across subtrees, disjunctive within one: the
            # material must touch every requested subtree somewhere.
            narrow(union(self._by_key, subtree))
        if filters.years is not None:
            lo, hi = filters.years
            cand = {
                i for i in (self.docs if cand is None else cand)
                if self._year_of[i] is not None and lo <= self._year_of[i] <= hi
            }
        return cand

    # -- BM25 scoring ------------------------------------------------------

    def score(
        self, tokens: Iterable[str], candidates: set[int] | None
    ) -> dict[int, float]:
        """BM25 scores of ``candidates`` (``None``: every document)
        against the (deduplicated) query tokens; documents matching no
        token are absent from the result.

        All inputs to the float arithmetic (tf, df, N, document lengths,
        their running total) are exact integers maintained identically by
        incremental and from-scratch builds, and per-document
        contributions accumulate in query-token order — so scores are
        reproducible bit-for-bit across build histories.
        """
        n_docs = len(self.docs)
        if n_docs == 0 or candidates is not None and not candidates:
            return {}
        avgdl = self._total_length / n_docs
        scores: dict[int, float] = {}
        seen: set[str] = set()
        for token in tokens:
            if token in seen:
                continue
            seen.add(token)
            plist = self._postings.get(token)
            if not plist:
                continue
            df = len(plist)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            # Iterate the smaller side of the (postings, candidates) pair.
            if candidates is None:
                pairs = plist.items()
            elif len(candidates) < len(plist):
                pairs = ((d, plist[d]) for d in candidates if d in plist)
            else:
                pairs = ((d, tf) for d, tf in plist.items() if d in candidates)
            for doc_id, tf in pairs:
                if avgdl > 0.0:
                    norm = 1.0 - BM25_B + BM25_B * (self._doc_lengths[doc_id] / avgdl)
                else:
                    norm = 1.0
                gain = idf * (tf * (BM25_K1 + 1.0)) / (tf + BM25_K1 * norm)
                scores[doc_id] = scores.get(doc_id, 0.0) + gain
        return scores

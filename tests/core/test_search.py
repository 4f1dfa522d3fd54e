"""Faceted + full-text search: facet semantics, ranking and the edge
cases of the BM25 inverted index."""

import threading

import pytest

from repro.core.classification import ClassificationSet
from repro.core.material import CourseLevel, Material, MaterialKind
from repro.core.search import SearchEngine, SearchFilters
from repro.corpus import keys as K


@pytest.fixture()
def engine(fresh_repo):
    def add(title, desc, *, keys=(), **mat):
        cs = ClassificationSet()
        for key in keys:
            cs.add(key.split("/", 1)[0], key)
        return fresh_repo.add_material(
            Material(title=title, description=desc, **mat), cs
        )

    add("Parallel loops with OpenMP", "Use OpenMP pragmas for parallel loops",
        keys=[K.P_OPENMP, K.PD_LOOPS], languages=("C",),
        course_level=CourseLevel.INTERMEDIATE, collection="pdc", year=2018)
    add("Sorting visualizer", "Animate bubble sort and merge sort",
        keys=[K.AL_SORT_QUAD], languages=("Python",),
        course_level=CourseLevel.CS1, collection="intro", year=2015,
        datasets=("random numbers",))
    add("Binary search trees", "Build a BST with insert and delete",
        keys=[K.AL_BST], languages=("Java",),
        course_level=CourseLevel.CS2, collection="intro", year=2012,
        kind=MaterialKind.LECTURE_SLIDES, tags=("trees",))
    return SearchEngine(fresh_repo)


class TestFullText:
    def test_ranked_by_relevance(self, engine):
        hits = engine.search("parallel openmp loops")
        assert hits[0].material.title == "Parallel loops with OpenMP"
        assert hits[0].score > 0

    def test_empty_query_returns_facet_matches(self, engine):
        hits = engine.search("", SearchFilters(collections=("intro",)))
        assert len(hits) == 2
        assert all(h.score == 1.0 for h in hits)

    def test_no_match_returns_empty(self, engine):
        assert engine.search("quantum entanglement blockchain") == []

    def test_limit(self, engine):
        assert len(engine.search("sort search tree loops", limit=1)) <= 1


class TestFacets:
    def test_filter_by_language_case_insensitive(self, engine):
        hits = engine.search("", SearchFilters(languages=("python",)))
        assert [h.material.title for h in hits] == ["Sorting visualizer"]

    def test_filter_by_kind(self, engine):
        hits = engine.search(
            "", SearchFilters(kinds=(MaterialKind.LECTURE_SLIDES,))
        )
        assert [h.material.title for h in hits] == ["Binary search trees"]

    def test_filter_by_course_level(self, engine):
        hits = engine.search("", SearchFilters(course_levels=(CourseLevel.CS1,)))
        assert [h.material.title for h in hits] == ["Sorting visualizer"]

    def test_filter_by_year_range(self, engine):
        hits = engine.search("", SearchFilters(years=(2014, 2019)))
        titles = {h.material.title for h in hits}
        assert titles == {"Parallel loops with OpenMP", "Sorting visualizer"}

    def test_filter_requires_datasets(self, engine):
        hits = engine.search("", SearchFilters(datasets_required=True))
        assert [h.material.title for h in hits] == ["Sorting visualizer"]

    def test_filter_rejects_datasets(self, engine):
        hits = engine.search("", SearchFilters(datasets_required=False))
        assert len(hits) == 2

    def test_filter_by_tags(self, engine):
        hits = engine.search("", SearchFilters(tags=("trees",)))
        assert [h.material.title for h in hits] == ["Binary search trees"]

    def test_filter_under_ontology_subtree(self, engine):
        # everything under the CS13 Algorithms area
        hits = engine.search("", SearchFilters(under=("CS13/AL",)))
        titles = {h.material.title for h in hits}
        assert titles == {"Sorting visualizer", "Binary search trees"}

    def test_filter_under_pdc_subtree(self, engine):
        hits = engine.search("", SearchFilters(under=("PDC12/PROG",)))
        assert [h.material.title for h in hits] == ["Parallel loops with OpenMP"]

    def test_multiple_subtrees_are_conjunctive(self, engine):
        hits = engine.search(
            "", SearchFilters(under=("PDC12/PROG", "CS13/AL"))
        )
        assert hits == []

    def test_facets_combine_with_text(self, engine):
        hits = engine.search("sort", SearchFilters(collections=("intro",)))
        assert hits and hits[0].material.title == "Sorting visualizer"


class TestSimilarTo:
    def test_similar_to_excludes_self(self, engine, fresh_repo):
        first = fresh_repo.materials()[0]
        hits = engine.similar_to(first.id)
        assert all(h.material.id != first.id for h in hits)

    def test_unknown_material(self, engine):
        with pytest.raises(KeyError):
            engine.similar_to(9999)

    def test_index_refreshes_after_insert(self, engine, fresh_repo):
        engine.search("x")  # force initial index
        fresh_repo.add_material(
            Material(title="Graph coloring", description="color a graph",
                     collection="new")
        )
        hits = engine.search("graph coloring")
        assert hits and hits[0].material.title == "Graph coloring"


class TestEdgeCases:
    """The corners the original suite missed (ISSUE 3 satellite)."""

    @pytest.fixture()
    def empty_engine(self, fresh_repo):
        return SearchEngine(fresh_repo)

    def test_empty_corpus_text_search(self, empty_engine):
        assert empty_engine.search("anything at all") == []

    def test_empty_corpus_facet_search(self, empty_engine):
        assert empty_engine.search(
            "", SearchFilters(collections=("nowhere",))
        ) == []

    def test_empty_corpus_similar_to(self, empty_engine):
        with pytest.raises(KeyError):
            empty_engine.similar_to(1)

    def test_stopword_only_query_matches_nothing(self, engine):
        # Every token is removed by the stopword list, so the query
        # carries no signal; search must return nothing rather than
        # everything.
        assert engine.search("the and of is was") == []

    def test_facet_filter_with_zero_candidates(self, engine):
        assert engine.search(
            "sort", SearchFilters(collections=("no-such-collection",))
        ) == []
        assert engine.search(
            "", SearchFilters(tags=("no-such-tag",), languages=("python",))
        ) == []

    def test_similar_to_just_deleted_material(self, engine, fresh_repo):
        victim = fresh_repo.materials()[0]
        assert engine.similar_to(victim.id) is not None  # warm index
        fresh_repo.delete_material(victim.id)
        with pytest.raises(KeyError):
            engine.similar_to(victim.id)

    def test_deleted_material_leaves_search_results(self, engine, fresh_repo):
        victim = fresh_repo.materials()[0]  # the OpenMP material
        assert engine.search("openmp")
        fresh_repo.delete_material(victim.id)
        assert engine.search("openmp") == []

    def test_concurrent_searches_and_writes(self, engine, fresh_repo):
        """Searches pin a committed snapshot and reconcile the shared
        index under the engine lock while writers commit concurrently:
        no crash, no half-built index, and the final state matches a
        from-scratch engine."""
        errors: list[BaseException] = []
        stop = threading.Event()

        def searcher():
            try:
                while not stop.is_set():
                    for hit in engine.search("sort parallel tree"):
                        assert hit.score > 0.0
                    engine.search("", SearchFilters(collections=("intro",)))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=searcher) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(25):
                m = fresh_repo.add_material(
                    Material(title=f"churn {i}", description="sort graph")
                )
                fresh_repo.update_material(m.id, description="parallel scan")
                fresh_repo.delete_material(m.id)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert errors == []
        reference = SearchEngine(fresh_repo)
        reference.refresh()
        got = [(h.material.id, h.score) for h in engine.search("sort")]
        want = [(h.material.id, h.score) for h in reference.search("sort")]
        assert got == want

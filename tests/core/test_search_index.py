"""The incremental inverted index: unit behaviour, rebuild parity and
a linear-scan oracle for hit sets.

The load-bearing properties:

* after *any* sequence of repository mutations, the incrementally
  maintained BM25 index answers every query identically — same hits,
  bit-identical scores — to an index rebuilt from scratch;
* the hit set of a query is exactly what a scan of every material
  finds: the materials that pass each facet constraint and, for a
  non-empty query, share at least one token with it.  BM25's idf is
  always positive, so every shared token scores above zero.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Sequence

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.classification import ClassificationSet
from repro.core.index import MaterialIndex, text_tokens
from repro.core.material import CourseLevel, Material, MaterialKind
from repro.core.repository import Repository
from repro.core.search import SearchEngine, SearchFilters
from repro.corpus import keys as K
from repro.corpus.seed import seed_ontologies

WORDS = (
    "parallel", "distributed", "graph", "matrix", "sort", "thread",
    "openmp", "mpi", "cuda", "loop", "queue", "tree", "hash", "monte",
    "carlo", "pipeline", "reduce", "broadcast", "simulation", "kernel",
)
KEYS = (K.P_OPENMP, K.PD_LOOPS, K.AL_SORT_QUAD, K.AL_BST, K.SDF_ARRAYS,
        K.SDF_CTRL, K.SDF_RECURSION)
PROBES = (
    ("parallel graph sort", None),
    ("monte carlo simulation", None),
    ("thread queue", SearchFilters(collections=("alpha",))),
    ("", SearchFilters(under=("CS13/AL",))),
    ("loop matrix", SearchFilters(years=(2012, 2018))),
    ("", None),
)


def _mk_material(rng: random.Random, i: int) -> Material:
    return Material(
        title=" ".join(rng.sample(WORDS, 3)) + f" {i}",
        description=" ".join(rng.choices(WORDS, k=8)),
        kind=rng.choice(list(MaterialKind)),
        course_level=rng.choice(list(CourseLevel) + [None]),
        languages=tuple(rng.sample(("Python", "C", "Java"), rng.randint(0, 2))),
        datasets=("numbers",) if rng.random() < 0.3 else (),
        tags=tuple(rng.sample(("intro", "hpc", "viz"), rng.randint(0, 2))),
        collection=rng.choice(("alpha", "beta", "")),
        year=rng.choice((None, 2010, 2015, 2018)),
    )


def _classification(keys) -> ClassificationSet:
    cs = ClassificationSet()
    for key in keys:
        cs.add(key.split("/", 1)[0], key)
    return cs


def _assert_parity(incremental: SearchEngine, repo) -> None:
    rebuilt = SearchEngine(repo)
    rebuilt.refresh()
    for text, filters in PROBES:
        got = incremental.search(text, filters, limit=50)
        want = rebuilt.search(text, filters, limit=50)
        assert [h.material.id for h in got] == [h.material.id for h in want]
        assert [h.score for h in got] == [h.score for h in want]  # bitwise
    for mid in sorted(rebuilt._index.docs)[:5]:
        got = incremental.similar_to(mid, limit=10)
        want = rebuilt.similar_to(mid, limit=10)
        assert [(h.material.id, h.score) for h in got] == [
            (h.material.id, h.score) for h in want
        ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_mutation_sequences_match_full_rebuild(fresh_repo, seed):
    rng = random.Random(seed)
    engine = SearchEngine(fresh_repo)
    ids: list[int] = []
    for i in range(8):  # starting corpus
        cs = _classification(rng.sample(KEYS, rng.randint(0, 3)))
        ids.append(fresh_repo.add_material(_mk_material(rng, i), cs).id)
    engine.search("parallel")  # build once; everything after is delta

    for step in range(40):
        op = rng.random()
        if op < 0.3 or not ids:
            cs = _classification(rng.sample(KEYS, rng.randint(0, 3)))
            ids.append(
                fresh_repo.add_material(_mk_material(rng, 100 + step), cs).id
            )
        elif op < 0.5:
            fresh_repo.update_material(
                rng.choice(ids),
                title=" ".join(rng.sample(WORDS, 3)),
                description=" ".join(rng.choices(WORDS, k=6)),
            )
        elif op < 0.65:
            key = rng.choice(KEYS)
            fresh_repo.classify(
                rng.choice(ids), key.split("/", 1)[0], key
            )
        elif op < 0.8:
            fresh_repo.declassify(rng.choice(ids), rng.choice(KEYS))
        else:
            mid = ids.pop(rng.randrange(len(ids)))
            fresh_repo.delete_material(mid)
        if step % 5 == 4:
            _assert_parity(engine, fresh_repo)
    _assert_parity(engine, fresh_repo)
    # The whole run must have been served by delta catch-up: the one
    # eager build, then never a refit.
    assert engine.full_rebuilds == 1
    assert engine.delta_catchups > 0


class TestDeltaMaintenance:
    def test_single_patch_reindexes_one_doc(self, fresh_repo):
        for i in range(5):
            fresh_repo.add_material(
                Material(title=f"material {i}", description="graph sort")
            )
        engine = SearchEngine(fresh_repo)
        engine.search("graph")
        assert engine.full_rebuilds == 1
        mid = fresh_repo.materials()[0].id
        fresh_repo.update_material(mid, title="updated openmp loops")
        hits = engine.search("openmp")
        assert [h.material.id for h in hits] == [mid]
        assert engine.full_rebuilds == 1
        assert engine.delta_catchups == 1
        assert engine.docs_reindexed == 1

    def test_irrelevant_tables_do_not_touch_the_index(self, fresh_repo):
        from repro.core.repository import Role

        fresh_repo.add_material(Material(title="alpha", description="beta"))
        engine = SearchEngine(fresh_repo)
        engine.search("alpha")
        fresh_repo.add_user("reader", Role.USER)
        engine.search("alpha")
        assert engine.full_rebuilds == 1
        assert engine.docs_reindexed == 0  # user writes are filtered out

    def test_outrun_journal_falls_back_to_full_rebuild(self):
        repo = Repository()
        seed_ontologies(repo)
        engine = SearchEngine(repo)
        engine.search("x")
        builds = engine.full_rebuilds
        # Far more mutations than the journal retains (each add_material
        # writes several rows across materials + link + name tables).
        for i in range(600):
            repo.add_material(
                Material(title=f"bulk {i}", description="graph sort",
                         tags=(f"t{i}",), languages=("Python",))
            )
        engine.search("bulk")
        assert engine.full_rebuilds == builds + 1
        assert engine.search("graph", limit=1000)

    def test_index_built_in_transaction_is_not_kept(self, fresh_repo):
        fresh_repo.add_material(Material(title="committed", description="x"))
        engine = SearchEngine(fresh_repo)
        with pytest.raises(RuntimeError):
            with fresh_repo.db.transaction():
                fresh_repo.add_material(
                    Material(title="phantom", description="x")
                )
                # Inside the transaction the phantom row is visible...
                titles = [
                    h.material.title for h in engine.search("phantom")
                ]
                assert titles == ["phantom"]
                raise RuntimeError("abort")
        # ...after rollback it is gone, even though the version counter
        # was restored (the re-used-version trap).
        assert engine.search("phantom") == []
        assert [h.material.title for h in engine.search("committed")]


class TestMaterialIndex:
    def test_add_remove_roundtrip_is_clean(self):
        index = MaterialIndex()
        m = Material(title="parallel sorting", description="with threads",
                     tags=("hpc",), languages=("C",), collection="alpha",
                     year=2018, datasets=("d",), id=7)
        index.add(m, frozenset({"CS13/AL"}))
        assert index.stats()["docs"] == 1
        assert index.stats()["postings"] > 0
        assert index.remove(7)
        stats = index.stats()
        assert stats == {"docs": 0, "terms": 0, "postings": 0,
                         "facet_postings": 0}
        assert not index.remove(7)

    def test_double_add_rejected(self):
        index = MaterialIndex()
        m = Material(title="x y", description="", id=1)
        index.add(m, frozenset())
        with pytest.raises(ValueError):
            index.add(m, frozenset())

    def test_candidates_intersect_facets(self):
        index = MaterialIndex()
        index.add(Material(title="a b", description="", languages=("C",),
                           collection="alpha", id=1), frozenset())
        index.add(Material(title="c d", description="", languages=("C",),
                           collection="beta", id=2), frozenset())
        both = index.candidates(SearchFilters(languages=("c",)))
        assert both == {1, 2}
        one = index.candidates(
            SearchFilters(languages=("c",), collections=("alpha",))
        )
        assert one == {1}

    def test_scores_empty_on_empty_index(self):
        assert MaterialIndex().score(["anything"], set()) == {}


def _facet_match(filters: SearchFilters, material: Material,
                 classified_keys: frozenset[str],
                 subtree_sets: Sequence[frozenset[str]]) -> bool:
    """The facet predicate, one material at a time."""
    if filters.kinds and material.kind not in filters.kinds:
        return False
    if (filters.course_levels
            and material.course_level not in filters.course_levels):
        return False
    if filters.languages and not (
        set(l.lower() for l in filters.languages)
        & set(l.lower() for l in material.languages)
    ):
        return False
    if filters.datasets_required is True and not material.datasets:
        return False
    if filters.datasets_required is False and material.datasets:
        return False
    if filters.collections and material.collection not in filters.collections:
        return False
    if filters.years is not None:
        lo, hi = filters.years
        if material.year is None or not (lo <= material.year <= hi):
            return False
    if filters.tags and not (set(filters.tags) & set(material.tags)):
        return False
    # Every requested subtree must be touched by the classification.
    for subtree in subtree_sets:
        if not (classified_keys & subtree):
            return False
    return True


def _scan_hits(repo, text: str, filters: SearchFilters | None) -> set[int]:
    """Linear-scan oracle: the ids a search for ``text`` must return."""
    filters = filters or SearchFilters()
    subtree_sets = [
        frozenset(repo.ontology(key.split("/", 1)[0]).subtree_keys(key))
        for key in filters.under
    ]
    keys_by_id = repo.classification_keys()
    query = set(text_tokens(text))
    return {
        m.id for m in repo.materials()
        if _facet_match(filters, m, keys_by_id.get(m.id, frozenset()),
                        subtree_sets)
        and (not text.strip() or query & set(text_tokens(m.text())))
    }


def test_hit_sets_equal_linear_scan(fresh_repo):
    rng = random.Random(42)
    for i in range(10):
        fresh_repo.add_material(
            _mk_material(rng, i), _classification(rng.sample(KEYS, 2))
        )
    engine = SearchEngine(fresh_repo)
    for text, filters in PROBES:
        got = {h.material.id for h in engine.search(text, filters, limit=100)}
        assert got == _scan_hits(fresh_repo, text, filters)


@pytest.fixture(scope="module")
def ontology_repo():
    repo = Repository()
    seed_ontologies(repo)
    return repo


def _subset(values, min_size=0):
    return st.lists(
        st.sampled_from(values), unique=True, min_size=min_size, max_size=2
    ).map(tuple)


_words = st.lists(
    st.sampled_from(WORDS + ("the", "of", "quantum")), min_size=1, max_size=6
).map(" ".join)
_materials = st.builds(
    Material,
    title=_words,
    description=_words,
    kind=st.sampled_from(list(MaterialKind)),
    course_level=st.sampled_from(list(CourseLevel) + [None]),
    languages=_subset(("Python", "C", "Java")),
    datasets=st.sampled_from(((), ("numbers",))),
    tags=_subset(("intro", "hpc", "viz")),
    collection=st.sampled_from(("alpha", "beta", "")),
    year=st.sampled_from((None, 2010, 2015, 2018)),
)
#: One constraint per facet, never 'any'.
_FACETS = {
    "kinds": _subset(list(MaterialKind), 1),
    "course_levels": _subset(list(CourseLevel), 1),
    "languages": _subset(("python", "C", "java", "Rust"), 1),
    "datasets_required": st.booleans(),
    "collections": _subset(("alpha", "beta", "gamma"), 1),
    "years": st.sampled_from(((2010, 2015), (2016, 2020))),
    "under": _subset(("CS13/AL", "CS13/SDF", "PDC12/PROG"), 1),
    "tags": _subset(("intro", "hpc", "nowhere"), 1),
}


class _Rollback(Exception):
    pass


# The explain phase re-runs a failing example hundreds of times for
# minutes; shrinking alone already reports a minimal corpus.
@settings(max_examples=50, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(
    corpus=st.lists(
        st.tuples(_materials, _subset(KEYS)), min_size=3, max_size=10
    ),
    text=_words,
    facets=st.fixed_dictionaries(_FACETS),
)
def test_drawn_hit_sets_equal_linear_scan(ontology_repo, corpus, text, facets):
    """Every facet is probed alone, and all of them together, with and
    without query text.  Each drawn corpus lives in a transaction that
    is rolled back, so the shared ontology repository stays empty of
    materials."""
    probes = [SearchFilters(), SearchFilters(**facets)] + [
        SearchFilters(**{name: value}) for name, value in facets.items()
    ]
    repo = ontology_repo
    engine = SearchEngine(repo)
    with pytest.raises(_Rollback):
        with repo.db.transaction():
            for material, keys in corpus:
                repo.add_material(material, _classification(keys))
            for filters in probes:
                for query in ("", text):
                    got = {
                        h.material.id
                        for h in engine.search(query, filters, limit=100)
                    }
                    assert got == _scan_hits(repo, query, filters)
            raise _Rollback


# -- search windows and the maintained gauges ----------------------------

_page_windows = st.lists(
    st.tuples(st.integers(0, 12), st.one_of(st.none(), st.integers(0, 6))),
    min_size=1, max_size=4,
)
_mutations = st.lists(
    st.tuples(st.sampled_from(("add", "update", "classify", "delete")),
              st.integers(0, 99), _words),
    max_size=6,
)


@settings(max_examples=40, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(
    corpus=st.lists(
        st.tuples(_materials, _subset(KEYS)), min_size=1, max_size=10
    ),
    mutations=_mutations,
    text=st.one_of(st.just(""), _words),
    facets=st.fixed_dictionaries({}, optional=_FACETS),
    windows=_page_windows,
)
def test_page_equals_sliced_full_ranking(corpus, mutations, text, facets,
                                         windows):
    """After drawn writes absorbed by delta catch-up, every drawn
    ``offset``/``limit`` window of :meth:`SearchEngine.search` is the
    same slice of the full ranking (``limit=None``), and ``total`` is
    its length; the full ranking is the linear-scan hit set in
    ``(-score, id)`` order."""
    repo = Repository()
    seed_ontologies(repo)
    engine = SearchEngine(repo)
    ids = [repo.add_material(m, _classification(k)).id for m, k in corpus]
    engine.search("parallel")
    for op, n, words in mutations:
        if op == "add" or not ids:
            ids.append(repo.add_material(
                Material(title=words, description=words)
            ).id)
            continue
        mid = ids[n % len(ids)]
        if op == "update":
            repo.update_material(mid, title=words)
        elif op == "classify":
            key = KEYS[n % len(KEYS)]
            repo.classify(mid, key.split("/", 1)[0], key)
        else:
            repo.delete_material(mid)
            ids.remove(mid)
    filters = SearchFilters(**facets)
    everything = engine.search(text, filters, limit=None)
    assert engine.full_rebuilds == 1
    assert {h.material.id for h in everything} == _scan_hits(
        repo, text, filters
    )
    keys = [(-h.score, h.material.id) for h in everything]
    assert keys == sorted(keys)
    assert everything.total == len(everything)
    for offset, limit in windows:
        hits = engine.search(text, filters, offset=offset, limit=limit)
        stop = None if limit is None else offset + limit
        assert hits.total == len(everything)
        assert [(h.material.id, h.score) for h in hits] == [
            (h.material.id, h.score) for h in everything[offset:stop]
        ]


def _recount(index: MaterialIndex) -> dict[str, int]:
    """The index gauges, counted from scratch."""
    facets = (index._by_kind, index._by_level, index._by_language,
              index._by_collection, index._by_tag, index._by_key)
    return {
        "docs": len(index.docs),
        "terms": len(index._postings),
        "postings": sum(len(p) for p in index._postings.values()),
        "facet_postings": sum(
            len(bucket) for facet in facets for bucket in facet.values()
        ) + len(index._with_datasets),
    }


#: Materials whose tags and languages may repeat (``"hpc", "hpc"``,
#: ``"Python", "python"``): a repeated facet value posts once.
_repeating_materials = st.builds(
    Material,
    title=_words,
    description=_words,
    kind=st.sampled_from(list(MaterialKind)),
    course_level=st.sampled_from(list(CourseLevel) + [None]),
    languages=st.lists(st.sampled_from(("Python", "python", "C")),
                       max_size=3).map(tuple),
    datasets=st.sampled_from(((), ("numbers",))),
    tags=st.lists(st.sampled_from(("intro", "hpc")), max_size=3).map(tuple),
    collection=st.sampled_from(("alpha", "beta", "")),
    year=st.sampled_from((None, 2010)),
)


@settings(max_examples=80, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(steps=st.lists(
    st.tuples(st.sampled_from(("add", "remove", "reindex")),
              st.integers(1, 5), _repeating_materials,
              st.lists(st.sampled_from(KEYS), max_size=3).map(frozenset)),
    max_size=30,
))
def test_stats_equal_recount(steps):
    index = MaterialIndex()
    for op, doc_id, material, keys in steps:
        material = material.with_id(doc_id)
        if op == "add" and doc_id not in index:
            index.add(material, keys)
        elif op == "remove":
            index.remove(doc_id)
        elif op == "reindex":
            index.reindex(material, keys)
        assert index.stats() == _recount(index)


def test_stats_count_a_repeated_tag_once_and_follow_datasets():
    index = MaterialIndex()
    plain = Material(title="a", description="", tags=("hpc", "hpc"),
                     languages=("C", "c"), id=1)
    index.add(plain, frozenset())
    assert index.stats() == _recount(index)
    # kind + one tag + one language
    assert index.stats()["facet_postings"] == 3
    index.reindex(replace(plain, datasets=("d",)), frozenset({"CS13/AL"}))
    assert index.stats()["facet_postings"] == 5 == _recount(index)[
        "facet_postings"]
    index.reindex(plain, frozenset())
    assert index.stats() == _recount(index)
    index.remove(1)
    assert index.stats() == {"docs": 0, "terms": 0, "postings": 0,
                             "facet_postings": 0}

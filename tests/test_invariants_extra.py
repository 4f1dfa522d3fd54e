"""Property-based tests for the widget, keywords, and curation simulation."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.crowdsim import CurationConfig, simulate
from repro.ontologies import load
from repro.viz.tree_widget import TreeListWidget

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def pdc12_keys():
    onto = load("PDC12")
    return onto, [n.key for n in onto.nodes()]


@SETTINGS
@given(st.data())
def test_widget_visible_rows_always_have_visible_parents(pdc12_keys, data):
    """Whatever sequence of expand/collapse happens, a visible row's
    parent chain is fully expanded."""
    onto, keys = pdc12_keys
    widget = TreeListWidget(onto)
    actions = data.draw(
        st.lists(st.tuples(st.sampled_from(keys), st.booleans()), max_size=20)
    )
    for key, expand in actions:
        if expand:
            widget.expand(key)
        elif key != onto.root.key:
            widget.collapse(key)
    rows = widget.visible_rows()
    expanded = {onto.root.key} | {row.key for row in rows if row.expanded}
    for row in rows:
        for ancestor in onto.ancestors(row.key):
            assert ancestor.key in expanded


@SETTINGS
@given(st.data())
def test_widget_selection_round_trips(pdc12_keys, data):
    onto, keys = pdc12_keys
    selectable = [k for k in keys if k != onto.root.key]
    widget = TreeListWidget(onto)
    chosen = data.draw(st.lists(st.sampled_from(selectable), max_size=10))
    for key in chosen:
        widget.select(key)
    cs = widget.to_classification()
    assert cs.keys(onto.name) == frozenset(chosen)


@SETTINGS
@given(st.text(min_size=1, max_size=12))
def test_widget_search_hits_equal_ontology_search(pdc12_keys, phrase):
    onto, _ = pdc12_keys
    widget = TreeListWidget(onto)
    hits = widget.search(phrase)
    assert hits == len(onto.search(phrase))
    assert len(widget.highlighted()) == hits


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=5.0, max_value=80.0),
    st.integers(min_value=0, max_value=9999),
)
def test_crowdsim_accounting_is_consistent(n_editors, load_per_day, seed):
    """published + backlog never exceeds arrivals, utilization stays in
    [0,1], and sojourns are at least the minimum review time."""
    config = CurationConfig(
        n_editors=n_editors,
        submissions_per_day=load_per_day,
        horizon_days=5.0,
        seed=seed,
    )
    result = simulate(config)
    assert result.published >= 0
    assert 0.0 <= result.editor_utilization <= 1.0
    assert result.mean_queue_length >= 0.0
    if result.published:
        assert result.mean_sojourn_minutes >= config.review_min * (
            1.0 - (config.autosuggest_speedup if config.autosuggest else 0.0)
        ) * 0.999


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=3, max_size=8),
    min_size=4, max_size=10, unique=True,
))
def test_keyword_extraction_scores_bounded(words):
    """Keyword scores are TF-IDF values from L2 rows: within (0, 1]."""
    from repro.text.keywords import KeywordExtractor

    corpus = [" ".join(words[i:i + 3]) for i in range(len(words) - 2)]
    extractor = KeywordExtractor().fit(corpus)
    for doc in corpus:
        for kw in extractor.extract(doc):
            assert 0.0 < kw.score <= 1.0 + 1e-9

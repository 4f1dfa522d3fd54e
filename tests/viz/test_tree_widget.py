"""The headless Figure 1b tree-list widget."""

import pytest

from repro.corpus import keys as K
from repro.viz.tree_widget import TreeListWidget


@pytest.fixture()
def widget(pdc12):
    return TreeListWidget(pdc12)


class TestExpansion:
    def test_initially_only_areas_visible(self, widget, pdc12):
        rows = widget.visible_rows()
        assert len(rows) == len(pdc12.areas())
        assert all(r.depth == 0 for r in rows)

    def test_expanding_area_reveals_units(self, widget):
        widget.expand("PDC12/PROG")
        rows = widget.visible_rows()
        unit_rows = [r for r in rows if r.depth == 1]
        assert unit_rows
        assert all(r.key.startswith("PDC12/PROG/") for r in unit_rows)

    def test_collapse_hides_descendants(self, widget):
        widget.expand("PDC12/PROG")
        widget.collapse("PDC12/PROG")
        assert all(r.depth == 0 for r in widget.visible_rows())

    def test_root_cannot_collapse(self, widget):
        with pytest.raises(ValueError):
            widget.collapse("PDC12")

    def test_expand_unknown_key(self, widget):
        with pytest.raises(KeyError):
            widget.expand("PDC12/NOPE")

    def test_expand_to_reveals_deep_node(self, widget):
        widget.expand_to(K.P_OPENMP)
        keys = {r.key for r in widget.visible_rows()}
        assert K.P_OPENMP in keys


class TestSelection:
    def test_select_and_deselect(self, widget):
        widget.select(K.P_OPENMP)
        assert widget.to_classification().has("PDC12", K.P_OPENMP)
        widget.deselect(K.P_OPENMP)
        assert not widget.to_classification().has("PDC12", K.P_OPENMP)

    def test_root_not_selectable(self, widget):
        with pytest.raises(ValueError):
            widget.select("PDC12")

    def test_selection_round_trips_to_classification(self, widget):
        widget.select(K.P_OPENMP)
        widget.select(K.P_MPI)
        cs = widget.to_classification()
        assert cs.keys("PDC12") == frozenset({K.P_OPENMP, K.P_MPI})


class TestSearch:
    def test_search_highlights_and_reveals(self, widget):
        hits = widget.search("amdahl")
        assert hits == 1
        rows = {r.key: r for r in widget.visible_rows()}
        highlighted = [r for r in rows.values() if r.highlighted]
        assert len(highlighted) == 1
        assert "Amdahl" in highlighted[0].label

    def test_empty_search_clears(self, widget):
        widget.search("amdahl")
        assert widget.search("  ") == 0
        assert widget.highlighted() == frozenset()

    def test_search_does_not_change_selection(self, widget):
        widget.select(K.P_MPI)
        widget.search("openmp")
        assert widget.to_classification().keys("PDC12") == {K.P_MPI}


class TestRendering:
    def test_render_marks(self, widget):
        widget.expand("PDC12/PROG")
        widget.expand_to(K.P_OPENMP)
        widget.select(K.P_OPENMP)
        widget.search("openmp")
        text = widget.render_text()
        assert "v [ ]" in text           # expanded area
        assert "> [ ]" in text           # collapsed area
        assert "[x]*" in text            # selected + highlighted OpenMP row

    def test_render_respects_width(self, widget, pdc12):
        for node in pdc12.areas():
            widget.expand(node.key)
        for line in widget.render_text(width=60).splitlines():
            assert len(line) <= 70

    def test_curation_flow_end_to_end(self, widget):
        """The IV-A workflow: search, select from hits, read back."""
        widget.search("critical regions")
        (hit,) = widget.highlighted()
        widget.select(hit)
        cs = widget.to_classification()
        assert cs.has("PDC12", K.P_CRITICAL)

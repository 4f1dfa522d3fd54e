"""Headless model of the Figure 1b classification tree widget.

"The mapping of a material to a classification ontology is done using a
tree list ... Nodes of the tree can be selected to indicate that the
particular topic is covered by the material.  The mappings that are
selected can be viewed at the bottom of the material description.
Entries can be searched for by entering a word or phrase that becomes
highlighted in the classification." (Section IV-A.)

This is that widget as a pure state machine — expansion, selection, and
search-highlight state over an :class:`~repro.core.ontology.Ontology` —
with a text renderer for terminals and tests.  A GUI front end would
subscribe to it; the curation examples drive it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classification import ClassificationSet
from repro.core.ontology import NodeKind, Ontology


@dataclass
class VisibleRow:
    key: str
    label: str
    depth: int
    expanded: bool
    expandable: bool
    selected: bool
    highlighted: bool


class TreeListWidget:
    """Expand/collapse + select + search state over one ontology."""

    def __init__(self, ontology: Ontology) -> None:
        self.ontology = ontology
        self._expanded: set[str] = {ontology.root.key}
        self._selected: set[str] = set()
        self._highlighted: set[str] = set()
        self._search_phrase = ""

    # -- expansion ---------------------------------------------------------

    def expand(self, key: str) -> None:
        self.ontology.node(key)  # raises on unknown key
        self._expanded.add(key)

    def collapse(self, key: str) -> None:
        if key == self.ontology.root.key:
            raise ValueError("the root row cannot be collapsed")
        self._expanded.discard(key)

    def expand_to(self, key: str) -> None:
        """Expand every ancestor so ``key`` becomes visible."""
        for ancestor in self.ontology.ancestors(key):
            self._expanded.add(ancestor.key)

    # -- selection ----------------------------------------------------------

    def select(self, key: str) -> None:
        node = self.ontology.node(key)
        if node.kind is NodeKind.ROOT:
            raise ValueError("the root is not a classification entry")
        self._selected.add(key)

    def deselect(self, key: str) -> None:
        self._selected.discard(key)

    def to_classification(self) -> ClassificationSet:
        """The widget's current selection as a ClassificationSet — "the
        mappings that are selected" shown under the material."""
        cs = ClassificationSet()
        for key in sorted(self._selected):
            cs.add(self.ontology.name, key)
        return cs

    # -- search ----------------------------------------------------------------

    def search(self, phrase: str) -> int:
        """Highlight entries matching ``phrase`` and expand paths to them;
        returns the number of hits.  Empty phrase clears the highlight."""
        self._search_phrase = phrase.strip()
        self._highlighted = set()
        if not self._search_phrase:
            return 0
        for node in self.ontology.search(self._search_phrase):
            self._highlighted.add(node.key)
            self.expand_to(node.key)
        return len(self._highlighted)

    def highlighted(self) -> frozenset[str]:
        return frozenset(self._highlighted)

    # -- view --------------------------------------------------------------------

    def visible_rows(self) -> list[VisibleRow]:
        """The rows a renderer would draw: children of expanded nodes only,
        in tree order, root excluded."""
        rows: list[VisibleRow] = []

        def walk(key: str, depth: int) -> None:
            node = self.ontology.node(key)
            for child_key in node.children:
                child = self.ontology.node(child_key)
                rows.append(
                    VisibleRow(
                        key=child.key,
                        label=child.label,
                        depth=depth,
                        expanded=child.key in self._expanded,
                        expandable=bool(child.children),
                        selected=child.key in self._selected,
                        highlighted=child.key in self._highlighted,
                    )
                )
                if child.key in self._expanded:
                    walk(child.key, depth + 1)

        walk(self.ontology.root.key, 0)
        return rows

    def render_text(self, *, width: int = 78) -> str:
        """Terminal rendering: [x] selected, > collapsed, v expanded,
        * search highlight."""
        lines = []
        for row in self.visible_rows():
            arrow = (" " if not row.expandable
                     else ("v" if row.expanded else ">"))
            box = "[x]" if row.selected else "[ ]"
            mark = "*" if row.highlighted else " "
            indent = "  " * row.depth
            label = row.label
            budget = width - len(indent) - 8
            if len(label) > budget > 4:
                label = label[: budget - 1] + "…"
            lines.append(f"{indent}{arrow} {box}{mark}{label}")
        return "\n".join(lines)

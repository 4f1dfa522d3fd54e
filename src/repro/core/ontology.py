"""Curriculum ontology trees.

The paper classifies materials against two "well accepted content
ontologies" — ACM/IEEE CS2013 and NSF/IEEE-TCPP PDC2012 — and stores each
classification entry "with a key, the key of the parent, a string
description, and type (separating topics and learning outcomes)"
(Section III-B).  This module provides exactly that representation plus
the tree operations every analysis in the paper relies on: ancestor and
subtree traversal, per-area rollups, depth, and phrase search (the tree
widget in Figure 1b highlights entries matching a typed word or phrase).

Both classifications "are usually hierarchical"; the paper notes the model
"could be extended if the classifications were DAGs instead of trees" —
that extension is implemented here as optional ``cross_links`` (PDC12's
cross-cutting topics reference their sibling areas without breaking the
tree shape).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


class NodeKind(enum.Enum):
    """What an ontology entry is.

    CS13 divides the body of knowledge into knowledge *areas*, then
    knowledge *units*, which contain *topics* and *learning outcomes*.
    PDC12 uses areas, sub-areas (modelled as UNIT), and topics whose
    learning outcomes are folded into the topic text.
    """

    ROOT = "root"
    AREA = "area"
    UNIT = "unit"
    TOPIC = "topic"
    LEARNING_OUTCOME = "learning_outcome"


class Tier(enum.Enum):
    """Coverage requirement tier.

    CS13: core-1 (must cover 100%), core-2 (should cover ≥80%), elective.
    PDC12 "only exposes two levels: core and elective" — mapped to CORE
    and ELECTIVE here.
    """

    CORE1 = "core1"
    CORE2 = "core2"
    CORE = "core"
    ELECTIVE = "elective"
    NONE = "none"


class BloomLevel(enum.Enum):
    """Expected mastery level attached to entries.

    PDC12 uses Know / Comprehend / Apply; CS13 expresses its learning
    outcomes as Familiarity / Usage / Assessment.  Both are kept in one
    enum with an explicit ordering so coverage analyses can compare a
    material's demonstrated level with the curriculum's expectation.
    """

    KNOW = "know"
    COMPREHEND = "comprehend"
    APPLY = "apply"
    FAMILIARITY = "familiarity"
    USAGE = "usage"
    ASSESSMENT = "assessment"

    def rank(self) -> int:
        """Position within the level's own scale (both scales are 3 deep)."""
        order = {
            BloomLevel.KNOW: 0,
            BloomLevel.FAMILIARITY: 0,
            BloomLevel.COMPREHEND: 1,
            BloomLevel.USAGE: 1,
            BloomLevel.APPLY: 2,
            BloomLevel.ASSESSMENT: 2,
        }
        return order[self]


@dataclass
class OntologyNode:
    """One entry of a classification ontology.

    ``key`` is the stable hierarchical identifier (e.g. ``"CS13/PD/PD.2/t3"``),
    ``code`` the short display code for tagged first-level nodes in
    Figure 2 (e.g. ``"PD"``), and ``label`` the human-readable description.
    """

    key: str
    label: str
    kind: NodeKind
    parent: str | None = None
    code: str = ""
    tier: Tier = Tier.NONE
    bloom: BloomLevel | None = None
    hours: float = 0.0
    cross_links: tuple[str, ...] = ()
    children: list[str] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children


class Ontology:
    """An immutable-after-build classification tree with fast lookups."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._nodes: dict[str, OntologyNode] = {}
        root = OntologyNode(key=name, label=name, kind=NodeKind.ROOT)
        self._nodes[name] = root
        self.root = root

    # -- construction -------------------------------------------------------

    def add(
        self,
        key: str,
        label: str,
        kind: NodeKind,
        parent: str | None = None,
        *,
        code: str = "",
        tier: Tier = Tier.NONE,
        bloom: BloomLevel | None = None,
        hours: float = 0.0,
        cross_links: tuple[str, ...] = (),
    ) -> OntologyNode:
        """Insert a node under ``parent`` (default: the root)."""
        if key in self._nodes:
            raise ValueError(f"duplicate ontology key {key!r}")
        parent_key = parent if parent is not None else self.root.key
        if parent_key not in self._nodes:
            raise KeyError(f"unknown parent {parent_key!r} for {key!r}")
        node = OntologyNode(
            key=key,
            label=label,
            kind=kind,
            parent=parent_key,
            code=code,
            tier=tier,
            bloom=bloom,
            hours=hours,
            cross_links=cross_links,
        )
        self._nodes[key] = node
        self._nodes[parent_key].children.append(key)
        return node

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        Invariants: single root; every non-root node has an existing
        parent that lists it as a child exactly once; no cycles; every
        cross link resolves.
        """
        seen: set[str] = set()
        stack = [self.root.key]
        while stack:
            key = stack.pop()
            if key in seen:
                raise ValueError(f"cycle or duplicate reachability at {key!r}")
            seen.add(key)
            node = self._nodes[key]
            for child in node.children:
                if child not in self._nodes:
                    raise ValueError(f"{key!r} lists unknown child {child!r}")
                if self._nodes[child].parent != key:
                    raise ValueError(f"parent/child mismatch at {child!r}")
                stack.append(child)
        unreachable = set(self._nodes) - seen
        if unreachable:
            raise ValueError(f"unreachable nodes: {sorted(unreachable)[:5]}")
        for node in self._nodes.values():
            for link in node.cross_links:
                if link not in self._nodes:
                    raise ValueError(
                        f"{node.key!r} cross-links to unknown {link!r}"
                    )

    # -- lookups --------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def __len__(self) -> int:
        """Number of entries, excluding the synthetic root.

        The paper reports "the CS13 classification contains about 3000
        entries" — this is the count that claim refers to.
        """
        return len(self._nodes) - 1

    def node(self, key: str) -> OntologyNode:
        try:
            return self._nodes[key]
        except KeyError:
            raise KeyError(f"{self.name} has no entry {key!r}") from None

    def get(self, key: str) -> OntologyNode | None:
        return self._nodes.get(key)

    def children(self, key: str) -> list[OntologyNode]:
        return [self._nodes[c] for c in self.node(key).children]

    def parent(self, key: str) -> OntologyNode | None:
        p = self.node(key).parent
        return self._nodes[p] if p is not None else None

    def areas(self) -> list[OntologyNode]:
        """First-level nodes (the tagged nodes of Figure 2)."""
        return self.children(self.root.key)

    # -- traversal --------------------------------------------------------------

    def walk(self, start: str | None = None) -> Iterator[OntologyNode]:
        """Pre-order traversal from ``start`` (default: root), root included."""
        start_key = start if start is not None else self.root.key
        stack = [start_key]
        while stack:
            key = stack.pop()
            node = self._nodes[key]
            yield node
            stack.extend(reversed(node.children))

    def subtree_keys(self, key: str) -> list[str]:
        return [n.key for n in self.walk(key)]

    def ancestors(self, key: str) -> list[OntologyNode]:
        """Path from the node's parent up to (and including) the root."""
        out = []
        current = self.node(key).parent
        while current is not None:
            node = self._nodes[current]
            out.append(node)
            current = node.parent
        return out

    def path(self, key: str) -> list[OntologyNode]:
        """Root-to-node path, node included."""
        chain = list(reversed(self.ancestors(key)))
        chain.append(self.node(key))
        return chain

    def path_string(self, key: str, separator: str = "::") -> str:
        """Human-readable path like the paper's
        ``Programming::Performance Issue::Data`` notation (root omitted)."""
        return separator.join(n.label for n in self.path(key)[1:])

    def depth(self, key: str) -> int:
        """Root has depth 0; areas depth 1; and so on."""
        return len(self.ancestors(key))

    def area_of(self, key: str) -> OntologyNode | None:
        """The first-level ancestor a node rolls up to (itself if an area)."""
        node = self.node(key)
        if node.kind is NodeKind.ROOT:
            return None
        while node.parent is not None and node.parent != self.root.key:
            node = self._nodes[node.parent]
        return node

    def leaves(self, start: str | None = None) -> list[OntologyNode]:
        return [n for n in self.walk(start) if n.is_leaf()]

    def nodes(self) -> list[OntologyNode]:
        """All entries except the synthetic root, in pre-order."""
        return [n for n in self.walk() if n.kind is not NodeKind.ROOT]

    # -- search --------------------------------------------------------------

    def search(
        self,
        phrase: str,
        *,
        kinds: Iterable[NodeKind] | None = None,
        limit: int | None = None,
    ) -> list[OntologyNode]:
        """Case-insensitive substring search over entry labels.

        This backs the Figure 1b interaction: "Entries can be searched for
        by entering a word or phrase that becomes highlighted in the
        classification."
        """
        needle = phrase.lower().strip()
        if not needle:
            return []
        wanted = set(kinds) if kinds is not None else None
        out = []
        for node in self.walk():
            if node.kind is NodeKind.ROOT:
                continue
            if wanted is not None and node.kind not in wanted:
                continue
            if needle in node.label.lower():
                out.append(node)
                if limit is not None and len(out) >= limit:
                    break
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Ontology {self.name!r}: {len(self)} entries>"

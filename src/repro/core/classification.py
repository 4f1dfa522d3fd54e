"""Material ↔ ontology classification mappings.

A classification is the set of ontology entries a material covers.  The
paper additionally argues (Section IV-A) that "it would make sense to
classify materials with Bloom levels as well" — an optional
:class:`~repro.core.ontology.BloomLevel` is therefore carried on each
mapping, implementing that suggested extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .ontology import BloomLevel, Ontology


@dataclass(frozen=True)
class ClassificationItem:
    """One (ontology, entry) pair a material is classified under."""

    ontology: str
    key: str
    bloom: BloomLevel | None = None

    def __str__(self) -> str:
        suffix = f" @{self.bloom.value}" if self.bloom else ""
        return f"{self.key}{suffix}"


class ClassificationSet:
    """The full classification of one material across all ontologies.

    Thin wrapper over a dict ``ontology name -> {key: bloom-or-None}``
    with set-algebra helpers (shared items drive the Figure 3 similarity
    graph).
    """

    def __init__(self) -> None:
        self._items: dict[str, dict[str, BloomLevel | None]] = {}

    def add(
        self, ontology: str, key: str, bloom: BloomLevel | None = None
    ) -> None:
        self._items.setdefault(ontology, {})[key] = bloom

    def remove(self, ontology: str, key: str) -> bool:
        bucket = self._items.get(ontology)
        if bucket is None or key not in bucket:
            return False
        del bucket[key]
        if not bucket:
            del self._items[ontology]
        return True

    def has(self, ontology: str, key: str) -> bool:
        return key in self._items.get(ontology, {})

    def bloom(self, ontology: str, key: str) -> BloomLevel | None:
        return self._items.get(ontology, {}).get(key)

    def keys(self, ontology: str) -> frozenset[str]:
        return frozenset(self._items.get(ontology, {}))

    def ontologies(self) -> list[str]:
        return sorted(self._items)

    def items(self) -> list[ClassificationItem]:
        out = []
        for onto in sorted(self._items):
            for key, bloom in sorted(self._items[onto].items()):
                out.append(ClassificationItem(onto, key, bloom))
        return out

    def __len__(self) -> int:
        return sum(len(b) for b in self._items.values())

    def __bool__(self) -> bool:
        return bool(self._items)

    # -- set algebra -----------------------------------------------------------

    def shared_with(self, other: "ClassificationSet", ontology: str) -> frozenset[str]:
        """Entries both sets carry in ``ontology`` — the paper's similarity
        signal ("share two classification items", Section IV-D)."""
        return self.keys(ontology) & other.keys(ontology)

    def shared_count(self, other: "ClassificationSet") -> int:
        """Shared entries across all ontologies."""
        total = 0
        for onto in self._items:
            total += len(self.shared_with(other, onto))
        return total

    def union_count(self, other: "ClassificationSet") -> int:
        ontos = set(self._items) | set(other._items)
        return sum(len(self.keys(o) | other.keys(o)) for o in ontos)

    def jaccard(self, other: "ClassificationSet") -> float:
        union = self.union_count(other)
        if union == 0:
            return 0.0
        return self.shared_count(other) / union


def validate_against(
    cs: ClassificationSet, ontologies: Mapping[str, Ontology]
) -> list[str]:
    """Return problems (empty list = valid): unknown ontology names or keys.

    The repository's editorial workflow ("an editor ... can appropriately
    edit or fix classification issues") calls this before accepting a
    submission.
    """
    problems = []
    for onto_name in cs.ontologies():
        onto = ontologies.get(onto_name)
        if onto is None:
            problems.append(f"unknown ontology {onto_name!r}")
            continue
        for key in sorted(cs.keys(onto_name)):
            if key not in onto:
                problems.append(f"{onto_name}: unknown entry {key!r}")
    return problems


def expand_to_ancestors(
    cs: ClassificationSet, ontologies: Mapping[str, Ontology]
) -> ClassificationSet:
    """A new set where every classified entry also implies its ancestors.

    Selecting a topic implies its knowledge unit and area are touched;
    the coverage trees of Figure 2 color interior nodes this way.
    """
    out = ClassificationSet()
    for item in cs.items():
        onto = ontologies[item.ontology]
        out.add(item.ontology, item.key, item.bloom)
        for ancestor in onto.ancestors(item.key):
            if ancestor.parent is not None:  # skip the synthetic root
                if not out.has(item.ontology, ancestor.key):
                    out.add(item.ontology, ancestor.key, None)
    return out

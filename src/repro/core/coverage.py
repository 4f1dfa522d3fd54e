"""Coverage analysis: how many materials touch each ontology entry.

This is the machinery behind Figure 2: "The classification are shown as a
tree where ... The color intensity of the node is proportional to the
number of material that matches that entry of the ontology ... Ontology
entry absent from the materials are transparent and their children are
not included."  The same counts drive the Section IV-B/IV-C narratives
(area rankings, untouched areas).

Counts are computed in one pass over the material set's classification
pairs; a node's count includes materials classified at the node itself
*or anywhere in its subtree* (classifying a topic means the knowledge
unit and area are touched), so each classified key adds its materials
to every entry on its root path and nothing else is visited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .ontology import Ontology, OntologyNode
from .repository import Repository


@dataclass
class CoverageNode:
    """One entry of a pruned coverage tree."""

    key: str
    label: str
    code: str
    depth: int
    count: int            # materials touching this entry or its subtree
    direct: int           # materials classified exactly at this entry
    children: list["CoverageNode"] = field(default_factory=list)


@dataclass
class CoverageReport:
    """Coverage of one material set against one ontology."""

    ontology: str
    n_materials: int
    direct_counts: dict[str, int]           # key -> #materials right here
    rollup_counts: dict[str, int]           # key -> #materials in subtree
    covered_material_ids: set[int]

    # -- ranking / rollups ---------------------------------------------------

    def area_ranking(self, ontology: Ontology) -> list[tuple[OntologyNode, int]]:
        """First-level areas ordered by descending material count.

        Reproduces statements like "Most of the classified topics falls in
        the Programming category, followed by the Algorithm category"
        (Section IV-B).
        """
        ranked = [
            (area, self.rollup_counts.get(area.key, 0))
            for area in ontology.areas()
        ]
        ranked.sort(key=lambda pair: (-pair[1], pair[0].key))
        return ranked

    def covered_areas(self, ontology: Ontology) -> list[OntologyNode]:
        return [a for a, c in self.area_ranking(ontology) if c > 0]

    def uncovered_areas(self, ontology: Ontology) -> list[OntologyNode]:
        """Areas with zero materials — the 'untouched' areas of IV-B."""
        return [a for a, c in self.area_ranking(ontology) if c == 0]

    def count(self, key: str) -> int:
        return self.rollup_counts.get(key, 0)

    def is_covered(self, key: str) -> bool:
        return self.rollup_counts.get(key, 0) > 0

    def coverage_ratio(self, ontology: Ontology, *, within: str | None = None) -> float:
        """Fraction of entries (optionally inside subtree ``within``)
        touched by at least one material."""
        keys = (
            ontology.subtree_keys(within)
            if within is not None
            else [n.key for n in ontology.nodes()]
        )
        keys = [k for k in keys if k != ontology.root.key]
        if not keys:
            return 0.0
        covered = sum(1 for k in keys if self.is_covered(k))
        return covered / len(keys)

    # -- tree building -----------------------------------------------------------

    def tree(self, ontology: Ontology, *, prune: bool = True,
             max_depth: int | None = None) -> CoverageNode:
        """The Figure 2 tree: rooted at the ontology root, children of
        uncovered entries pruned (``prune=True`` mirrors the figure's
        "their children are not included")."""

        def build(node: OntologyNode, depth: int) -> CoverageNode:
            cov = CoverageNode(
                key=node.key,
                label=node.label,
                code=node.code,
                depth=depth,
                count=self.rollup_counts.get(node.key, 0),
                direct=self.direct_counts.get(node.key, 0),
            )
            if max_depth is not None and depth >= max_depth:
                return cov
            for child in ontology.children(node.key):
                child_count = self.rollup_counts.get(child.key, 0)
                if prune and child_count == 0:
                    continue
                cov.children.append(build(child, depth + 1))
            return cov

        root = build(ontology.root, 0)
        root.count = len(self.covered_material_ids)
        return root


# Tables whose mutation changes a coverage answer.
_COVERAGE_TABLES = ("material_classifications", "ontology_entries", "materials")


def compute_coverage(
    repo: Repository,
    ontology_name: str,
    *,
    collection: str | None = None,
    material_ids: Iterable[int] | None = None,
) -> CoverageReport:
    """Coverage of a material set (a collection, explicit ids, or all
    materials) against one ontology.

    Results are memoized through ``repo.cache`` keyed on the
    classification tables' mutation versions (the ``material_ids`` form
    is not cached: ad-hoc id sets rarely repeat).  Cached reports are
    shared — treat them as read-only.
    """
    cache = getattr(repo, "cache", None)
    if cache is None or material_ids is not None:
        return _compute_coverage(
            repo, ontology_name, collection=collection, material_ids=material_ids
        )
    return cache.get_or_compute(
        "compute_coverage",
        (ontology_name, collection),
        _COVERAGE_TABLES,
        lambda: _compute_coverage(repo, ontology_name, collection=collection),
    )


def _compute_coverage(
    repo: Repository,
    ontology_name: str,
    *,
    collection: str | None = None,
    material_ids: Iterable[int] | None = None,
) -> CoverageReport:
    onto = repo.ontology(ontology_name)
    wanted = set(material_ids) if material_ids is not None else None
    if wanted is None:
        pairs = repo.classification_pairs(collection)
    else:
        pairs = repo.classification_pairs_of(
            wanted if collection is None
            else wanted.intersection(repo.material_ids(collection))
        )

    # key -> set of material ids classified exactly there
    direct_sets: dict[str, set[int]] = {}
    for mid, key in pairs:
        if key in onto:
            direct_sets.setdefault(key, set()).add(mid)

    # Sets (not counts) go up each root path, so a material classified
    # under two topics of the same unit counts once.
    rollup_sets: dict[str, set[int]] = {}
    for key, mids in direct_sets.items():
        for node in onto.path(key):
            rollup_sets.setdefault(node.key, set()).update(mids)
    all_covered = rollup_sets.pop(onto.root.key, set())

    n_materials = (
        len(wanted) if wanted is not None
        else repo.material_count(collection)
    )
    return CoverageReport(
        ontology=ontology_name,
        n_materials=n_materials,
        direct_counts={k: len(s) for k, s in direct_sets.items()},
        rollup_counts={k: len(s) for k, s in rollup_sets.items()},
        covered_material_ids=all_covered,
    )


def compare_coverage(
    reports: Mapping[str, CoverageReport], ontology: Ontology
) -> list[tuple[str, list[tuple[str, int]]]]:
    """Side-by-side area rankings for several material sets.

    Returns ``[(set name, [(area label, count), ...]), ...]`` — the raw
    series behind the Figure 2 caption comparison and the IV-C argument.
    """
    out = []
    for name, report in reports.items():
        ranking = [
            (area.label, count)
            for area, count in report.area_ranking(ontology)
        ]
        out.append((name, ranking))
    return out

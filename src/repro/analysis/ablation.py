"""Design-choice ablations (the ABL experiments of DESIGN.md).

The paper fixes the Figure 3 edge rule at "share two classification
items" without exploring alternatives.  These studies sweep the threshold
and compare count-based edges against Jaccard-normalized edges, showing
why 2 is the knee: threshold 1 floods the graph with incidental matches,
thresholds ≥ 3 dissolve the cluster the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.repository import Repository
from repro.core.similarity import (
    clusters,
    incidence,
    isolated_materials,
    jaccard_matrix,
    shared_item_matrix,
    similarity_graph,
)


@dataclass
class ThresholdPoint:
    threshold: int
    edges: int
    isolated_left: int
    isolated_right: int
    components: int           # non-singleton connected components
    largest_component: int


def threshold_sweep(
    repo: Repository,
    left_ids: Sequence[int],
    right_ids: Sequence[int],
    thresholds: Sequence[int] = (1, 2, 3, 4, 5, 6),
) -> list[ThresholdPoint]:
    """Edge-rule sweep over shared-item thresholds."""
    out = []
    for threshold in thresholds:
        graph = similarity_graph(
            repo, left_ids, right_ids, threshold=threshold,
            left_group="left", right_group="right",
        )
        comps = clusters(graph)
        out.append(
            ThresholdPoint(
                threshold=threshold,
                edges=graph.number_of_edges(),
                isolated_left=len(isolated_materials(graph, "left")),
                isolated_right=len(isolated_materials(graph, "right")),
                components=len(comps),
                largest_component=len(comps[0]) if comps else 0,
            )
        )
    return out


@dataclass
class MetricComparison:
    """Count-threshold vs Jaccard-threshold edge sets at matched density."""

    count_edges: int
    jaccard_edges: int
    common_edges: int

    @property
    def agreement(self) -> float:
        union = self.count_edges + self.jaccard_edges - self.common_edges
        return self.common_edges / union if union else 1.0


def count_vs_jaccard(
    repo: Repository,
    left_ids: Sequence[int],
    right_ids: Sequence[int],
    *,
    count_threshold: int = 2,
) -> MetricComparison:
    """Compare the paper's absolute-count rule against a Jaccard rule
    calibrated to produce (as nearly as possible) the same edge count."""
    a = incidence(repo, left_ids)
    b = incidence(repo, right_ids)
    shared = shared_item_matrix(a, b)
    jac = jaccard_matrix(a, b)

    count_set = {
        (i, j)
        for i, j in zip(*np.nonzero(shared >= count_threshold))
    }
    target = max(len(count_set), 1)
    # Pick the Jaccard cut that yields the closest edge count.
    flat = np.sort(jac.ravel())[::-1]
    cut = flat[min(target, flat.size) - 1]
    if cut <= 0.0:
        jac_set: set[tuple[int, int]] = set()
    else:
        jac_set = {(i, j) for i, j in zip(*np.nonzero(jac >= cut))}
    return MetricComparison(
        count_edges=len(count_set),
        jaccard_edges=len(jac_set),
        common_edges=len(count_set & jac_set),
    )


def ancestor_expansion_effect(
    repo: Repository,
    left_ids: Sequence[int],
    right_ids: Sequence[int],
    *,
    threshold: int = 2,
) -> dict[str, int]:
    """Ablation: does counting shared *ancestors* (units/areas) as items
    change the graph?  The paper counts only explicitly selected entries;
    expanding to ancestors inflates similarity for materials in the same
    knowledge area."""
    from repro.core.classification import expand_to_ancestors

    base = similarity_graph(repo, left_ids, right_ids, threshold=threshold)

    # Build expanded incidence manually.
    ontologies = repo.ontologies
    def expanded_keys(mid: int) -> frozenset[str]:
        cs = expand_to_ancestors(repo.classification_of(mid), ontologies)
        return frozenset(str(item.key) for item in cs.items())

    left_sets = {mid: expanded_keys(mid) for mid in left_ids}
    right_sets = {mid: expanded_keys(mid) for mid in right_ids}
    expanded_edges = 0
    for lmid, lkeys in left_sets.items():
        for rmid, rkeys in right_sets.items():
            if len(lkeys & rkeys) >= threshold:
                expanded_edges += 1
    return {
        "base_edges": base.number_of_edges(),
        "expanded_edges": expanded_edges,
    }

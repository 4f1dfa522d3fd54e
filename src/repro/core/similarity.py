"""Similarity between materials via shared classification items.

Section IV-D / Figure 3: "A Nifty assignment and a Peachy assignment are
said to be similar if they share two classification items and this
similarity is represented by an edge."  This module generalizes that
rule: shared-item counts between two material sets (or within one set)
are computed with one vectorised binary-matrix multiply, then thresholded
into an immutable :class:`SimilarityGraph`.  Jaccard and cosine weights
are exposed for the ablation study (why "two shared items"?).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Sequence

import numpy as np

from .cache import Memo
from .repository import Repository


@dataclass
class MaterialVectorSpace:
    """Binary material × ontology-entry incidence matrix."""

    material_ids: list[int]
    entry_keys: list[str]
    matrix: np.ndarray  # (n_materials, n_entries), float64 of {0.0, 1.0}
    key_sets: dict[int, set[str]]  # material id -> its (filtered) keys

    @property
    def n(self) -> int:
        return len(self.material_ids)


def incidence(
    repo: Repository,
    material_ids: Sequence[int],
    *,
    ontologies: Iterable[str] | None = None,
) -> MaterialVectorSpace:
    """Build the binary incidence matrix for the given materials.

    ``ontologies`` restricts which classification namespaces contribute
    (Figure 3 uses both; the ablation can isolate one).
    """
    onto_filter = set(ontologies) if ontologies is not None else None
    per_material: dict[int, set[str]] = {mid: set() for mid in material_ids}
    wanted = set(material_ids)
    for mid, key in repo.classification_pairs():
        if mid not in wanted:
            continue
        if onto_filter is not None:
            name = key.split("/", 1)[0]
            if name not in onto_filter:
                continue
        per_material[mid].add(key)
    entry_keys = sorted(set().union(*per_material.values()) if per_material else set())
    index = {k: i for i, k in enumerate(entry_keys)}
    matrix = np.zeros((len(material_ids), len(entry_keys)), dtype=np.float64)
    for row, mid in enumerate(material_ids):
        for key in per_material[mid]:
            matrix[row, index[key]] = 1.0
    return MaterialVectorSpace(list(material_ids), entry_keys, matrix, per_material)


def shared_item_matrix(
    a: MaterialVectorSpace, b: MaterialVectorSpace | None = None
) -> np.ndarray:
    """Pairwise counts of shared classification items.

    One matrix multiply over aligned binary matrices — the hot loop of the
    Figure 3 computation, vectorised per the HPC guide.
    """
    if b is None:
        return a.matrix @ a.matrix.T
    # Align the two entry vocabularies onto their union.
    union = sorted(set(a.entry_keys) | set(b.entry_keys))
    index = {k: i for i, k in enumerate(union)}

    def lift(space: MaterialVectorSpace) -> np.ndarray:
        lifted = np.zeros((space.n, len(union)), dtype=np.float64)
        cols = [index[k] for k in space.entry_keys]
        lifted[:, cols] = space.matrix
        return lifted

    return lift(a) @ lift(b).T


def jaccard_matrix(
    a: MaterialVectorSpace, b: MaterialVectorSpace | None = None
) -> np.ndarray:
    """Pairwise Jaccard similarity of classification sets."""
    shared = shared_item_matrix(a, b)
    sa = a.matrix.sum(axis=1)
    sb = sa if b is None else b.matrix.sum(axis=1)
    union = sa[:, None] + sb[None, :] - shared
    with np.errstate(invalid="ignore", divide="ignore"):
        jac = np.where(union > 0, shared / union, 0.0)
    return jac


@dataclass
class SimilarityEdge:
    left_id: int
    right_id: int
    shared: int
    shared_keys: tuple[str, ...]


class _View(Mapping):
    """``graph.nodes`` or ``graph.edges``: a read-only mapping from a node
    (an ``(u, v)`` pair) to its attributes, iterable bare or called;
    ``view(data=True)`` lists each item with its attributes appended."""

    __slots__ = ("_items", "_rows")

    def __init__(self, items: dict, rows: tuple) -> None:
        self._items, self._rows = items, rows

    def __getitem__(self, key: Any) -> Mapping:
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __call__(self, data: bool = False):
        return self._rows if data else self


class SimilarityGraph:
    """An immutable undirected graph with ``networkx.Graph``'s read API
    and iteration order: a node listed twice keeps its first position
    and its last attributes; an edge is listed once, from its endpoint
    listed first, neighbours in edge order; a self-loop counts 2 toward
    degree.  Nothing can write to it, so one cached graph is shared.
    Built from ``(node, attrs)`` and ``(u, v, attrs)`` rows."""

    __slots__ = ("_adj", "nodes", "edges")

    def __init__(self, nodes: Iterable = (), edges: Iterable = ()) -> None:
        attrs: dict = {}
        for node, data in nodes:
            attrs.setdefault(node, {}).update(data)
        adj: dict = {node: {} for node in attrs}
        for u, v, data in edges:
            adj[u].setdefault(v, {}).update(data)
            adj[v][u] = adj[u][v]
        self._adj = {
            u: MappingProxyType({v: MappingProxyType(d) for v, d in nbrs.items()})
            for u, nbrs in adj.items()
        }
        rank = {node: i for i, node in enumerate(adj)}
        rows = tuple(
            (u, v, d) for u, nbrs in self._adj.items()
            for v, d in nbrs.items() if rank[v] >= rank[u]
        )
        attrs = {node: MappingProxyType(d) for node, d in attrs.items()}
        self.nodes = _View(attrs, tuple(attrs.items()))
        self.edges = _View({(u, v): d for u, v, d in rows}, rows)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._adj

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return len(self.edges)

    def degree(self, node: Hashable) -> int:
        return len(self._adj[node]) + (node in self._adj[node])

    def neighbors(self, node: Hashable):
        return iter(self._adj[node])

    def get_edge_data(self, u: Hashable, v: Hashable, default: Any = None):
        return self._adj.get(u, {}).get(v, default)


# Tables whose mutation changes a similarity answer (titles come from
# materials; the incidence matrix from the classification link tables).
_SIMILARITY_TABLES = ("material_classifications", "ontology_entries", "materials")


def similarity_graph(
    repo: Repository,
    left_ids: Iterable[int],
    right_ids: Iterable[int] | None = None,
    *,
    threshold: int = 2,
    ontologies: Iterable[str] | None = None,
    left_group: str = "left",
    right_group: str = "right",
) -> SimilarityGraph:
    """The Figure 3 graph.

    Nodes are material ids annotated with ``group`` and ``title``; an edge
    joins a left and a right material sharing at least ``threshold``
    classification items (edge attributes: ``shared`` count and the
    ``shared_keys`` themselves).  With ``right_ids=None`` the graph is
    built within one set (self-pairs excluded).

    Results are memoized through ``repo.cache`` on the classification
    tables' mutation versions; the graph is immutable, so every caller
    shares the cached one.  Each iterable argument is read exactly once.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    return _similarity_graph(
        repo, tuple(left_ids), None if right_ids is None else tuple(right_ids),
        threshold, None if ontologies is None else frozenset(ontologies),
        left_group, right_group,
    )


@Memo(*_SIMILARITY_TABLES)
def _similarity_graph(repo, left_ids, right_ids, threshold, ontologies,
                      left_group, right_group) -> SimilarityGraph:
    cross = right_ids is not None
    a = incidence(repo, left_ids, ontologies=ontologies)
    b = incidence(repo, right_ids, ontologies=ontologies) if cross else None
    shared = shared_item_matrix(a, b)
    right = b if b is not None else a
    nodes = [
        (mid, {"group": group, "title": repo.get_material(mid).title})
        for ids, group in ((left_ids, left_group), (right_ids or (), right_group))
        for mid in ids
    ]
    edges = []
    rows, cols = np.nonzero(shared >= threshold)
    for r, c in zip(rows.tolist(), cols.tolist()):
        u, v = a.material_ids[r], right.material_ids[c]
        if cross or u < v:  # within one set, each unordered pair once
            keys = tuple(sorted(a.key_sets[u] & right.key_sets[v]))
            edges.append((u, v, {"shared": int(shared[r, c]), "shared_keys": keys}))
    return SimilarityGraph(nodes, edges)


def isolated_materials(
    graph: SimilarityGraph, group: str | None = None
) -> list[int]:
    """Nodes with no edge — "most assignments have no similar assignment
    in the other set" (Section IV-D)."""
    return sorted(
        node for node, data in graph.nodes(data=True)
        if graph.degree(node) == 0 and (group is None or data.get("group") == group)
    )


def clusters(graph: SimilarityGraph, *, min_size: int = 2) -> list[set[int]]:
    """Connected components with at least ``min_size`` nodes, largest
    first (union-find with path halving)."""
    parent = {node: node for node in graph.nodes}

    def root(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for u, v in graph.edges:
        parent[root(u)] = root(v)
    comps: dict[int, set[int]] = {}
    for node in graph.nodes:
        comps.setdefault(root(node), set()).add(node)
    big = [c for c in comps.values() if len(c) >= min_size]
    return sorted(big, key=lambda c: (-len(c), min(c)))


def edges_with_shared_keys(graph: SimilarityGraph) -> list[SimilarityEdge]:
    edges = [
        SimilarityEdge(min(u, v), max(u, v), d["shared"], d["shared_keys"])
        for u, v, d in graph.edges(data=True)
    ]
    return sorted(edges, key=lambda e: (-e.shared, e.left_id, e.right_id))

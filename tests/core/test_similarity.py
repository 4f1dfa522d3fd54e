"""Shared-item similarity and the Figure 3 graph builder."""

import random
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classification import ClassificationSet
from repro.core.material import Material
from repro.core.repository import Repository
from repro.core.similarity import (
    clusters,
    edges_with_shared_keys,
    incidence,
    isolated_materials,
    jaccard_matrix,
    shared_item_matrix,
    similarity_graph,
)
from repro.corpus import keys as K
from repro.corpus.seed import seed_ontologies
from repro.viz.export import similarity_to_graphml


def add(repo, title, keys, collection="c"):
    cs = ClassificationSet()
    for key in keys:
        cs.add(key.split("/", 1)[0], key)
    return repo.add_material(
        Material(title=title, description="d", collection=collection), cs
    )


@pytest.fixture()
def trio(fresh_repo):
    a = add(fresh_repo, "A", [K.SDF_ARRAYS, K.SDF_CTRL, K.AL_BIGO])
    b = add(fresh_repo, "B", [K.SDF_ARRAYS, K.SDF_CTRL])
    c = add(fresh_repo, "C", [K.AL_BIGO])
    return fresh_repo, a, b, c


class TestIncidence:
    def test_matrix_shape_and_content(self, trio):
        repo, a, b, c = trio
        space = incidence(repo, [a.id, b.id, c.id])
        assert space.matrix.shape == (3, 3)  # three distinct entries
        assert space.matrix.sum() == 6
        assert set(space.entry_keys) == {K.SDF_ARRAYS, K.SDF_CTRL, K.AL_BIGO}

    def test_row_of(self, trio):
        repo, a, b, c = trio
        space = incidence(repo, [a.id, b.id, c.id])
        assert space.matrix[space.material_ids.index(c.id)].sum() == 1

    def test_ontology_filter(self, fresh_repo):
        m = add(fresh_repo, "M", [K.SDF_ARRAYS, K.P_OPENMP])
        space = incidence(fresh_repo, [m.id], ontologies=["PDC12"])
        assert space.entry_keys == [K.P_OPENMP]

    def test_empty_materials(self, fresh_repo):
        space = incidence(fresh_repo, [])
        assert space.matrix.shape == (0, 0)


class TestMatrices:
    def test_shared_self_matrix_diagonal_is_set_size(self, trio):
        repo, a, b, c = trio
        space = incidence(repo, [a.id, b.id, c.id])
        shared = shared_item_matrix(space)
        assert np.allclose(np.diag(shared), [3, 2, 1])
        assert shared[0, 1] == 2
        assert shared[1, 2] == 0

    def test_cross_matrix_aligns_vocabularies(self, trio):
        repo, a, b, c = trio
        left = incidence(repo, [a.id])
        right = incidence(repo, [b.id, c.id])
        shared = shared_item_matrix(left, right)
        assert shared.shape == (1, 2)
        assert shared[0, 0] == 2  # A vs B
        assert shared[0, 1] == 1  # A vs C

    def test_jaccard_values(self, trio):
        repo, a, b, c = trio
        left = incidence(repo, [a.id])
        right = incidence(repo, [b.id, c.id])
        jac = jaccard_matrix(left, right)
        assert jac[0, 0] == pytest.approx(2 / 3)
        assert jac[0, 1] == pytest.approx(1 / 3)

    def test_jaccard_empty_sets_are_zero(self, fresh_repo):
        a = add(fresh_repo, "A", [])
        b = add(fresh_repo, "B", [])
        jac = jaccard_matrix(
            incidence(fresh_repo, [a.id]), incidence(fresh_repo, [b.id])
        )
        assert jac[0, 0] == 0.0


class TestGraph:
    def test_cross_graph_threshold(self, trio):
        repo, a, b, c = trio
        g = similarity_graph(repo, [a.id], [b.id, c.id], threshold=2)
        assert g.get_edge_data(a.id, b.id) is not None
        assert g.get_edge_data(a.id, c.id) is None
        assert g.number_of_nodes() == 3

    def test_edge_carries_shared_keys(self, trio):
        repo, a, b, c = trio
        g = similarity_graph(repo, [a.id], [b.id, c.id], threshold=2)
        data = g.get_edge_data(a.id, b.id)
        assert data["shared"] == 2
        assert set(data["shared_keys"]) == {K.SDF_ARRAYS, K.SDF_CTRL}

    def test_groups_and_titles_annotated(self, trio):
        repo, a, b, c = trio
        g = similarity_graph(
            repo, [a.id], [b.id, c.id],
            threshold=2, left_group="L", right_group="R",
        )
        assert g.nodes[a.id]["group"] == "L"
        assert g.nodes[c.id]["group"] == "R"
        assert g.nodes[a.id]["title"] == "A"

    def test_within_set_graph_excludes_self_pairs(self, trio):
        repo, a, b, c = trio
        g = similarity_graph(repo, [a.id, b.id, c.id], threshold=1)
        assert not any(u == v for u, v in g.edges())
        assert g.get_edge_data(a.id, b.id) is not None
        assert g.get_edge_data(a.id, c.id) is not None

    def test_threshold_validation(self, trio):
        repo, a, b, c = trio
        with pytest.raises(ValueError):
            similarity_graph(repo, [a.id], [b.id], threshold=0)

    def test_generator_ontologies_do_not_poison_the_cache(self, trio):
        """A one-shot iterable filter is read once: the first call sees
        it whole, and the cache entry it leaves is the right answer."""
        repo, a, b, c = trio
        once = similarity_graph(
            repo, [a.id], [b.id, c.id], ontologies=(o for o in ["CS13"])
        )
        again = similarity_graph(repo, [a.id], [b.id, c.id], ontologies=["CS13"])
        assert once.number_of_edges() == again.number_of_edges() == 1
        assert again.get_edge_data(a.id, b.id) is not None

    def test_threshold_monotonicity(self, trio):
        repo, a, b, c = trio
        ids = [a.id, b.id, c.id]
        e1 = similarity_graph(repo, ids, threshold=1).number_of_edges()
        e2 = similarity_graph(repo, ids, threshold=2).number_of_edges()
        e3 = similarity_graph(repo, ids, threshold=3).number_of_edges()
        assert e1 >= e2 >= e3


class TestGraphHelpers:
    def test_isolated_materials(self, trio):
        repo, a, b, c = trio
        g = similarity_graph(
            repo, [a.id], [b.id, c.id],
            threshold=2, left_group="L", right_group="R",
        )
        assert isolated_materials(g) == [c.id]
        assert isolated_materials(g, "R") == [c.id]
        assert isolated_materials(g, "L") == []

    def test_clusters_sorted_largest_first(self, trio):
        repo, a, b, c = trio
        g = similarity_graph(repo, [a.id], [b.id, c.id], threshold=1)
        comps = clusters(g)
        assert len(comps) == 1
        assert comps[0] == {a.id, b.id, c.id}

    def test_edges_with_shared_keys_sorted(self, trio):
        repo, a, b, c = trio
        g = similarity_graph(repo, [a.id], [b.id, c.id], threshold=1)
        edges = edges_with_shared_keys(g)
        assert edges[0].shared >= edges[-1].shared
        assert edges[0].left_id < edges[0].right_id


# ------------------------------------------------------------ graph oracle
#
# A plain-Python reference for the Figure 3 graph: pairwise set
# intersections instead of the incidence-matrix multiply, and an explicit
# adjacency dict that fixes the iteration order every caller (the API,
# the renderers, the GraphML export) observes: nodes in first-insertion
# order with last-written attributes, each edge stored once and listed
# from the first of its endpoints in node order, neighbours in
# edge-insertion order.

ORACLE_KEYS = (
    K.SDF_ARRAYS, K.SDF_CTRL, K.AL_BIGO, K.AL_SORT_QUAD,
    K.P_OPENMP, K.P_MPI, K.P_SHMEM, K.P_PARLOOPS,
)


def _oracle_corpus(repo):
    """Fourteen materials drawing 1-5 keys from an eight-key pool that
    spans both ontologies; titles exercise XML escaping."""
    rng = random.Random(21)
    ids = []
    for i in range(14):
        keys = rng.sample(ORACLE_KEYS, rng.randint(1, 5))
        title = f"M{i} & <{'x' * (i % 3)}>" if i % 4 == 0 else f"Material {i}"
        ids.append(add(repo, title, keys).id)
    return ids


@pytest.fixture(scope="module")
def oracle_repo():
    repo = Repository()
    seed_ontologies(repo)
    return repo, _oracle_corpus(repo)


def reference_graph(repo, left_ids, right_ids, threshold, ontologies,
                    left_group, right_group):
    """(nodes, adjacency) with insertion-ordered dicts; an edge's data
    dict is shared by both endpoints' adjacency entries."""
    def keyset(mid):
        return {
            item.key for item in repo.classification_of(mid).items()
            if ontologies is None or item.key.split("/", 1)[0] in ontologies
        }

    nodes, adj = {}, {}
    groups = [(left_ids, left_group)]
    if right_ids is not None:
        groups.append((right_ids, right_group))
    for ids, group in groups:
        for mid in ids:
            nodes[mid] = {"group": group,
                          "title": repo.get_material(mid).title}
            adj.setdefault(mid, {})
    cross = right_ids is not None
    for left in left_ids:
        for right in (right_ids if cross else left_ids):
            if not cross and left >= right:
                continue
            shared = keyset(left) & keyset(right)
            if len(shared) < threshold:
                continue
            data = adj[left].get(right, {})
            data.update(shared=len(shared), shared_keys=tuple(sorted(shared)))
            adj[left][right] = adj[right][left] = data
    return nodes, adj


def reference_edges(adj):
    seen, out = set(), []
    for node, nbrs in adj.items():
        for nbr, data in nbrs.items():
            if nbr not in seen:
                out.append((node, nbr, data))
        seen.add(node)
    return out


def reference_degree(adj, node):
    return len(adj[node]) + (node in adj[node])


def reference_clusters(adj):
    comps, seen = [], set()
    for start in adj:
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            node = stack.pop()
            if node not in comp:
                comp.add(node)
                stack.extend(adj[node])
        seen |= comp
        if len(comp) >= 2:
            comps.append(comp)
    return sorted(comps, key=lambda c: (-len(c), min(c)))


def reference_graphml(nodes, edges):
    keys = []
    if edges:
        keys += ['<key id="d3" for="edge" attr.name="shared_keys" '
                 'attr.type="string" />',
                 '<key id="d2" for="edge" attr.name="shared" '
                 'attr.type="long" />']
    if nodes:
        keys += ['<key id="d1" for="node" attr.name="group" '
                 'attr.type="string" />',
                 '<key id="d0" for="node" attr.name="title" '
                 'attr.type="string" />']
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
        'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
        'xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns '
        'http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">',
        *("  " + key for key in keys),
    ]

    def data(key, text):
        text = escape(text)
        return (f'      <data key="{key}">{text}</data>' if text
                else f'      <data key="{key}" />')

    if not nodes:
        lines.append('  <graph edgedefault="undirected" />')
    else:
        lines.append('  <graph edgedefault="undirected">')
        for node, attrs in nodes.items():
            lines += [f'    <node id="{node}">',
                      data("d0", attrs["title"]), data("d1", attrs["group"]),
                      "    </node>"]
        for u, v, attrs in edges:
            lines += [f'    <edge source="{u}" target="{v}">',
                      data("d2", str(attrs["shared"])),
                      data("d3", "|".join(attrs["shared_keys"])),
                      "    </edge>"]
        lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


@st.composite
def graph_calls(draw):
    """Arguments of one ``similarity_graph`` call over the oracle corpus,
    as positions into its id list: unsorted, possibly overlapping (which
    yields self-loops and moves a node to the right-hand group)."""
    positions = st.lists(st.integers(0, 13), unique=True, max_size=14)
    left = draw(positions)
    right = draw(st.none() | positions)
    return {
        "left": left,
        "right": right,
        "threshold": draw(st.integers(1, 3)),
        "ontologies": draw(st.sampled_from(
            [None, ("CS13",), ("PDC12",), ["PDC12", "CS13"]]
        )),
        "groups": draw(st.sampled_from([("L", "R"), ("left", "right"),
                                        ("same", "same")])),
    }


@settings(max_examples=120, deadline=None)
@given(call=graph_calls())
def test_similarity_graph_matches_reference(oracle_repo, call):
    repo, ids = oracle_repo
    left_ids = [ids[i] for i in call["left"]]
    right_ids = (None if call["right"] is None
                 else [ids[i] for i in call["right"]])
    left_group, right_group = call["groups"]
    graph = similarity_graph(
        repo, left_ids, right_ids, threshold=call["threshold"],
        ontologies=call["ontologies"],
        left_group=left_group, right_group=right_group,
    )
    nodes, adj = reference_graph(
        repo, left_ids, right_ids, call["threshold"], call["ontologies"],
        left_group, right_group,
    )
    edges = reference_edges(adj)

    assert list(graph.nodes) == list(nodes)
    assert [(n, dict(d)) for n, d in graph.nodes(data=True)] == \
        list(nodes.items())
    assert all(dict(graph.nodes[n]) == d for n, d in nodes.items())
    assert [(u, v, dict(d)) for u, v, d in graph.edges(data=True)] == edges
    assert list(graph.edges) == [(u, v) for u, v, _ in edges]
    assert list(graph.edges()) == [(u, v) for u, v, _ in edges]
    assert graph.number_of_nodes() == len(nodes)
    assert graph.number_of_edges() == len(edges)
    for node in nodes:
        assert node in graph
        assert graph.degree(node) == reference_degree(adj, node)
    for u, v, data in edges:
        assert v in set(graph.neighbors(u)) and u in set(graph.neighbors(v))
        assert dict(graph.get_edge_data(v, u)) == data
    assert graph.get_edge_data(-1, -2) is None
    for group in (None, left_group, right_group):
        assert isolated_materials(graph, group) == sorted(
            n for n, d in nodes.items()
            if reference_degree(adj, n) == 0
            and (group is None or d["group"] == group)
        )
    assert clusters(graph) == reference_clusters(adj)
    assert similarity_to_graphml(graph) == reference_graphml(nodes, edges)

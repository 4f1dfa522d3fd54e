"""Force-directed layout and similarity-graph SVG (Figure 3 panel)."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.core.similarity import SimilarityGraph, similarity_graph
from repro.corpus import collection_ids
from repro.viz.graph_render import fruchterman_reingold, render_svg, render_text


@pytest.fixture(scope="module")
def figure3_graph(seeded_repo):
    return similarity_graph(
        seeded_repo,
        collection_ids(seeded_repo, "nifty"),
        collection_ids(seeded_repo, "peachy"),
        threshold=2,
        left_group="nifty",
        right_group="peachy",
    )


class TestLayout:
    def test_positions_for_every_node(self, figure3_graph):
        pos = fruchterman_reingold(figure3_graph)
        assert set(pos) == set(figure3_graph.nodes())

    def test_positions_inside_unit_box(self, figure3_graph):
        pos = fruchterman_reingold(figure3_graph, size=1.0)
        coords = np.array(list(pos.values()))
        assert coords.min() >= 0.0 and coords.max() <= 1.0

    def test_deterministic_per_seed(self, figure3_graph):
        a = fruchterman_reingold(figure3_graph, seed=3, iterations=20)
        b = fruchterman_reingold(figure3_graph, seed=3, iterations=20)
        assert a == b

    def test_connected_nodes_closer_than_average(self):
        g = SimilarityGraph(
            [(n, {}) for n in range(23)],            # 23 nodes: a triangle...
            [(0, 1, {}), (1, 2, {}), (0, 2, {})],    # ...plus 20 isolated
        )
        pos = fruchterman_reingold(g, iterations=200)

        def dist(u, v):
            return np.hypot(
                pos[u][0] - pos[v][0], pos[u][1] - pos[v][1]
            )

        edge_mean = np.mean([dist(u, v) for u, v in g.edges()])
        nodes = list(g.nodes())
        all_mean = np.mean([
            dist(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
        ])
        assert edge_mean < all_mean

    def test_empty_graph(self):
        assert fruchterman_reingold(SimilarityGraph()) == {}

    def test_single_node(self):
        g = SimilarityGraph([("only", {})])
        pos = fruchterman_reingold(g)
        assert "only" in pos


class TestSvg:
    def test_valid_xml(self, figure3_graph):
        svg = render_svg(figure3_graph, title="Figure 3")
        ET.fromstring(svg)

    def test_node_and_edge_counts(self, figure3_graph):
        svg = render_svg(figure3_graph)
        assert svg.count("<circle") == figure3_graph.number_of_nodes()
        assert svg.count("<line") == figure3_graph.number_of_edges()

    def test_group_colors_used(self, figure3_graph):
        svg = render_svg(figure3_graph)
        assert 'fill="#1f77b4"' in svg  # blue Nifty
        assert 'fill="#d62728"' in svg  # red Peachy

    def test_titles_become_tooltips(self, figure3_graph):
        svg = render_svg(figure3_graph)
        assert "<title>Hurricane Tracker</title>" in svg


class TestText:
    def test_groups_and_edges_listed(self, figure3_graph):
        text = render_text(figure3_graph)
        assert "nifty (65 nodes" in text
        assert "peachy (11 nodes" in text
        assert "edges (24):" in text

    def test_connected_nodes_starred(self, figure3_graph):
        text = render_text(figure3_graph)
        assert "Hurricane Tracker *" in text
        assert "Evil Hangman\n" in text + "\n"  # isolated: no star

"""GraphML export."""

import xml.etree.ElementTree as ET

import pytest

from repro.core.similarity import similarity_graph
from repro.corpus import collection_ids
from repro.viz.export import similarity_to_graphml, write_similarity_graphml


@pytest.fixture(scope="module")
def figure3(seeded_repo):
    return similarity_graph(
        seeded_repo,
        collection_ids(seeded_repo, "nifty"),
        collection_ids(seeded_repo, "peachy"),
        threshold=2, left_group="nifty", right_group="peachy",
    )


NS = {"g": "http://graphml.graphdrawing.org/xmlns"}


def read_graphml(text):
    """Parse GraphML into ``(nodes, edges)``: ``{id: {attr: value}}`` and
    ``[(source, target, {attr: value})]``, attribute names and types
    resolved through the ``<key>`` declarations."""
    root = ET.fromstring(text)
    types = {"string": str, "long": int}
    keys = {k.get("id"): (k.get("attr.name"), types[k.get("attr.type")])
            for k in root.findall("g:key", NS)}

    def attrs(element):
        out = {}
        for d in element.findall("g:data", NS):
            name, kind = keys[d.get("key")]
            out[name] = kind(d.text or "")
        return out

    graph = root.find("g:graph", NS)
    nodes = {n.get("id"): attrs(n) for n in graph.findall("g:node", NS)}
    edges = [(e.get("source"), e.get("target"), attrs(e))
             for e in graph.findall("g:edge", NS)]
    return nodes, edges


class TestGraphml:
    def test_round_trips_through_elementtree(self, figure3):
        nodes, edges = read_graphml(similarity_to_graphml(figure3))
        assert list(nodes) == [str(n) for n in figure3.nodes]
        assert [(u, v) for u, v, _ in edges] == [
            (str(u), str(v)) for u, v in figure3.edges
        ]
        assert len(nodes) == figure3.number_of_nodes() == 76
        assert len(edges) == figure3.number_of_edges() == 24

    def test_attributes_survive(self, figure3):
        nodes, edges = read_graphml(similarity_to_graphml(figure3))
        groups = {d["group"] for d in nodes.values()}
        assert groups == {"nifty", "peachy"}
        for node, data in figure3.nodes(data=True):
            assert nodes[str(node)] == {"title": data["title"],
                                        "group": data["group"]}
        some_edge = edges[0]
        assert some_edge[2]["shared"] == 2
        assert "|" in some_edge[2]["shared_keys"]
        for (_, _, loaded), (_, _, data) in zip(edges, figure3.edges(data=True)):
            assert loaded == {"shared": data["shared"],
                              "shared_keys": "|".join(data["shared_keys"])}

    def test_is_valid_xml(self, figure3):
        ET.fromstring(similarity_to_graphml(figure3))

    def test_write_to_file(self, figure3, tmp_path):
        path = write_similarity_graphml(figure3, tmp_path / "fig3.graphml")
        assert path.exists()


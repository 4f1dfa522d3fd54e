"""CSV and GraphML exports."""

import csv
import io
import xml.etree.ElementTree as ET

import pytest

from repro.core.coverage import compute_coverage
from repro.core.similarity import similarity_graph
from repro.corpus import collection_ids
from repro.viz.export import (
    coverage_to_csv,
    materials_to_csv,
    similarity_to_graphml,
    write_coverage_csv,
    write_similarity_graphml,
)


@pytest.fixture(scope="module")
def itcs_coverage(seeded_repo):
    return compute_coverage(seeded_repo, "PDC12", collection="itcs3145")


@pytest.fixture(scope="module")
def figure3(seeded_repo):
    return similarity_graph(
        seeded_repo,
        collection_ids(seeded_repo, "nifty"),
        collection_ids(seeded_repo, "peachy"),
        threshold=2, left_group="nifty", right_group="peachy",
    )


class TestCoverageCsv:
    def test_rows_parse_and_match_report(self, seeded_repo, itcs_coverage):
        text = coverage_to_csv(itcs_coverage, seeded_repo.ontology("PDC12"))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows
        by_key = {r["key"]: r for r in rows}
        prog = by_key["PDC12/PROG"]
        assert int(prog["rollup"]) == 16
        assert prog["kind"] == "area"

    def test_uncovered_excluded_by_default(self, seeded_repo, itcs_coverage):
        text = coverage_to_csv(itcs_coverage, seeded_repo.ontology("PDC12"))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert all(int(r["rollup"]) > 0 for r in rows)

    def test_include_uncovered_lists_everything(self, seeded_repo, itcs_coverage):
        onto = seeded_repo.ontology("PDC12")
        text = coverage_to_csv(itcs_coverage, onto, include_uncovered=True)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(onto)

    def test_write_to_file(self, seeded_repo, itcs_coverage, tmp_path):
        path = write_coverage_csv(
            itcs_coverage, seeded_repo.ontology("PDC12"),
            tmp_path / "coverage.csv",
        )
        assert path.read_text().startswith("key,path,kind,direct,rollup")


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


class TestMaterialsCsv:
    def test_all_materials(self, seeded_repo):
        rows = list(csv.DictReader(io.StringIO(materials_to_csv(seeded_repo))))
        assert len(rows) == 97

    def test_collection_filter(self, seeded_repo):
        rows = list(csv.DictReader(io.StringIO(
            materials_to_csv(seeded_repo, "peachy")
        )))
        assert len(rows) == 11
        assert all(r["collection"] == "peachy" for r in rows)

    def test_classification_counts_positive(self, seeded_repo):
        rows = list(csv.DictReader(io.StringIO(materials_to_csv(seeded_repo))))
        assert all(int(r["n_classifications"]) > 0 for r in rows)

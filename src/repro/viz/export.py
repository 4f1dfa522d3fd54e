"""Graph export of the similarity analysis.

CAR-CS data feeds graph tools like Gephi with the similarity structure
(GraphML via :mod:`xml.etree`).  The writer is a pure function over the
analysis result; nothing re-queries the repository.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

from repro.core.similarity import SimilarityGraph


_GRAPHML_ROOT = {
    "xmlns": "http://graphml.graphdrawing.org/xmlns",
    "xmlns:xsi": "http://www.w3.org/2001/XMLSchema-instance",
    "xsi:schemaLocation": "http://graphml.graphdrawing.org/xmlns "
    "http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd",
}
#: (id, scope, attr.name, attr.type): ids numbered by first use, nodes
#: before edges, and declared newest first.
_GRAPHML_KEYS = (
    ("d3", "edge", "shared_keys", "string"), ("d2", "edge", "shared", "long"),
    ("d1", "node", "group", "string"), ("d0", "node", "title", "string"),
)


def similarity_to_graphml(graph: SimilarityGraph) -> str:
    """Similarity graph as GraphML (Gephi/yEd-loadable).

    Tuple attributes (``shared_keys``) are joined into a ``|``-separated
    string: GraphML supports scalar attribute types only.  A scope's
    keys are declared only when the graph has nodes (edges) to use them.
    """
    root = ET.Element("graphml", _GRAPHML_ROOT)
    for key_id, scope, name, kind in _GRAPHML_KEYS:
        if len(graph.nodes if scope == "node" else graph.edges):
            ET.SubElement(root, "key", {"id": key_id, "for": scope,
                                        "attr.name": name, "attr.type": kind})
    body = ET.SubElement(root, "graph", edgedefault="undirected")
    rows = [("node", {"id": str(n)}, {"d0": str(d.get("title", n)),
                                      "d1": str(d.get("group", ""))})
            for n, d in graph.nodes(data=True)]
    rows += [("edge", {"source": str(u), "target": str(v)},
              {"d2": str(int(d.get("shared", 0))),
               "d3": "|".join(d.get("shared_keys", ()))})
             for u, v, d in graph.edges(data=True)]
    for tag, attrs, data in rows:
        element = ET.SubElement(body, tag, attrs)
        for key_id, text in data.items():
            ET.SubElement(element, "data", key=key_id).text = text
    ET.indent(root)
    document = ET.tostring(root, encoding="utf-8", xml_declaration=True)
    return document.decode("utf-8") + "\n"


def write_similarity_graphml(graph: SimilarityGraph, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(similarity_to_graphml(graph))
    return path


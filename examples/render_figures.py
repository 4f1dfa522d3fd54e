#!/usr/bin/env python3
"""Regenerate every figure of the paper as SVG + text artifacts.

Writes to OUT_DIR (default artifacts/):
  figure2_{nifty,peachy,itcs3145}_{cs13,pdc12}.svg/.txt   (six panels)
  figure3_similarity.svg/.txt/.graphml
  report.html

Run:  python examples/render_figures.py [OUT_DIR]
"""

import sys
from pathlib import Path

from repro import compute_coverage, seeded_repository, similarity_graph
from repro.corpus import collection_ids
from repro.viz import graph_render, tree_render

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


def main(out: Path = ARTIFACTS) -> None:
    out.mkdir(exist_ok=True)
    repo = seeded_repository()

    panel = ord("a")
    for onto_name in ("CS13", "PDC12"):
        for collection in ("nifty", "peachy", "itcs3145"):
            coverage = compute_coverage(repo, onto_name, collection=collection)
            tree = coverage.tree(repo.ontology(onto_name))
            title = f"Figure 2{chr(panel)}: {collection} / {onto_name}"
            stem = f"figure2_{collection}_{onto_name.lower()}"
            (out / f"{stem}.svg").write_text(
                tree_render.render_svg(tree, title=title)
            )
            (out / f"{stem}.txt").write_text(
                tree_render.render_text(tree, max_depth=2) + "\n"
            )
            print(f"wrote {out / stem}.svg (+.txt)  [{title}]")
            panel += 1

    graph = similarity_graph(
        repo,
        collection_ids(repo, "nifty"),
        collection_ids(repo, "peachy"),
        threshold=2,
        left_group="nifty",
        right_group="peachy",
    )
    (out / "figure3_similarity.svg").write_text(
        graph_render.render_svg(
            graph, title="Figure 3: Nifty (blue) vs Peachy (red) similarity"
        )
    )
    (out / "figure3_similarity.txt").write_text(
        graph_render.render_text(graph) + "\n"
    )
    print(f"wrote {out}/figure3_similarity.svg (+.txt)")

    from repro.viz.export import write_similarity_graphml
    from repro.viz.html_report import write_report

    write_similarity_graphml(graph, out / "figure3_similarity.graphml")
    print(f"wrote {out}/figure3_similarity.graphml")
    write_report(repo, out / "report.html")
    print(f"wrote {out}/report.html (all panels, one page)")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else ARTIFACTS)

#!/usr/bin/env python3
"""Driving the Figure 1b classification tree widget headlessly.

Replays the IV-A curation session: open the PDC12 tree for a new
material, browse an area by hand, search for phrases, select entries
from the highlighted hits (unticking a false hit), and read the
resulting classification back — then lint it the way an editor would.

Run:  python examples/classify_with_widget.py
"""

from repro import Material, seeded_repository
from repro.analysis import lint_material
from repro.viz.tree_widget import TreeListWidget


def main() -> None:
    repo = seeded_repository()
    widget = TreeListWidget(repo.ontology("PDC12"))

    print("The collapsed PDC12 tree (what the curator first sees):\n")
    print(widget.render_text())

    print("\nOpening the Programming area by hand:\n")
    widget.expand("PDC12/PROG")
    print(widget.render_text(width=76))
    widget.collapse("PDC12/PROG")

    print("\nSearching for 'reduction'...")
    hits = widget.search("reduction")
    print(f"{hits} entries highlighted; the tree opens to them:\n")
    print(widget.render_text(width=76))

    pdc12 = repo.ontology("PDC12")
    for key in widget.highlighted():
        widget.select(key)
        # "Cost reduction through parallelism" matches the phrase but is
        # not about reductions: the curator unticks it again.
        if pdc12.node(key).label.startswith("Cost reduction"):
            widget.deselect(key)
    widget.search("speedup")
    for key in widget.highlighted():
        if "performance-metrics" in key:
            widget.select(key)

    print("\nThe selections, as they appear 'at the bottom of the "
          "material description':")
    classification = widget.to_classification()
    for item in classification.items():
        print(f"  {pdc12.path_string(str(item.key))}")

    material = repo.add_material(
        Material(
            title="Tree-Based Array Sum",
            description=(
                "Sum a large array with a tree-shaped parallel reduction "
                "and compare speedup against the sequential loop."
            ),
            collection="new",
        ),
        classification,
    )
    print(f"\nStored as material id={material.id}.")

    print("\nEditor's lint pass:")
    findings = lint_material(repo, material.id)
    if not findings:
        print("  clean — nothing for the editor to fix")
    for finding in findings:
        print(f"  [{finding.rule}] {finding.detail}")


if __name__ == "__main__":
    main()

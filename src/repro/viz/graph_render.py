"""Force-directed graph rendering (the Figure 3 panel).

A from-scratch Fruchterman–Reingold layout, fully vectorised with NumPy
(the all-pairs repulsion is one broadcasted distance computation per
iteration, per the HPC guide's vectorization rule), plus an SVG emitter
matching the paper's encoding: blue circles for Nifty, red for Peachy,
edges between materials sharing enough classification items.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.similarity import SimilarityGraph

from .color import group_color


def fruchterman_reingold(
    graph: SimilarityGraph,
    *,
    iterations: int = 150,
    size: float = 1.0,
    seed: int = 7,
) -> dict[object, tuple[float, float]]:
    """Compute a 2D force-directed layout.

    Returns ``node -> (x, y)`` with coordinates in ``[0, size]``.
    Deterministic for a given seed.  Isolated nodes drift to the border
    ring rather than overlapping the connected core.
    """
    nodes = list(graph.nodes())
    n = len(nodes)
    if n == 0:
        return {}
    index = {node: i for i, node in enumerate(nodes)}
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, size, size=(n, 2))

    k = size * math.sqrt(1.0 / n)  # ideal pairwise distance
    # Adjacency as an (n, n) boolean matrix for vectorised attraction.
    adj = np.zeros((n, n), dtype=bool)
    for u, v in graph.edges():
        i, j = index[u], index[v]
        adj[i, j] = adj[j, i] = True

    temperature = size / 10.0
    cooling = temperature / (iterations + 1)

    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]          # (n, n, 2)
        dist = np.linalg.norm(delta, axis=-1)              # (n, n)
        np.fill_diagonal(dist, np.inf)
        dist = np.maximum(dist, 1e-9)
        # Repulsion: k^2 / d, for every pair.
        repulse = (k * k) / dist                           # (n, n)
        disp = np.einsum("ijk,ij->ik", delta / dist[:, :, None], repulse)
        # Attraction: d^2 / k along edges only.
        attract = np.where(adj, dist * dist / k, 0.0)
        disp -= np.einsum("ijk,ij->ik", delta / dist[:, :, None], attract)
        # Limit displacement to the current temperature and step.
        length = np.linalg.norm(disp, axis=1, keepdims=True)
        length = np.maximum(length, 1e-9)
        pos += disp / length * np.minimum(length, temperature)
        np.clip(pos, 0.0, size, out=pos)
        temperature = max(temperature - cooling, 1e-4)

    return {node: (float(pos[i, 0]), float(pos[i, 1])) for node, i in index.items()}


def render_svg(
    graph: SimilarityGraph,
    *,
    size: int = 720,
    node_radius: float = 6.0,
    layout: dict | None = None,
    title: str | None = None,
) -> str:
    """Figure 3 style SVG: group-colored circles joined by shared-item
    edges, with titles as hover tooltips."""
    pos = layout if layout is not None else fruchterman_reingold(graph)
    margin = 4 * node_radius
    scale = size - 2 * margin

    def xy(node) -> tuple[float, float]:
        x, y = pos[node]
        return (margin + x * scale, margin + y * scale)

    parts: list[str] = []
    for u, v, data in graph.edges(data=True):
        x1, y1 = xy(u)
        x2, y2 = xy(v)
        width = 0.8 + 0.4 * float(data.get("shared", 1))
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="#999999" stroke-width="{width:.1f}" stroke-opacity="0.7"/>'
        )
    for node, data in graph.nodes(data=True):
        x, y = xy(node)
        fill = group_color(data.get("group", ""))
        label = str(data.get("title", node))
        escaped = (
            label.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        )
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{node_radius}" '
            f'fill="{fill}" stroke="#333333" stroke-width="0.8">'
            f"<title>{escaped}</title></circle>"
        )
    header = ""
    if title:
        escaped_title = title.replace("&", "&amp;").replace("<", "&lt;")
        header = (
            f'<text x="{size / 2:.0f}" y="18" font-size="14" '
            f'text-anchor="middle" font-family="sans-serif">{escaped_title}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">{header}'
        f"{''.join(parts)}</svg>"
    )


def render_text(graph: SimilarityGraph) -> str:
    """Terminal rendering: per-group node lists and the edge list."""
    groups: dict[str, list[str]] = {}
    for node, data in graph.nodes(data=True):
        groups.setdefault(data.get("group", "?"), []).append(
            f"{data.get('title', node)}{' *' if graph.degree(node) else ''}"
        )
    lines = []
    for group in sorted(groups):
        lines.append(f"{group} ({len(groups[group])} nodes, * = connected):")
        for title in sorted(groups[group]):
            lines.append(f"  {title}")
    lines.append(f"edges ({graph.number_of_edges()}):")
    for u, v, data in sorted(
        graph.edges(data=True), key=lambda e: (-e[2].get("shared", 0), str(e[0]))
    ):
        tu = graph.nodes[u].get("title", u)
        tv = graph.nodes[v].get("title", v)
        lines.append(f"  {tu}  <->  {tv}  (shared={data.get('shared')})")
    return "\n".join(lines)

"""Parameterised synthetic corpus generator.

The paper's crowdsourcing vision implies corpora far larger than the 97
seeded materials; the SCALE benchmark (DESIGN.md) measures how coverage,
similarity and search behave as the repository grows.  This generator
produces deterministic synthetic materials whose classifications follow a
realistic skewed (Zipf-like) popularity distribution over ontology
entries, with tunable topical clustering so the similarity graph has
non-trivial structure at every size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classification import ClassificationSet
from repro.core.material import CourseLevel, Material, MaterialKind
from repro.core.ontology import NodeKind, Ontology
from repro.core.repository import Repository

_ADJECTIVES = (
    "adaptive", "blazing", "compact", "dynamic", "elegant", "fuzzy",
    "greedy", "hybrid", "incremental", "jittery", "kinetic", "layered",
    "modular", "nimble", "optimal", "parallel", "quick", "robust",
    "scalable", "tiny",
)
_NOUNS = (
    "automaton", "buffer", "cipher", "dataset", "engine", "filter",
    "graph", "heap", "index", "journal", "kernel", "lattice", "matrix",
    "network", "oracle", "pipeline", "queue", "scheduler", "tree",
    "vector",
)
_VERBS = (
    "analyze", "balance", "compress", "decode", "explore", "fold",
    "generate", "hash", "iterate", "join", "merge", "navigate",
    "order", "partition", "query", "rank", "sample", "traverse",
    "update", "visualize",
)


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic corpus."""

    n_materials: int = 100
    min_items: int = 2              # classification entries per material
    max_items: int = 8
    n_clusters: int = 8             # topical neighborhoods in entry space
    zipf_s: float = 1.3             # popularity skew of ontology entries
    seed: int = 20190520            # IPDPSW 2019 opening day
    collection: str = "synthetic"


def _leaf_keys(ontology: Ontology) -> list[str]:
    return [
        n.key
        for n in ontology.nodes()
        if n.kind in (NodeKind.TOPIC, NodeKind.LEARNING_OUTCOME)
    ]


def generate_specs(
    ontology: Ontology, config: GeneratorConfig
) -> list[tuple[Material, ClassificationSet]]:
    """Deterministic synthetic (material, classification) pairs.

    Entries are drawn per material from a mixture of a global Zipf
    popularity law and the material's cluster-local preference, so both
    the "few hot topics" and "topical neighborhoods" properties of real
    corpora are present.
    """
    rng = np.random.default_rng(config.seed)
    leaves = _leaf_keys(ontology)
    n_leaves = len(leaves)
    if n_leaves == 0:
        raise ValueError("ontology has no leaf entries")

    # Global popularity: Zipf over a random permutation of the leaves.
    ranks = rng.permutation(n_leaves) + 1
    popularity = 1.0 / np.power(ranks.astype(np.float64), config.zipf_s)
    popularity /= popularity.sum()

    # Cluster-local preferences: each cluster concentrates on a random
    # subset of ~5% of entries.
    cluster_masks = []
    width = max(4, n_leaves // 20)
    for _ in range(config.n_clusters):
        chosen = rng.choice(n_leaves, size=width, replace=False)
        mask = np.zeros(n_leaves)
        mask[chosen] = 1.0
        cluster_masks.append(mask)

    out: list[tuple[Material, ClassificationSet]] = []
    levels = list(CourseLevel)
    kinds = (
        MaterialKind.ASSIGNMENT,
        MaterialKind.ASSIGNMENT,
        MaterialKind.ASSIGNMENT,
        MaterialKind.LECTURE_SLIDES,
        MaterialKind.EXAM,
    )
    for i in range(config.n_materials):
        cluster = int(rng.integers(config.n_clusters))
        local = cluster_masks[cluster]
        # 60% local neighborhood, 40% global popularity.
        weights = 0.6 * local / max(local.sum(), 1.0) + 0.4 * popularity
        weights /= weights.sum()
        k = int(rng.integers(config.min_items, config.max_items + 1))
        k = min(k, n_leaves)
        chosen = rng.choice(n_leaves, size=k, replace=False, p=weights)

        adjective = _ADJECTIVES[int(rng.integers(len(_ADJECTIVES)))]
        noun = _NOUNS[int(rng.integers(len(_NOUNS)))]
        verb = _VERBS[int(rng.integers(len(_VERBS)))]
        labels = [ontology.node(leaves[int(c)]).label for c in chosen[:3]]
        material = Material(
            title=f"Synthetic {i:05d}: the {adjective} {noun}",
            description=(
                f"Students {verb} a {adjective} {noun} while practicing "
                + "; ".join(l.lower() for l in labels)
                + "."
            ),
            kind=kinds[int(rng.integers(len(kinds)))],
            course_level=levels[int(rng.integers(len(levels)))],
            collection=config.collection,
            year=2010 + int(rng.integers(10)),
        )
        cs = ClassificationSet()
        for c in chosen:
            cs.add(ontology.name, leaves[int(c)])
        out.append((material, cs))
    return out


def _cluster_weights(
    rng: np.random.Generator, n_leaves: int, config: GeneratorConfig
) -> np.ndarray:
    """The per-cluster entry-sampling weight matrix (n_clusters x
    n_leaves), drawn exactly like :func:`generate_specs` draws its
    popularity law and cluster masks."""
    ranks = rng.permutation(n_leaves) + 1
    popularity = 1.0 / np.power(ranks.astype(np.float64), config.zipf_s)
    popularity /= popularity.sum()
    width = max(4, n_leaves // 20)
    weights = np.empty((config.n_clusters, n_leaves))
    for c in range(config.n_clusters):
        chosen = rng.choice(n_leaves, size=width, replace=False)
        mask = np.zeros(n_leaves)
        mask[chosen] = 1.0
        weights[c] = 0.6 * mask / max(mask.sum(), 1.0) + 0.4 * popularity
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def synthesize_database(
    directory,
    config: GeneratorConfig | None = None,
    *,
    ontology_name: str = "CS13",
    block_rows: int | None = None,
    chunk_rows: int = 1024,
) -> dict:
    """Write ``config.n_materials`` synthetic materials straight to a
    format-2 blocked checkpoint at ``directory`` — the million-material
    path.

    :func:`seed_synthetic` routes every material through engine inserts
    (constraint checks, WAL frames, MVCC publication), which is correct
    but O(corpus) resident and far too slow at 10^6.  This writer
    sidesteps the engine: materials are drawn in vectorized numpy chunks
    (weighted sampling without replacement via exponential races) and
    streamed directly into a :class:`~repro.db.pager.BlockFileWriter`,
    so peak memory is one chunk of rows plus a compact int32 buffer of
    classification links (~12 bytes/link).  ``Database.open`` on the
    result pages rows in lazily through the block cache.

    Deterministic: same config -> byte-identical rows file + manifest.
    Returns a summary dict (materials, links, version, path).
    """
    from pathlib import Path

    from repro.db.pager import BlockFileWriter
    from repro.db.snapshot import schema_to_dict
    from repro.ontologies import load as _load_ontology

    config = config or GeneratorConfig()
    # A scratch in-memory repository supplies everything that is *not*
    # synthesized: table schemas in FK-dependency creation order, the
    # mirrored ontology_entries rows, and the declared index set.
    scratch = Repository()
    scratch.add_ontology(_load_ontology(ontology_name))
    ontology = scratch.ontology(ontology_name)
    leaves = _leaf_keys(ontology)
    n_leaves = len(leaves)
    if n_leaves == 0:
        raise ValueError("ontology has no leaf entries")
    entry_ids = np.array(
        [scratch.entry_id(key) for key in leaves], dtype=np.int64
    )
    labels = [ontology.node(key).label.lower() for key in leaves]

    rng = np.random.default_rng(config.seed)
    weights = _cluster_weights(rng, n_leaves, config)
    levels = [lv.value for lv in CourseLevel]
    kinds = (
        MaterialKind.ASSIGNMENT.value,
        MaterialKind.ASSIGNMENT.value,
        MaterialKind.ASSIGNMENT.value,
        MaterialKind.LECTURE_SLIDES.value,
        MaterialKind.EXAM.value,
    )

    # Per-material link targets, buffered compactly while material rows
    # stream out (link rows serialize later, in table-creation order).
    link_mids: list[np.ndarray] = []
    link_eids: list[np.ndarray] = []

    def material_rows():
        n = config.n_materials
        for start in range(0, n, chunk_rows):
            count = min(chunk_rows, n - start)
            clusters = rng.integers(config.n_clusters, size=count)
            ks = np.minimum(
                rng.integers(config.min_items, config.max_items + 1,
                             size=count),
                n_leaves,
            )
            adj = rng.integers(len(_ADJECTIVES), size=count)
            noun = rng.integers(len(_NOUNS), size=count)
            verb = rng.integers(len(_VERBS), size=count)
            kind = rng.integers(len(kinds), size=count)
            level = rng.integers(len(levels), size=count)
            year = 2010 + rng.integers(10, size=count)
            # Weighted sampling without replacement, all rows at once:
            # each entry's exponential clock fires at Exp(1)/w, and the
            # first k to fire are the sample (the Gumbel-top-k dual).
            clocks = rng.exponential(size=(count, n_leaves))
            clocks /= weights[clusters]
            kmax = int(ks.max())
            top = np.argpartition(
                clocks, min(kmax, n_leaves - 1), axis=1
            )[:, :kmax]
            order = np.take_along_axis(clocks, top, axis=1).argsort(axis=1)
            top = np.take_along_axis(top, order, axis=1)
            mids = np.repeat(
                np.arange(start + 1, start + count + 1, dtype=np.int64), ks
            )
            flat = np.concatenate(
                [top[i, : ks[i]] for i in range(count)]
            ) if count else np.empty(0, dtype=np.int64)
            link_mids.append(mids.astype(np.int32))
            link_eids.append(entry_ids[flat].astype(np.int32))
            for i in range(count):
                mid = start + i + 1
                adjective = _ADJECTIVES[int(adj[i])]
                noun_word = _NOUNS[int(noun[i])]
                chosen = top[i, : min(3, ks[i])]
                yield mid, {
                    "id": mid,
                    "title": f"Synthetic {start + i:05d}: "
                             f"the {adjective} {noun_word}",
                    "description": (
                        f"Students {_VERBS[int(verb[i])]} a {adjective} "
                        f"{noun_word} while practicing "
                        + "; ".join(labels[int(c)] for c in chosen)
                        + "."
                    ),
                    "kind": kinds[int(kind[i])],
                    "url": "",
                    "course_level": levels[int(level[i])],
                    "collection": config.collection,
                    "year": int(year[i]),
                }

    def link_rows():
        lid = 0
        for mids, eids in zip(link_mids, link_eids):
            for mid, eid in zip(mids.tolist(), eids.tolist()):
                lid += 1
                yield lid, {
                    "id": lid,
                    "materials_id": mid,
                    "ontology_entries_id": eid,
                    "bloom": None,
                }

    db = scratch.db
    # Version only needs to be monotonic for future WAL frames; one
    # bump per synthesized material mirrors what inserts would cost.
    final_version = db.version + config.n_materials
    writer = BlockFileWriter(
        directory, version=final_version, name=db.name,
        block_rows=block_rows,
    )
    counts: dict[str, int] = {}
    try:
        with db.lock.write():
            for table in db._tables.values():
                if table.name == "materials":
                    items = material_rows()
                elif table.name == "material_classifications":
                    items = link_rows()
                else:
                    writer.add_table(
                        schema_to_dict(table.schema), table._items(),
                        next_id=table.next_id, version=table.version,
                        indexes=table.index_columns(),
                        sorted_indexes=table.sorted_index_columns(),
                    )
                    counts[table.name] = len(table)
                    continue
                counts[table.name] = writer.add_table(
                    schema_to_dict(table.schema), items,
                    indexes=table.index_columns(),
                    sorted_indexes=table.sorted_index_columns(),
                )
        writer.finish()
    except BaseException:
        writer.abort()
        raise
    return {
        "path": str(Path(directory) / "snapshot.json"),
        "materials": counts.get("materials", 0),
        "links": counts.get("material_classifications", 0),
        "version": final_version,
        "tables": counts,
    }


def seed_synthetic(
    repo: Repository,
    ontology_name: str = "CS13",
    config: GeneratorConfig | None = None,
) -> list[int]:
    """Generate and insert a synthetic corpus; returns the material ids.

    The ontology must already be loaded in the repository.
    """
    config = config or GeneratorConfig()
    ontology = repo.ontology(ontology_name)
    ids = []
    for material, cs in generate_specs(ontology, config):
        stored = repo.add_material(material, cs)
        assert stored.id is not None
        ids.append(stored.id)
    return ids

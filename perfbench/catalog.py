"""``catalog``: in-process ``Repository``/``Query`` traffic on a 10^5-material
blocked checkpoint opened lazily.

Closed loop, one client, no HTTP, no writes. The mix is point reads
(Zipf-skewed and uniform keys), title-prefix and year-range planner
queries with order, offset and limit, and ``materials_with`` semi-joins.
The rows file is larger than the 64 MiB ``BlockCache``: a semi-join
probes link rows scattered over the whole link table, so it pages blocks
in and evicts others, and later reads miss. This is the only workload
whose working set exceeds a program cache.

Semi-joins are the expensive class (milliseconds, several block loads
each); at 3% of ops they stay above p90. Whole-corpus coverage is left
out of the mix (seconds per call). Lazy index builds happen in set-up.
"""

from __future__ import annotations

import heapq
import json
import random
from pathlib import Path

from harness import SpanLog, op_kinds
from layers import program_counters

OPS_PER_SECOND = 3000
SETUP_REPEATS = 3
#: How strongly this workload's speed follows the speed probe's, fitted
#: on a 2-vCPU host (see ``harness.speed_scale``): about 1, since point
#: reads and block decoding are pure Python like the probe.
SPEED_SENSITIVITY = 1.0

N_MATERIALS = 100_000
#: The corpus is the same for every seed; ``--seed`` drives the op
#: sequence, so runs on different seeds page the same rows file.
CORPUS_SEED = 20190520
#: Semi-join keys are drawn from entries with this many links, so every
#: semi-join does a similar amount of paging.
LINKS_LOW, LINKS_HIGH = 4, 12
ZIPF_S = 1.2
PAGE = 20
YEARS = range(2010, 2020)

#: (kind, share of ops).
MIX = (
    ("zipf_get", 0.45),
    ("uniform_get", 0.20),
    ("prefix", 0.12),
    ("year", 0.20),
    ("materials_with", 0.03),
)


def prepare(seed: int, workdir: Path) -> None:
    """Synthesize the corpus straight to the cold tier, then record the
    semi-join key pool (entries with LINKS_LOW..LINKS_HIGH links)."""
    from collections import Counter

    from repro.corpus.generator import GeneratorConfig, synthesize_database
    from repro.db import Database

    directory = workdir / "corpus"
    synthesize_database(directory, GeneratorConfig(
        n_materials=N_MATERIALS, seed=CORPUS_SEED, collection="catalog"))
    db = Database.open(directory)
    try:
        links = Counter(
            row["ontology_entries_id"]
            for row in db.table("material_classifications"))
        keys = {row["id"]: row["key"] for row in db.table("ontology_entries")}
    finally:
        db.close()
    pool = sorted(keys[eid] for eid, n in links.items()
                  if LINKS_LOW <= n <= LINKS_HIGH)
    (workdir / "keys.json").write_text(json.dumps(pool))


def make_inputs(seed: int, n_ops: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    pool = json.loads((workdir / "keys.json").read_text())
    # Which keys are hot is part of the fixed corpus, not the seed.
    hot = list(range(1, N_MATERIALS + 1))
    random.Random(CORPUS_SEED).shuffle(hot)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))]
    plan = op_kinds(rng, MIX, n_ops)
    zipf = iter(rng.choices(hot, weights=weights, k=plan.count("zipf_get")))
    ops = []
    for kind in plan:
        if kind == "zipf_get":
            ops.append(("get", next(zipf)))
        elif kind == "uniform_get":
            ops.append(("get", rng.randint(1, N_MATERIALS)))
        elif kind == "prefix":
            ops.append(("prefix", f"Synthetic {rng.randrange(10_000):04d}"))
        elif kind == "year":
            low = rng.choice(YEARS[:-2])
            ops.append(("year", low, low + rng.randint(1, 2),
                        rng.random() < 0.5, rng.randrange(0, 200, PAGE)))
        else:
            ops.append(("materials_with", rng.choice(pool)))
    return {"ops": ops, "dir": workdir / "corpus"}


class State:
    def __init__(self, repo) -> None:
        self.repo = repo
        self.db = repo.db


def _prefix_query(db, prefix: str):
    from repro.db import query

    return query(db, "materials").where_prefix(
        "title", prefix).order_by("title").limit(PAGE)


def _year_query(db, low: int, high: int, descending: bool, offset: int):
    from repro.db import query

    return query(db, "materials").where_range(
        "year", low, high).order_by("year", descending=descending).offset(
        offset).limit(PAGE)


def setup(inputs: dict, log: SpanLog | None = None):
    from repro.core.repository import Repository
    from repro.db import Database

    state = State(Repository(Database.open(inputs["dir"])))
    # Warm: build the lazy title/year sorted indexes, the link-table and
    # entry-key hash indexes and the facet link indexes.
    first = {}
    for op in inputs["ops"]:
        first.setdefault(op[0], op)
    for op in first.values():
        yield
        run_op(state, op)
    return state


def teardown(state: State) -> None:
    state.db.close()


def run_op(state: State, op: tuple):
    kind = op[0]
    if kind == "get":
        return state.repo.get_material(op[1])
    if kind == "prefix":
        return _prefix_query(state.db, op[1]).all()
    if kind == "year":
        return _year_query(state.db, *op[1:]).all()
    return state.repo.materials_with(op[1])


def reference(state: State, inputs: dict) -> dict:
    """Planner results from one scan of the tables, no index involved."""
    ops = inputs["ops"]
    prefixes = {op[1] for op in ops if op[0] == "prefix"}
    years = {op[1:] for op in ops if op[0] == "year"}
    wanted_keys = {op[1] for op in ops if op[0] == "materials_with"}
    by_prefix: dict[str, list] = {p: [] for p in prefixes}
    ranges = {(low, high) for low, high, _, _ in years}
    depth = 200 + PAGE
    # (year, id) keys; the engine orders ties by pk.
    lowest = {r: [] for r in ranges}
    highest = {r: [] for r in ranges}
    for row in state.db.table("materials"):
        title, year, pk = row["title"], row["year"], row["id"]
        head = title[:14]
        if head in by_prefix:
            by_prefix[head].append((title, pk))
        for low, high in ranges:
            if low <= year < high:
                entry = (year, pk)
                heap = highest[(low, high)]
                if len(heap) < depth:
                    heapq.heappush(heap, entry)
                else:
                    heapq.heappushpop(heap, entry)
                neg = lowest[(low, high)]
                if len(neg) < depth:
                    heapq.heappush(neg, (-year, -pk))
                else:
                    heapq.heappushpop(neg, (-year, -pk))
    ref: dict = {"prefix": {}, "year": {}, "materials_with": {}}
    for prefix, rows in by_prefix.items():
        ref["prefix"][prefix] = [pk for _, pk in sorted(rows)[:PAGE]]
    for low, high, descending, offset in years:
        if descending:
            ordered = sorted(highest[(low, high)], reverse=True)
        else:
            ordered = sorted((-y, -pk) for y, pk in lowest[(low, high)])
        ref["year"][(low, high, descending, offset)] = [
            pk for _, pk in ordered[offset:offset + PAGE]]
    entry_ids = {
        row["id"]: row["key"] for row in state.db.table("ontology_entries")
        if row["key"] in wanted_keys}
    linked: dict[str, set[int]] = {key: set() for key in wanted_keys}
    for mid, eid in state.repo.material_classifications.pairs():
        if eid in entry_ids:
            linked[entry_ids[eid]].add(mid)
    ref["materials_with"] = {k: sorted(v) for k, v in linked.items()}
    return ref


def verify(state: State, ref: dict, op: tuple, output) -> bool:
    kind = op[0]
    if kind == "get":
        return output.id == op[1]
    if kind == "materials_with":
        return [m.id for m in output] == ref["materials_with"][op[1]]
    ids = [row["id"] for row in output]
    if kind == "prefix":
        return ids == ref["prefix"][op[1]]
    return ids == ref["year"][op[1:]]


def counters(state: State) -> dict[str, float]:
    return program_counters(state.repo)


def extra(state: State, inputs: dict) -> dict[str, float]:
    """Rows the planner examined per row returned, over the first ten
    queries of each shape (``Query.explain``)."""
    examined = returned = 0
    samples: dict[str, int] = {}
    for op in inputs["ops"]:
        if op[0] not in ("prefix", "year") or samples.get(op[0], 0) >= 10:
            continue
        samples[op[0]] = samples.get(op[0], 0) + 1
        query = (_prefix_query(state.db, op[1]) if op[0] == "prefix"
                 else _year_query(state.db, *op[1:]))
        report = query.explain()
        examined += _leaf_rows(report["plan"])
        returned += report["rows"]
    return {"writes": 0, "user_bytes": 0,
            "rows_examined_per_result": examined / max(returned, 1)}


def _leaf_rows(node: dict) -> int:
    children = node.get("children")
    if not children:
        return node["actual_rows"] or 0
    return sum(_leaf_rows(child) for child in children)

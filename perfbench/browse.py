"""``browse``: instructor read traffic over HTTP to a live ``ApiServer``.

Closed loop, one client, one keep-alive connection. The mix is v2 BM25
search with Zipf-skewed query terms, material GET, collection coverage
(Fig. 2), collection similarity (Fig. 3), cursor-paged listing and
recommendations, on the seed corpus plus 2000 synthetic materials in
memory. Every distinct analytics key of the mix fits the 256-entry
``AnalyticsCache``, so after set-up every analytics call hits and the
time goes to the web layers and search.

The op shares keep p50 inside the mass of sub-2 ms reads and p90 inside
the search distribution: recommendations, the one expensive class
(about 15 ms), are 3% of ops.
"""

from __future__ import annotations

import random
import re
from urllib.parse import quote

from harness import SpanLog, op_kinds
from httpclient import KeepAliveClient, decode
from layers import program_counters

OPS_PER_SECOND = 600
SETUP_REPEATS = 3
#: How strongly this workload's speed follows the speed probe's, fitted
#: on a 2-vCPU host (see ``harness.speed_scale``): about 1 with the
#: process pinned to one CPU (0.6-0.7 without the pin).
SPEED_SENSITIVITY = 1.0

SYNTHETIC_COLLECTIONS = 4
SYNTHETIC_PER_COLLECTION = 500
SEED_COLLECTIONS = ("nifty", "peachy", "itcs3145")
ONTOLOGIES = ("CS13", "PDC12")
PAGE = 20
ZIPF_S = 1.1
RECOMMEND_TOPICS = 16
#: The corpus and its query-term popularity are the same for every seed;
#: ``--seed`` drives the op sequence, so runs on different seeds measure
#: the same data.
CORPUS_SEED = 20190520

#: (kind, share of ops).
MIX = (
    ("search", 0.37),
    ("get", 0.30),
    ("coverage", 0.12),
    ("list", 0.10),
    ("similarity", 0.08),
    ("recommend", 0.03),
)

_WORD = re.compile(r"[a-z]{4,}")


def _zipf_sampler(rng: random.Random, items: list, s: float):
    weights = [1.0 / (rank + 1) ** s for rank in range(len(items))]
    return lambda k=1: rng.choices(items, weights=weights, k=k)


def make_inputs(seed: int, n_ops: int, workdir) -> dict:
    from repro.corpus import itcs3145, nifty, peachy
    from repro.corpus.generator import GeneratorConfig, generate_specs
    from repro.ontologies import load

    rng = random.Random(seed)
    cs13 = load("CS13")
    specs = []
    for i in range(SYNTHETIC_COLLECTIONS):
        specs += generate_specs(cs13, GeneratorConfig(
            n_materials=SYNTHETIC_PER_COLLECTION, seed=CORPUS_SEED + i,
            collection=f"course-{i}",
        ))
    n_materials = (len(nifty.SPECS) + len(peachy.SPECS)
                   + len(itcs3145.SPECS) + len(specs))
    vocabulary = sorted({
        word for material, _ in specs
        for word in _WORD.findall(material.description.lower())
    })
    # Which terms are popular is part of the fixed corpus, not the seed.
    random.Random(CORPUS_SEED).shuffle(vocabulary)
    terms = _zipf_sampler(rng, vocabulary, ZIPF_S)
    collections = list(SEED_COLLECTIONS) + [
        f"course-{i}" for i in range(SYNTHETIC_COLLECTIONS)]
    pairs = [(a, b) for i, a in enumerate(SEED_COLLECTIONS)
             for b in SEED_COLLECTIONS[i + 1:]]
    # Instructors ask for recommendations on a few popular topics. The
    # topics are part of the fixed corpus: a recommendation costs about
    # 25x a read, so a per-seed pool would move throughput between seeds.
    topic_terms = _zipf_sampler(random.Random(CORPUS_SEED), vocabulary, ZIPF_S)
    topics = [" ".join(topic_terms(3)) for _ in range(RECOMMEND_TOPICS)]
    ops = []
    for kind in op_kinds(rng, MIX, n_ops):
        if kind == "search":
            ops.append((kind, " ".join(dict.fromkeys(
                terms(rng.randint(1, 3))))))
        elif kind == "get":
            ops.append((kind, rng.randint(1, n_materials)))
        elif kind == "coverage":
            ops.append((kind, rng.choice(collections), rng.choice(ONTOLOGIES)))
        elif kind == "list":
            ops.append((kind, rng.choice(collections)))
        elif kind == "similarity":
            ops.append((kind, *rng.choice(pairs)))
        else:
            ops.append((kind, rng.choice(topics)))
    return {"specs": specs, "ops": ops, "collections": collections}


class State:
    def __init__(self, repo, api, server, client) -> None:
        self.repo = repo
        self.api = api
        self.server = server
        self.client = client
        self.cursors: dict[str, str | None] = {}
        self.offsets: dict[str, int] = {}


def setup(inputs: dict, log: SpanLog | None = None):
    from repro.core.repository import Repository
    from repro.corpus.seed import seed_all
    from repro.web import CarCsApi
    from repro.web.server import ApiServer

    repo = seed_all(Repository())
    specs = inputs["specs"]
    for start in range(0, len(specs), 250):
        yield
        for material, classification in specs[start:start + 250]:
            repo.add_material(material, classification)
    yield
    api = CarCsApi(repo)
    server = ApiServer(api).start()
    state = State(repo, api, server, KeepAliveClient(server.port, log))
    # Warm: build the search index, fit the recommender, and fill the
    # analytics cache with every key the mix uses.
    warm = {op for op in inputs["ops"]
            if op[0] in ("coverage", "similarity", "list")}
    for op in [("search", "parallel"), ("recommend", "parallel"),
               *sorted(warm)]:
        yield
        run_op(state, op)
    state.cursors.clear()
    state.offsets.clear()
    return state


def teardown(state: State) -> None:
    state.client.close()
    state.server.stop()
    state.api.close()


def _path_query(text: str) -> str:
    return quote(text, safe="")


def run_op(state: State, op: tuple):
    kind = op[0]
    client = state.client
    if kind == "search":
        return client.call(
            "GET", f"/api/v2/search?q={_path_query(op[1])}&limit={PAGE}")
    if kind == "get":
        return client.call("GET", f"/api/v2/materials/{op[1]}")
    if kind == "coverage":
        return client.call(
            "GET", f"/api/v2/coverage?collection={op[1]}&ontology={op[2]}")
    if kind == "similarity":
        return client.call(
            "GET", f"/api/v2/similarity?left={op[1]}&right={op[2]}")
    if kind == "list":
        collection = op[1]
        cursor = state.cursors.get(collection)
        path = f"/api/v2/materials?collection={collection}&limit={PAGE}"
        if cursor:
            path += f"&cursor={cursor}"
        reply = client.call("GET", path)
        offset = state.offsets.get(collection, 0) if cursor else 0
        try:
            next_cursor = decode(reply, 200)["next_cursor"]
        except (AssertionError, ValueError, KeyError):
            next_cursor = None
        state.cursors[collection] = next_cursor
        state.offsets[collection] = offset + PAGE if next_cursor else 0
        return offset, reply
    return client.call("POST", "/api/v2/recommendations",
                       {"text": op[1], "top": 5})


def reference(state: State, inputs: dict) -> dict:
    """Expected outputs, from direct ``Repository`` calls."""
    from repro.corpus.seed import collection_ids

    repo = state.repo
    ref: dict = {"search": {}, "recommend": {}, "coverage": {},
                 "similarity": {}, "list": {}}
    for op in inputs["ops"]:
        kind = op[0]
        if kind == "search" and op[1] not in ref["search"]:
            ref["search"][op[1]] = [
                hit.material.id for hit in repo.search(op[1], limit=PAGE)]
        elif kind == "recommend" and op[1] not in ref["recommend"]:
            ref["recommend"][op[1]] = [
                r.key for r in repo.recommend(op[1], (), top=5)]
        elif kind == "coverage" and op[1:] not in ref["coverage"]:
            onto = repo.ontology(op[2])
            report = repo.coverage(op[2], collection=op[1])
            ref["coverage"][op[1:]] = [
                [area.code, count]
                for area, count in report.area_ranking(onto)]
        elif kind == "similarity" and op[1:] not in ref["similarity"]:
            graph = repo.similarity(
                collection_ids(repo, op[1]), collection_ids(repo, op[2]),
                threshold=2, left_group=op[1], right_group=op[2])
            ref["similarity"][op[1:]] = sorted(
                (u, v) for u, v in graph.edges())
        elif kind == "list" and op[1] not in ref["list"]:
            ref["list"][op[1]] = collection_ids(repo, op[1])
    ref["titles"] = {
        m.id: m.title for m in repo.materials()}
    return ref


def verify(state: State, ref: dict, op: tuple, output) -> bool:
    kind = op[0]
    if kind == "list":
        offset, reply = output
        body = decode(reply, 200)
        ids = ref["list"][op[1]]
        return ([item["id"] for item in body["items"]]
                == ids[offset:offset + PAGE] and body["total"] == len(ids))
    body = decode(output, 200)
    if kind == "search":
        return [item["id"] for item in body["items"]] == ref["search"][op[1]]
    if kind == "get":
        return body["id"] == op[1] and body["title"] == ref["titles"][op[1]]
    if kind == "coverage":
        return [[a["code"], a["count"]] for a in body["areas"]] == (
            ref["coverage"][op[1:]])
    if kind == "similarity":
        return sorted((e["left"], e["right"]) for e in body["edges"]) == (
            ref["similarity"][op[1:]])
    return [s["key"] for s in body["suggestions"]] == ref["recommend"][op[1]]


def counters(state: State) -> dict[str, float]:
    return program_counters(state.repo)


def extra(state: State, inputs: dict) -> dict[str, float]:
    return {"writes": 0, "user_bytes": state.client.sent_bytes}

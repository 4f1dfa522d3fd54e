"""``curate``: a curator's write session over HTTP on a durable database.

Closed loop, one client, one keep-alive connection to a live
``ApiServer`` over a database opened with ``Database.open`` (WAL,
batched fsyncs). Each session is a write followed by the reads that must
see it:

* create a material with classifications, then GET it and search for
  its title;
* rename it (PATCH), then GET it and search for the new title;
* classify / declassify it, then read the coverage of the curator's
  course collection;
* submit a classification suggestion and accept it on review, then read
  the coverage. There is no HTTP route that files a human suggestion, so
  the submit is an in-process ``Repository.suggest_classification`` call;
  the review is ``POST /api/v2/suggestions/<id>/accept``.

The curator's materials go to a course collection that rolls over every
``CREATES_PER_TERM`` creates, so the coverage read is always over a
small collection of tens of materials. About 60% of ops are cheap
(writes and GETs, under ~1 ms) and 40% are the search and coverage
reads a write invalidated (several ms), so p50 sits inside the cheap
class and p90 inside the read class, away from both the class boundary
and the rare checkpoint and fsync spikes.
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path
from urllib.parse import quote

from harness import SpanLog, op_kinds
from httpclient import KeepAliveClient, decode
from layers import program_counters

OPS_PER_SECOND = 420
SETUP_REPEATS = 9
#: How strongly this workload's speed follows the speed probe's (see
#: ``harness.speed_scale``): taken as browse's, the other HTTP workload
#: (both fitted at 0.7 without the one-CPU pin).
SPEED_SENSITIVITY = 1.0
WRITE_KINDS = frozenset(
    {"create", "patch", "classify", "declassify", "submit", "review"})

#: A checkpoint every ~128 KiB of WAL: the default 4 MiB would not
#: checkpoint at all within a run, and the workload must show at least
#: three.
ENV = {"CARCS_WAL_COMPACT_BYTES": str(128 * 1024)}

ARCHIVE_MATERIALS = 300
#: The archive is the same for every seed; ``--seed`` drives the op
#: sequence.
CORPUS_SEED = 20190520
CREATES_PER_TERM = 25
CURATOR = "curator"
ONTOLOGIES = ("PDC12", "CS13")

#: (session kind, share of sessions).
SESSIONS = (
    ("create", 0.30),
    ("patch", 0.20),
    ("classify", 0.20),
    ("declassify", 0.15),
    ("submit", 0.15),
)

_ADJECTIVES = ("parallel", "scalable", "concurrent", "distributed",
               "vectorized", "pipelined", "blocked", "tiled")
_NOUNS = ("prefix sum", "matrix multiply", "histogram", "stencil",
          "merge sort", "graph search", "reduction", "n-body")


def _code(n: int) -> str:
    """A distinctive lowercase token per ordinal (no digits: the search
    tokenizer keeps words)."""
    letters = []
    n += 26 * 26
    while n:
        n, r = divmod(n, 26)
        letters.append(chr(ord("a") + r))
    return "qx" + "".join(letters)


def _leaves(name: str) -> list[str]:
    from repro.ontologies import load

    return [node.key for node in load(name).leaves()]


def prepare(seed: int, workdir: Path) -> None:
    """Build the durable database the curator works on."""
    from repro.core.repository import SYSTEM_EDITOR, Repository, Role
    from repro.corpus.generator import GeneratorConfig, seed_synthetic
    from repro.corpus.seed import seed_all
    from repro.jobs import JobQueue

    repo = seed_all(Repository())
    seed_synthetic(repo, "CS13", GeneratorConfig(
        n_materials=ARCHIVE_MATERIALS, seed=CORPUS_SEED,
        collection="archive"))
    repo.add_user(CURATOR, Role.SUBMITTER)
    repo.ensure_user(SYSTEM_EDITOR, Role.EDITOR)
    JobQueue(repo.db)  # the API creates the job table otherwise
    repo.db.attach(workdir / "db")
    repo.db.close()


def make_inputs(seed: int, n_ops: int, workdir: Path) -> dict:
    """The op sequence. Ops name the curator's materials by creation
    ordinal; the ids come from the create replies at run time."""
    rng = random.Random(seed)
    leaves = {name: _leaves(name) for name in ONTOLOGIES}
    keys: list[dict[str, str]] = []  # per ordinal: key -> ontology
    ops: list[tuple] = []
    # Every session adds at least two ops, so n_ops sessions are enough.
    sessions = iter(op_kinds(rng, SESSIONS, n_ops))

    def term_of(ordinal: int) -> str:
        return f"term-{ordinal // CREATES_PER_TERM}"

    def pick_key(owned: dict[str, str]) -> tuple[str, str]:
        while True:
            onto = rng.choice(ONTOLOGIES)
            key = rng.choice(leaves[onto])
            if key not in owned:
                return onto, key

    def title(ordinal: int, version: int) -> str:
        return (f"Lab {_code(ordinal)} {_code(version + 5000)} - "
                f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}")

    renames = 0
    while len(ops) < n_ops:
        kind = next(sessions)
        if kind != "create" and keys:
            # Edit one of the current term's materials.
            first = (len(keys) - 1) // CREATES_PER_TERM * CREATES_PER_TERM
            ordinal = rng.randrange(first, len(keys))
        else:
            kind = "create"
            ordinal = len(keys)
        owned = keys[ordinal] if kind != "create" else {}
        if kind == "create":
            chosen: dict[str, str] = {}
            while len(chosen) < 3:
                onto, key = pick_key(chosen)
                chosen[key] = onto
            keys.append(chosen)
            text = title(ordinal, 0)
            ops.append(("create", ordinal, text, term_of(ordinal),
                        sorted(chosen.items())))
            ops.append(("get", ordinal, text))
            ops.append(("search", ordinal, text))
        elif kind == "patch":
            renames += 1
            text = title(ordinal, renames)
            ops.append(("patch", ordinal, text))
            ops.append(("get", ordinal, text))
            ops.append(("search", ordinal, text))
        elif kind == "declassify" and len(owned) > 1:
            key = rng.choice(sorted(owned))
            onto = owned.pop(key)
            ops.append(("declassify", ordinal, key))
            ops.append(("coverage", term_of(ordinal), onto))
        else:
            onto, key = pick_key(owned)
            owned[key] = onto
            if kind == "submit":
                ops.append(("submit", ordinal, key))
                ops.append(("review", ordinal, key, onto))
            else:
                ops.append(("classify", ordinal, onto, key))
            ops.append(("coverage", term_of(ordinal), onto))
    # Every measuring process starts from the prepared database, not from
    # what an earlier process wrote to it.
    directory = workdir / f"db-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(workdir / "db", directory)
    return {"ops": ops[:n_ops], "dir": directory}


class State:
    def __init__(self, repo, api, server, client, curator: int) -> None:
        self.repo = repo
        self.api = api
        self.server = server
        self.client = client
        self.curator = curator
        #: Creation ordinal -> material id, and the client's own model of
        #: what each material is classified under (key -> ontology).
        self.ids: list[int] = []
        self.model: list[dict[str, str]] = []
        self.pending: dict[tuple[int, str], int] = {}


def setup(inputs: dict, log: SpanLog | None = None):
    from repro.core.repository import Repository
    from repro.db import Database
    from repro.web import CarCsApi
    from repro.web.server import ApiServer

    repo = Repository(Database.open(inputs["dir"]))
    yield
    api = CarCsApi(repo)
    server = ApiServer(api).start()
    client = KeepAliveClient(server.port, log)
    curator = repo.db.table("users").find_one(name=CURATOR)["id"]
    state = State(repo, api, server, client, curator)
    # Warm: build the search index and the coverage path.
    yield
    decode(client.call("GET", "/api/v2/search?q=parallel"), 200)
    for onto in ONTOLOGIES:
        yield
        decode(client.call(
            "GET", f"/api/v2/coverage?collection=archive&ontology={onto}"),
            200)
    return state


def teardown(state: State) -> None:
    state.client.close()
    state.server.stop()
    state.api.close()
    state.repo.db.close()


def run_op(state: State, op: tuple):
    kind = op[0]
    client = state.client
    if kind == "create":
        _, _, title, term, chosen = op
        return client.call("POST", "/api/v2/materials", {
            "title": title,
            "description": f"Course lab for {term}: {title}.",
            "collection": term,
            "classifications": [
                {"ontology": onto, "key": key} for key, onto in chosen],
        })
    if kind == "search":
        return client.call(
            "GET", f"/api/v2/search?q={quote(op[2], safe='')}&limit=5")
    if kind == "coverage":
        return client.call(
            "GET", f"/api/v2/coverage?collection={op[1]}&ontology={op[2]}")
    mid = state.ids[op[1]]
    if kind == "get":
        return client.call("GET", f"/api/v2/materials/{mid}")
    if kind == "patch":
        return client.call("PATCH", f"/api/v2/materials/{mid}",
                           {"title": op[2]})
    if kind == "classify":
        return client.call("POST", f"/api/v2/materials/{mid}/classifications",
                           {"ontology": op[2], "key": op[3]})
    if kind == "declassify":
        return client.call(
            "DELETE",
            f"/api/v2/materials/{mid}/classifications?key={quote(op[2])}")
    if kind == "submit":
        return state.repo.suggest_classification(
            mid, op[2], action="add", suggested_by=state.curator)
    if kind == "review":
        sid = state.pending.pop((op[1], op[2]))
        return client.call("POST", f"/api/v2/suggestions/{sid}/accept")
    raise ValueError(f"unknown op kind {kind!r}")


def reference(state: State, inputs: dict) -> dict:
    """Area code of every leaf the op sequence can touch."""
    area_of: dict[str, str] = {}
    for name in ONTOLOGIES:
        onto = state.repo.ontology(name)
        for area in onto.areas():
            for key in onto.subtree_keys(area.key):
                area_of[key] = area.code
    return {"area_of": area_of}


def verify(state: State, ref: dict, op: tuple, output) -> bool:
    kind = op[0]
    if kind == "create":
        body = decode(output, 201)
        state.ids.append(body["id"])
        state.model.append(dict(op[4]))
        return (body["collection"] == op[3] and sorted(
            c["key"] for c in body["classifications"]) == sorted(
            key for key, _ in op[4]))
    if kind == "search":
        hits = [item["id"] for item in decode(output, 200)["items"]]
        return bool(hits) and hits[0] == state.ids[op[1]]
    if kind in ("patch", "get"):
        return decode(output, 200)["title"] == op[2]
    if kind == "classify":
        state.model[op[1]][op[3]] = op[2]
        return op[3] in {
            c["key"] for c in decode(output, 201)["classifications"]}
    if kind == "declassify":
        state.model[op[1]].pop(op[2])
        return decode(output, 200) == {"removed": op[2]}
    if kind == "submit":
        state.pending[(op[1], op[2])] = output
        return isinstance(output, int)
    if kind == "review":
        state.model[op[1]][op[2]] = op[3]
        return decode(output, 200)["status"] == "approved"
    # coverage: the client's model of the term's materials, rolled up to
    # first-level areas, must equal what the server reports.
    body = decode(output, 200)
    expected: dict[str, int] = {}
    first = int(op[1].split("-")[1]) * CREATES_PER_TERM
    for owned in state.model[first:first + CREATES_PER_TERM]:
        areas = {ref["area_of"][key] for key, onto in owned.items()
                 if onto == op[2]}
        for code in areas:
            expected[code] = expected.get(code, 0) + 1
    got = {a["code"]: a["count"] for a in body["areas"] if a["count"]}
    return got == expected


def counters(state: State) -> dict[str, float]:
    return program_counters(state.repo)


def extra(state: State, inputs: dict) -> dict[str, float]:
    writes = sum(1 for op in inputs["ops"] if op[0] in WRITE_KINDS)
    return {"writes": writes, "user_bytes": state.client.sent_bytes}

"""``carcs`` — command-line front end to the CAR-CS system.

Stands in for the prototype's web UI when driving the system from a
terminal or scripts.  Every subcommand operates on either the built-in
seeded repository (the paper's prototype state) or a JSON snapshot
produced by ``carcs export``.

Examples::

    carcs stats
    carcs coverage --collection itcs3145 --ontology PDC12
    carcs similarity --left nifty --right peachy --threshold 2
    carcs search "monte carlo fire" --limit 5
    carcs gaps --reference nifty --candidate peachy
    carcs recommend "parallel loops over an image with OpenMP"
    carcs plan --ontology PDC12 --tier core
    carcs diff PDC12 PDC19
    carcs explain materials --eq collection=nifty --order title
    carcs explain materials --range year:2010:2020 --order year --limit 5
    carcs trace coverage --collection itcs3145 --ontology PDC12
    carcs trace --id 7f3a... --url http://127.0.0.1:8088   # fleet trace
    carcs top --url http://127.0.0.1:8088 --interval 2     # live ops view
    carcs export snapshot.json ; carcs --snapshot snapshot.json stats
    carcs snapshot ./storage            # durable dir: checkpoint + WAL
    carcs recover ./storage             # replay WAL tail, report, stats
    carcs serve --primary --repl-port 9090
    carcs serve --replica 127.0.0.1:9090 --port 8081
    carcs serve --router --primary-url http://127.0.0.1:8080 \
        --replica-url http://127.0.0.1:8081
    carcs serve --workers 2             # drain jobs beside the server
    carcs jobs ./storage --enqueue-classify --drain
    carcs worker ./storage              # external worker pool
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.analysis import compare_communities, core_targets, plan_course
from repro.core.coverage import compute_coverage
from repro.core.ontology import Tier
from repro.core.repository import Repository
from repro.core.search import SearchEngine, SearchFilters
from repro.core.similarity import isolated_materials, similarity_graph
from repro.corpus.seed import collection_ids, seed_all
from repro.ontologies import load
from repro.ontologies.diff import diff_ontologies
from repro.viz import tree_render


def _open_repository(args: argparse.Namespace) -> Repository:
    if args.snapshot:
        from repro.core.persist import load_json

        return load_json(args.snapshot)
    return seed_all()


def cmd_stats(repo: Repository, args: argparse.Namespace) -> int:
    print(f"collections: {', '.join(repo.collections()) or '(none)'}")
    for name, onto in sorted(repo.ontologies.items()):
        print(f"ontology {name}: {len(onto)} entries, "
              f"{len(onto.areas())} areas")
    for key, value in sorted(repo.stats().items()):
        if value:
            print(f"{key}: {value}")
    return 0


def cmd_coverage(repo: Repository, args: argparse.Namespace) -> int:
    onto = repo.ontology(args.ontology)
    coverage = compute_coverage(repo, args.ontology, collection=args.collection)
    if args.tree:
        print(tree_render.render_text(
            coverage.tree(onto), max_depth=args.depth
        ))
    else:
        print(f"{args.collection or 'all'} vs {args.ontology} "
              f"({coverage.n_materials} materials):")
        for area, count in coverage.area_ranking(onto):
            if count or args.all:
                print(f"  {area.code or area.label[:5]:6s} "
                      f"{area.label:48s} {count:4d}")
    return 0


def cmd_similarity(repo: Repository, args: argparse.Namespace) -> int:
    graph = similarity_graph(
        repo,
        collection_ids(repo, args.left),
        collection_ids(repo, args.right),
        threshold=args.threshold,
        left_group=args.left,
        right_group=args.right,
    )
    print(f"nodes={graph.number_of_nodes()} edges={graph.number_of_edges()}")
    print(f"isolated {args.left}: "
          f"{len(isolated_materials(graph, args.left))}")
    print(f"isolated {args.right}: "
          f"{len(isolated_materials(graph, args.right))}")
    for u, v, data in sorted(
        graph.edges(data=True), key=lambda e: -e[2]["shared"]
    ):
        print(f"  {graph.nodes[u]['title']}  <->  {graph.nodes[v]['title']} "
              f"(shared={data['shared']})")
    return 0


def cmd_search(repo: Repository, args: argparse.Namespace) -> int:
    """Search with the facet query language, e.g.
    ``carcs search "language:python under:PDC12/PROG monte carlo"``."""
    from dataclasses import replace

    from repro.core.query_language import QuerySyntaxError, parse_query

    engine = SearchEngine(repo)
    try:
        parsed = parse_query(args.query)
    except QuerySyntaxError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    filters = parsed.filters
    if args.collection:
        filters = replace(
            filters, collections=filters.collections + (args.collection,)
        )
    if args.under:
        filters = replace(filters, under=filters.under + (args.under,))
    hits = engine.search(parsed.text, filters, limit=args.limit)
    if not hits:
        print("no results")
        return 1
    for hit in hits:
        print(f"{hit.score:5.2f}  [{hit.material.collection}] "
              f"{hit.material.title}")
    return 0


def cmd_gaps(repo: Repository, args: argparse.Namespace) -> int:
    comparison = compare_communities(
        repo, args.reference, args.candidate, args.ontology
    )
    print(comparison.format())
    return 0


def cmd_recommend(repo: Repository, args: argparse.Namespace) -> int:
    recs = repo.recommend(args.text, args.selected or (), top=args.top)
    if not recs:
        print("no suggestions")
        return 1
    for rec in recs:
        print(f"{rec.score:5.2f}  {rec.key}")
    return 0


def cmd_plan(repo: Repository, args: argparse.Namespace) -> int:
    onto = repo.ontology(args.ontology)
    tiers = {
        "core": (Tier.CORE, Tier.CORE1),
        "core2": (Tier.CORE, Tier.CORE1, Tier.CORE2),
        "all": tuple(Tier),
    }[args.tier]
    plan = plan_course(
        repo, args.ontology, core_targets(onto, tiers),
        max_materials=args.max_materials,
    )
    print(plan.format(onto))
    return 0


def _explain_value(raw: str):
    """CLI literal -> column value: int/float when they parse, ``null``
    for None, anything else verbatim."""
    if raw == "null":
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def cmd_explain(repo: Repository, args: argparse.Namespace) -> int:
    """Build a query from the command line, run it, and print the plan
    the cost-based planner chose — estimated vs. actual rows per node,
    plus the table's declared indexes."""
    from repro.db import query as db_query
    from repro.db import render_plan
    from repro.db.errors import SchemaError

    try:
        q = db_query(repo.db, args.table)
        for spec in args.eq or ():
            column, sep, raw = spec.partition("=")
            if not sep:
                raise SystemExit(f"--eq expects COLUMN=VALUE, got {spec!r}")
            q = q.filter(**{column: _explain_value(raw)})
        for spec in args.range or ():
            parts = spec.split(":")
            if len(parts) != 3:
                raise SystemExit(
                    f"--range expects COLUMN:LOW:HIGH (empty = unbounded), "
                    f"got {spec!r}"
                )
            column, low, high = parts
            q = q.where_range(
                column,
                _explain_value(low) if low else None,
                _explain_value(high) if high else None,
            )
        for spec in args.prefix or ():
            column, sep, raw = spec.partition("=")
            if not sep:
                raise SystemExit(
                    f"--prefix expects COLUMN=PREFIX, got {spec!r}"
                )
            q = q.where_prefix(column, raw)
        if args.order:
            q = q.order_by(args.order, descending=args.desc)
        if args.limit is not None:
            q = q.limit(args.limit)
        if args.offset:
            q = q.offset(args.offset)
        report = q.explain()
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"table:   {report['table']}")
    print(f"plan:    {report['summary']}")
    print(f"rows:    {report['rows']} returned "
          f"(planner estimate {report['est_rows']:g})")
    indexes = repo.db.table(args.table).indexes()
    if indexes:
        rendered = ", ".join(
            f"{column} ({kind})" for column, kind in sorted(indexes.items())
        )
        print(f"indexes: {rendered}")
    print(render_plan(report["plan"]))
    return 0


def cmd_diff(repo: Repository, args: argparse.Namespace) -> int:
    diff = diff_ontologies(load(args.old), load(args.new))
    print(diff.format())
    return 0 if diff.is_empty() else 0


def cmd_export(repo: Repository, args: argparse.Namespace) -> int:
    from repro.core.persist import save_json

    path = save_json(repo, args.path)
    print(f"wrote {path}")
    return 0


def cmd_profile(repo: Repository, args: argparse.Namespace) -> int:
    from repro.analysis import collection_profile, entry_popularity

    for collection in (args.collections or repo.collections()):
        profile = collection_profile(repo, collection)
        sizes = profile["classification_sizes"]
        print(f"{collection}: {profile['materials']} materials "
              f"({profile['kinds']})")
        print(f"  entries/material: mean {sizes.mean:.1f}, "
              f"median {sizes.median:.0f}, max {sizes.maximum}")
        if profile["year_range"]:
            print(f"  years: {profile['year_range'][0]}-"
                  f"{profile['year_range'][1]}")
        if profile["languages"]:
            langs = ", ".join(
                f"{k} ({v})" for k, v in list(profile["languages"].items())[:5]
            )
            print(f"  languages: {langs}")
    print("\nhottest entries:")
    for onto in sorted(repo.ontologies):
        for key, n in entry_popularity(repo, onto, top=args.top):
            print(f"  {n:3d}  {key}")
    return 0


def cmd_report(repo: Repository, args: argparse.Namespace) -> int:
    from repro.viz.html_report import write_report

    path = write_report(repo, args.path)
    print(f"wrote {path}")
    return 0


def cmd_lint(repo: Repository, args: argparse.Namespace) -> int:
    from repro.analysis import lint_repository

    findings = lint_repository(repo, collection=args.collection)
    if not findings:
        print("clean — no classification issues found")
        return 0
    for finding in findings:
        print(f"[{finding.rule}] {finding.title}")
        print(f"    {finding.detail}")
    print(f"{len(findings)} finding(s)")
    return 1


def _fetch_json(url: str, timeout: float = 5.0):
    """GET ``url`` and decode the JSON body (stdlib only)."""
    import json
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def cmd_trace(args: argparse.Namespace) -> int:
    """Two modes sharing one renderer:

    * ``carcs trace <op>`` — run one repository operation fully traced
      in-process and pretty-print the span tree (wall/self/CPU per
      layer).
    * ``carcs trace --id TRACE_ID --url URL`` — fetch a trace from a
      running node.  Against the front tier this is the *stitched*
      fleet-wide tree (router → primary/replica → job segments, each
      hop labelled ``@process``); against a single node its local
      segments are stitched client-side.
    """
    from repro.obs import (
        MODE_ALL,
        get_tracer,
        render_text,
        render_tree,
        stitch_trace,
    )

    if args.id:
        base = args.url.rstrip("/")
        try:
            payload = _fetch_json(f"{base}/api/v2/traces/{args.id}")
        except Exception as exc:  # noqa: BLE001 — network CLI boundary
            print(f"could not fetch trace {args.id!r} from {base}: {exc}",
                  file=sys.stderr)
            return 1
        if "processes" not in payload:
            # A member node's local payload: stitch its segments here so
            # the single-node view renders identically.
            from urllib.parse import urlparse

            process = urlparse(base).netloc or base
            segments = payload.get("segments") or (
                [payload["root"]] if payload.get("root") else []
            )
            payload = stitch_trace(
                payload.get("trace_id", args.id),
                [(process, segment) for segment in segments],
            )
        print(render_tree(payload))
        return 0

    if not args.op:
        print("trace: either an operation or --id TRACE_ID is required",
              file=sys.stderr)
        return 2
    repo = _open_repository(args)
    tracer = get_tracer()
    tracer.configure(mode=MODE_ALL, slow_ms=args.slow_ms)
    with tracer.trace(f"cli.{args.op}") as root:
        if args.op == "search":
            engine = SearchEngine(repo)
            engine.search(args.query or "", SearchFilters(), limit=args.limit)
        elif args.op == "coverage":
            repo.coverage(args.ontology, collection=args.collection)
        elif args.op == "similarity":
            repo.similarity(
                collection_ids(repo, args.left),
                collection_ids(repo, args.right),
                left_group=args.left, right_group=args.right,
            )
        elif args.op == "recommend":
            repo.recommend(args.query or "parallel sorting", top=args.limit)
        else:
            repo.stats()
    record = tracer.store.get(root.trace_id)
    if record is None:  # pragma: no cover - mode=all always retains
        print("trace was not retained", file=sys.stderr)
        return 1
    print(render_text(record))
    return 0


def _fleet_members(base: str):
    """Resolve what ``carcs top`` watches: ``(router status | None,
    [(member name, base url), ...])``.

    Pointed at a front tier, ``/api/v1/fleet`` names the primary and
    every replica (with URLs); pointed at a single node — or when the
    fleet endpoint is unreachable — the URL itself is the one member.
    """
    try:
        fleet = _fetch_json(f"{base}/api/v1/fleet")
    except Exception:  # noqa: BLE001 — not a router; treat as one node
        return None, [("node", base)]
    members = []
    if fleet.get("primary_url"):
        members.append((fleet.get("primary", "primary"), fleet["primary_url"]))
    for replica in fleet.get("replicas", ()):
        if replica.get("url"):
            members.append((replica["name"], replica["url"]))
    if not members:
        members = [("node", base)]
    return fleet, members


def _top_cell(value, width: int, precision: int = 2) -> str:
    if value is None:
        return f"{'-':>{width}s}"
    return f"{value:>{width}.{precision}f}"


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal ops view over a fleet (or a single node).

    Each refresh makes one ``/api/v2/slo`` fetch per member — that
    payload already carries the burn-rate windows, queue depth and
    replication lag — and renders one row per member: request rate,
    p99 latency, availability, the availability/latency burn rates,
    queued jobs and replica lag.
    """
    import time as _time

    base = args.url.rstrip("/")
    clear = sys.stdout.isatty() and args.iterations != 1
    iteration = 0
    while True:
        fleet, members = _fleet_members(base)
        lines = []
        if fleet is not None:
            replicas = fleet.get("replicas", [])
            lines.append(
                f"router {fleet.get('name', 'router')}: "
                f"reads={fleet.get('reads', 0)} "
                f"writes={fleet.get('writes', 0)} "
                f"healthy={fleet.get('healthy_replicas', 0)}/{len(replicas)} "
                f"sessions={fleet.get('sessions', 0)} "
                f"primary_errors={fleet.get('primary_errors', 0)}"
            )
        lines.append(
            f"{'member':<14s} {'req/s':>8s} {'p99ms':>8s} {'avail':>8s} "
            f"{'burn:a':>8s} {'burn:l':>8s} {'queued':>7s} {'lag s':>8s} "
            f"{'up s':>9s}"
        )
        for name, url in members:
            try:
                slo = _fetch_json(f"{url.rstrip('/')}/api/v2/slo")
            except Exception as exc:  # noqa: BLE001 — keep rendering
                lines.append(f"{name:<14s} unreachable: {exc}")
                continue
            windows = slo.get("windows", {})
            window = windows.get(args.window)
            if window is None:
                window = next(iter(windows.values()), {})
            jobs = slo.get("jobs", {})
            replication = slo.get("replication", {})
            queued = (jobs.get("queued", 0) or 0) + (jobs.get("leased", 0) or 0)
            lines.append(
                f"{name:<14s} "
                f"{_top_cell(window.get('req_s'), 8)} "
                f"{_top_cell(window.get('p99_ms'), 8, 1)} "
                f"{_top_cell(window.get('availability'), 8, 4)} "
                f"{_top_cell(window.get('availability_burn'), 8)} "
                f"{_top_cell(window.get('latency_burn'), 8)} "
                f"{queued:>7d} "
                f"{_top_cell(replication.get('lag_seconds'), 8, 3)} "
                f"{_top_cell(slo.get('uptime_seconds'), 9, 1)}"
            )
        if clear:
            print("\x1b[2J\x1b[H", end="")
        print("\n".join(lines), flush=True)
        iteration += 1
        if args.iterations and iteration >= args.iterations:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
        if not clear:
            print()


def cmd_snapshot(repo: Repository, args: argparse.Namespace) -> int:
    """Persist the repository into a durable storage directory: write a
    full checkpoint snapshot and attach a WAL for further commits."""
    path = repo.db.attach(args.dir, wal_sync=args.wal_sync)
    print(f"checkpointed version {repo.db.version} to {path}")
    repo.db.close()
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Open a durable storage directory (no seeding — recovery must not
    depend on being able to rebuild state from code) and report what the
    snapshot restore + WAL replay did."""
    from repro.db import Database

    db = Database.open(args.dir)
    report = db.recovery_report
    assert report is not None
    print(f"snapshot version: {report['snapshot_version']}")
    print(f"frames replayed:  {report['frames_replayed']} "
          f"({report['ops_replayed']} ops)")
    if report["torn"]:
        print(f"torn WAL tail:    truncated {report['truncated_bytes']} bytes")
    else:
        print("torn WAL tail:    none")
    print(f"recovered version: {db.version}")
    if "materials" in db:
        repo = Repository(db)
        for key, value in sorted(repo.stats().items()):
            if value:
                print(f"{key}: {value}")
    db.close()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Run a standalone worker pool against a durable storage directory.

    The queue lives in the same database the server commits to, so a
    worker process started beside ``carcs serve`` (same directory)
    drains the jobs the API enqueues — and a worker killed mid-job is
    harmless: its lease expires and the job is leased out again.
    """
    import time

    from repro.db import Database
    from repro.jobs import JobQueue, WorkerPool, default_handlers

    db = Database.open(args.dir)
    if "materials" not in db:
        print(f"{args.dir} has no materials table — nothing to classify",
              file=sys.stderr)
        db.close()
        return 1
    repo = Repository(db)
    queue = JobQueue(db)
    pool = WorkerPool(
        queue, default_handlers(repo),
        size=args.threads, name="cli",
    ).start()
    counts = queue.counts()
    print(f"worker pool ({args.threads} threads) on {args.dir}: "
          f"{counts['queued']} queued, {counts['leased']} leased "
          f"(Ctrl-C to stop)")
    try:
        if args.drain:
            pool.drain(timeout=args.timeout)
        else:
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        pool.stop()
        db.close()
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """Inspect and drive the durable job queue of a storage directory."""
    from repro.db import Database
    from repro.jobs import JobQueue, default_handlers, run_pending

    db = Database.open(args.dir)
    queue = JobQueue(db)
    try:
        if args.enqueue_classify:
            job = queue.enqueue("classify", {})
            print(f"enqueued classify job {job['id']}")
        if args.drain:
            if "materials" not in db:
                print(f"{args.dir} has no materials table", file=sys.stderr)
                return 1
            run = run_pending(queue, default_handlers(Repository(db)))
            print(f"ran {run} job(s)")
        if args.job is not None:
            job = queue.get(args.job)
            if job is None:
                print(f"no job with id {args.job}", file=sys.stderr)
                return 1
            for key in ("id", "kind", "status", "attempts", "max_attempts",
                        "payload", "result", "error"):
                print(f"{key}: {job.get(key)}")
            return 0
        counts = queue.counts()
        print("  ".join(f"{state}={n}" for state, n in counts.items()))
        for job in queue.jobs()[:args.limit]:
            print(f"  #{job['id']} {job['kind']:10s} {job['status']:7s} "
                  f"attempts={job['attempts']}/{job['max_attempts']} "
                  f"{job['error'] or ''}".rstrip())
    finally:
        db.close()
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    """Synthesize a blocked-checkpoint database of N materials on disk.

    Bypasses the engine's insert path (see
    :func:`repro.corpus.generator.synthesize_database`), so a million
    materials lands in seconds with flat memory — and opening the
    result pages rows in lazily through the block cache.
    """
    import time

    from repro.corpus.generator import GeneratorConfig, synthesize_database

    config = GeneratorConfig(
        n_materials=args.n, seed=args.seed, collection=args.collection,
    )
    t0 = time.perf_counter()
    out = synthesize_database(
        args.dir, config,
        ontology_name=args.ontology, block_rows=args.block_rows,
    )
    elapsed = time.perf_counter() - t0
    print(f"synthesized {out['materials']} materials "
          f"({out['links']} classification links) into {args.dir} "
          f"in {elapsed:.1f}s")
    print(f"open with: carcs recover {args.dir}  (or Database.open)")
    return 0


def _parse_address(raw: str) -> tuple[str, int]:
    host, _, port = raw.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {raw!r}")
    return host, int(port)


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the REST API — standalone, or as one node of a replicated
    deployment:

    * ``carcs serve`` — the single-node server (as before).
    * ``carcs serve --primary`` — also bind the WAL shipper so replicas
      can stream this node's commits.
    * ``carcs serve --replica HOST:PORT`` — bootstrap from that primary's
      shipper, keep applying its stream, and serve the read surface
      (mutations answer 403 pointing at the primary).
    * ``carcs serve --router --primary-url URL --replica-url URL ...`` —
      the front tier: writes to the primary, reads fanned across the
      replicas with read-your-writes per ``x-carcs-session``.
    """
    from repro.web import CarCsApi, FrontTier, HttpBackend
    from repro.web.server import ApiServer

    if args.router:
        if not args.primary_url:
            raise SystemExit("--router requires --primary-url")
        front = FrontTier(
            HttpBackend("primary", args.primary_url),
            [HttpBackend(f"replica-{i}", url)
             for i, url in enumerate(args.replica_url)],
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            max_inflight=args.max_inflight,
        )
        server = ApiServer(front, host=args.host, port=args.port)
        print(f"routing at {server.url}: writes -> {args.primary_url}, "
              f"reads -> {len(args.replica_url)} replica(s) (Ctrl-C to stop)")
        server.serve_forever()
        return 0

    if args.replica:
        from repro.db import Database
        from repro.replication import ReplicaApplier

        # The replica database starts empty and receives its entire
        # state from the stream — local writes would fork its history,
        # so the Repository facade is only attached once the bootstrap
        # snapshot has landed (its schema comes from the primary).
        db = Database("carcs-replica")
        applier = ReplicaApplier(db, _parse_address(args.replica)).start()
        print(f"replica {applier.replica_id}: bootstrapping from "
              f"{args.replica} ...")
        while not applier.wait_ready(1.0):
            print("  waiting for the primary ...")
        repo = Repository(db)
        applier.on_snapshot = repo.refresh_bindings
        api = CarCsApi(
            repo, replication=applier, read_only=True,
            primary_url=args.primary_url,
            rate_limit=args.rate_limit, rate_burst=args.rate_burst,
            max_inflight=args.max_inflight,
        )
        server = ApiServer(api, host=args.host, port=args.port)
        print(f"serving read-only CAR-CS API at {server.url} "
              f"(version {db.version}, Ctrl-C to stop)")
        try:
            server.serve_forever()
        finally:
            applier.stop()
        return 0

    repo = _open_repository(args)
    replication = None
    if args.primary:
        from repro.replication import PrimaryShipper

        replication = PrimaryShipper(
            repo.db, args.repl_host, args.repl_port,
            checkpoint_every=args.checkpoint_every,
        ).start()
        host, port = replication.address
        print(f"shipping WAL frames at {host}:{port}")
    api = CarCsApi(
        repo, replication=replication, workers=args.workers,
        rate_limit=args.rate_limit, rate_burst=args.rate_burst,
        max_inflight=args.max_inflight,
    )
    server = ApiServer(api, host=args.host, port=args.port, threaded=True)
    suffix = f", {args.workers} job worker(s)" if args.workers else ""
    print(f"serving CAR-CS API at {server.url}{suffix} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        api.close()
        if replication is not None:
            replication.stop()
    return 0


def _limit(raw: str) -> int:
    """A size (``--limit``, ``--offset``, ``--top``): negative is a usage
    error (exit 2), as in the API."""
    if int(raw) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {raw}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carcs",
        description="CAR-CS: classify and analyze pedagogical materials",
    )
    parser.add_argument(
        "--snapshot", help="operate on a JSON snapshot instead of the "
        "built-in seeded repository",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="repository summary")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("coverage", help="area coverage of a collection")
    p.add_argument("--collection", default=None)
    p.add_argument("--ontology", default="CS13")
    p.add_argument("--tree", action="store_true", help="render the tree")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--all", action="store_true", help="include zero areas")
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("similarity", help="cross-collection similarity graph")
    p.add_argument("--left", default="nifty")
    p.add_argument("--right", default="peachy")
    p.add_argument("--threshold", type=int, default=2)
    p.set_defaults(fn=cmd_similarity)

    p = sub.add_parser("search", help="faceted full-text search")
    p.add_argument("query")
    p.add_argument("--collection", default=None)
    p.add_argument("--under", default=None, help="ontology subtree key")
    p.add_argument("--limit", type=_limit, default=10)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("gaps", help="community gap analysis")
    p.add_argument("--reference", default="nifty")
    p.add_argument("--candidate", default="peachy")
    p.add_argument("--ontology", default="CS13")
    p.set_defaults(fn=cmd_gaps)

    p = sub.add_parser("recommend", help="suggest classifications for text")
    p.add_argument("text")
    p.add_argument("--selected", nargs="*", default=None,
                   help="already-selected entry keys")
    p.add_argument("--top", type=_limit, default=10)
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("plan", help="greedy course plan over core topics")
    p.add_argument("--ontology", default="PDC12")
    p.add_argument("--tier", choices=("core", "core2", "all"), default="core")
    p.add_argument("--max-materials", type=int, default=None)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "explain",
        help="show the query plan the cost-based planner picks for an "
             "ad-hoc query (estimated vs. actual rows per node)",
    )
    p.add_argument("table", help="table to query (e.g. materials)")
    p.add_argument("--eq", action="append", metavar="COLUMN=VALUE",
                   help="equality filter (repeatable)")
    p.add_argument("--range", action="append", metavar="COLUMN:LOW:HIGH",
                   help="range filter, empty bound = unbounded (repeatable)")
    p.add_argument("--prefix", action="append", metavar="COLUMN=PREFIX",
                   help="string-prefix filter (repeatable)")
    p.add_argument("--order", default=None, help="order-by column")
    p.add_argument("--desc", action="store_true", help="descending order")
    p.add_argument("--limit", type=_limit, default=None)
    p.add_argument("--offset", type=_limit, default=0)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("diff", help="diff two ontology editions")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("export", help="write a JSON snapshot")
    p.add_argument("path")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("profile", help="descriptive corpus statistics")
    p.add_argument("--collections", nargs="*", default=None)
    p.add_argument("--top", type=_limit, default=5)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("report", help="write the self-contained HTML report")
    p.add_argument("path")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("lint", help="lint classifications like an editor")
    p.add_argument("--collection", default=None)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "trace",
        help="run one operation fully traced and print the span tree, or "
             "fetch a (stitched, fleet-wide) trace from a running node "
             "with --id/--url",
    )
    p.add_argument(
        "op", nargs="?", default=None,
        choices=("search", "coverage", "similarity", "recommend", "stats"),
    )
    p.add_argument("--id", default=None, metavar="TRACE_ID",
                   help="fetch this trace over HTTP instead of running "
                        "an operation locally")
    p.add_argument("--url", default="http://127.0.0.1:8080",
                   help="node or front-tier base URL (with --id)")
    p.add_argument("--query", default=None, help="search/recommend text")
    p.add_argument("--collection", default=None)
    p.add_argument("--ontology", default="PDC12")
    p.add_argument("--left", default="nifty")
    p.add_argument("--right", default="peachy")
    p.add_argument("--limit", type=_limit, default=10)
    p.add_argument("--slow-ms", type=float, default=100.0,
                   help="slow-span threshold for the SLOW marker")
    p.set_defaults(fn=cmd_trace, needs_repo=False)

    p = sub.add_parser(
        "top",
        help="live fleet ops view: per-member request rate, p99, SLO "
             "burn rates, queue depth and replica lag",
    )
    p.add_argument("--url", default="http://127.0.0.1:8080",
                   help="front-tier (or single node) base URL")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after N refreshes (0 = until Ctrl-C)")
    p.add_argument("--window", default="5m",
                   help="SLO window to display (5m, 1h)")
    p.set_defaults(fn=cmd_top, needs_repo=False)

    p = sub.add_parser(
        "serve",
        help="serve the REST API over HTTP (standalone, --primary, "
             "--replica HOST:PORT, or --router)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--primary", action="store_true",
                   help="also bind the WAL shipper for read replicas")
    p.add_argument("--repl-host", default="127.0.0.1",
                   help="shipper bind host (with --primary)")
    p.add_argument("--repl-port", type=int, default=9090,
                   help="shipper bind port (with --primary; 0 = ephemeral)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="ship a snapshot checkpoint every N frames "
                        "(with --primary; 0 = bootstrap/catch-up only)")
    p.add_argument("--replica", metavar="HOST:PORT", default=None,
                   help="serve as a read replica streaming from this "
                        "primary shipper")
    p.add_argument("--router", action="store_true",
                   help="serve as the front tier over --primary-url / "
                        "--replica-url nodes")
    p.add_argument("--primary-url", default="",
                   help="primary node base URL (--router; also names the "
                        "write target in replica 403s)")
    p.add_argument("--replica-url", action="append", default=[],
                   help="replica node base URL (--router; repeatable)")
    p.add_argument("--workers", type=int, default=0,
                   help="start N in-process job workers beside the server "
                        "(0 = rely on external 'carcs worker' processes)")
    p.add_argument("--rate-limit", type=float, default=None,
                   help="admission control: sustained requests/second per "
                        "client before 429 (default: CARCS_RATE_LIMIT or off)")
    p.add_argument("--rate-burst", type=float, default=None,
                   help="admission control: per-client burst allowance "
                        "(default: CARCS_RATE_BURST or the rate)")
    p.add_argument("--max-inflight", type=int, default=None,
                   help="admission control: concurrent requests before 503 "
                        "(default: CARCS_MAX_INFLIGHT or off)")
    p.set_defaults(fn=cmd_serve, needs_repo=False)

    p = sub.add_parser(
        "synth",
        help="synthesize an N-material blocked database directory "
             "(vectorized, streams straight to the cold tier)",
    )
    p.add_argument("dir")
    p.add_argument("--n", type=int, default=100_000,
                   help="number of synthetic materials (default 100000)")
    p.add_argument("--ontology", default="CS13")
    p.add_argument("--seed", type=int, default=20190520)
    p.add_argument("--collection", default="synthetic")
    p.add_argument("--block-rows", type=int, default=None,
                   help="rows per storage block (default CARCS_BLOCK_ROWS "
                        "or 2048)")
    p.set_defaults(fn=cmd_synth, needs_repo=False)

    p = sub.add_parser(
        "worker",
        help="run a job worker pool against a durable storage directory",
    )
    p.add_argument("dir")
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--drain", action="store_true",
                   help="exit once the queue is empty instead of looping")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="drain deadline in seconds (with --drain)")
    p.set_defaults(fn=cmd_worker, needs_repo=False)

    p = sub.add_parser(
        "jobs",
        help="inspect/drive the durable job queue of a storage directory",
    )
    p.add_argument("dir")
    p.add_argument("--job", type=int, default=None,
                   help="show one job in full")
    p.add_argument("--limit", type=_limit, default=20,
                   help="jobs listed in the overview")
    p.add_argument("--enqueue-classify", action="store_true",
                   help="enqueue a classification sweep of every "
                        "unclassified material")
    p.add_argument("--drain", action="store_true",
                   help="run pending jobs inline before reporting")
    p.set_defaults(fn=cmd_jobs, needs_repo=False)

    p = sub.add_parser(
        "snapshot",
        help="persist the repository into a durable storage directory "
             "(full checkpoint + write-ahead log)",
    )
    p.add_argument("dir")
    p.add_argument("--wal-sync", choices=("always", "batch", "off"),
                   default=None, help="fsync policy for the attached WAL "
                   "(default: CARCS_WAL_SYNC or 'batch')")
    p.set_defaults(fn=cmd_snapshot)

    p = sub.add_parser(
        "recover",
        help="open a durable storage directory, replay the WAL tail "
             "(truncating a torn final record) and print what happened",
    )
    p.add_argument("dir")
    p.set_defaults(fn=cmd_recover, needs_repo=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not getattr(args, "needs_repo", True):
        return args.fn(args)
    fn: Callable[[Repository, argparse.Namespace], int] = args.fn
    repo = _open_repository(args)
    return fn(repo, args)


if __name__ == "__main__":
    sys.exit(main())

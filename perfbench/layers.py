"""Per-layer attribution for the traced run.

The benchmark wraps the program's public functions from here — nothing
under ``src/`` records these spans — and derives each layer's self time
(span duration minus its children) and the counter deltas of the public
``Repository.stats()`` / ``Database.wal_stats()`` /
``Database.storage_stats()`` surfaces.

Unless a definition says otherwise, a ``*.self_us`` metric is that
layer's self time in microseconds per op, averaged over every op of the
run, and ``unattributed_us`` is op wall time left to no layer: the
closed-loop client's own glue between calls.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict

from harness import SpanLog, self_times

#: (module, class or None for a module function, attributes, layer).
#: A context-manager-returning attribute is listed in CONTEXT_ATTRS.
INSTRUMENTS: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.web.api", "CarCsApi", ("__call__",), "web.middleware"),
    ("repro.web.router", "Router", ("dispatch",), "web.router"),
    ("repro.core.search", "SearchEngine",
     ("search", "similar_to", "ensure_fresh", "refresh"), "core.search"),
    ("repro.core.cache", "AnalyticsCache", ("get_or_compute",), "core.cache"),
    ("repro.core.repository", "Repository", (
        "add_material", "get_material", "materials", "material_count",
        "update_material", "delete_material", "classify", "declassify",
        "classification_of", "materials_with", "classification_pairs",
        "classification_keys", "suggest_classification",
        "review_suggestion", "machine_suggest", "suggestions",
        "accept_suggestion", "reject_suggestion", "coverage", "similarity",
        "search", "recommend", "recommender", "stats", "entry_id",
        "ensure_user",
    ), "core.repository"),
    ("repro.core.recommend", "HybridRecommender", ("fit", "recommend"),
     "core.recommend"),
    ("repro.db.engine", "Database",
     ("insert", "update", "delete", "transaction", "checkpoint"),
     "db.engine"),
    ("repro.db.wal", "WalWriter", ("append",), "db.wal"),
    ("repro.db.query", "Query", (
        "all", "first", "count", "exists", "values", "join_via",
        "group_count",
    ), "db.query"),
    ("repro.db.pager", "BlockStore", ("read_block",), "db.pager"),
    ("repro.jobs.queue", "JobQueue",
     ("enqueue", "lease", "complete", "fail", "heartbeat", "get"),
     "jobs.queue"),
    ("repro.jobs.worker", "Worker", ("run_job",), "jobs.queue"),
    ("repro.jobs.classify", "ClassificationService",
     ("model", "suggest_for", "classify_materials"), "jobs.classify"),
    ("repro.jobs.classify", None, ("count_matrix",), "text"),
    ("repro.text.vectorize", "TfidfVectorizer",
     ("fit", "transform", "fit_transform"), "text"),
    ("repro.text.naive_bayes", "NaiveBayesClassifier", ("fit", "suggest"),
     "text"),
    ("repro.text.knn", "KnnClassifier", ("fit", "suggest"), "text"),
)

CONTEXT_ATTRS = {("Database", "transaction")}

#: Layers whose self time is reported as ``<layer>.self_us``.
LAYERS = (
    "web.http", "web.middleware", "web.router", "core.search",
    "core.cache", "core.cache.compute", "core.repository",
    "core.recommend", "db.engine", "db.wal", "db.query", "db.pager",
    "jobs.queue", "jobs.classify", "text",
)

#: Name prefix of the span wrapped around a cache miss's compute.
COMPUTE = "compute:"
MODEL_CACHE_NAME = "jobs.classify_model"


def install(log: SpanLog) -> None:
    """Wrap every listed public function so calls record spans."""
    for module_name, class_name, attrs, layer in INSTRUMENTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for attr in attrs:
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"perfbench: {module_name}.{class_name}.{attr} is "
                      f"gone; layer {layer} loses that span",
                      file=sys.stderr)
                continue
            name = f"{class_name or module_name}.{attr}"
            if (class_name, attr) in CONTEXT_ATTRS:
                wrapped = log.wrap_context(fn, name, layer)
            elif (class_name, attr) == ("AnalyticsCache", "get_or_compute"):
                wrapped = _wrap_get_or_compute(log, fn)
            else:
                wrapped = log.wrap(fn, name, layer)
            setattr(owner, attr, wrapped)


def _wrap_get_or_compute(log: SpanLog, fn):
    """Time the cache lookup, and the compute of a miss as its own span
    (layer ``core.cache.compute``) named after the memoized function."""

    def get_or_compute(cache, name, key, tables, compute, **kwargs):
        def timed_compute():
            with log.span(COMPUTE + name, "core.cache.compute"):
                return compute()

        return fn(cache, name, key, tables, timed_compute, **kwargs)

    return log.wrap(get_or_compute, "AnalyticsCache.get_or_compute",
                    "core.cache")


def program_counters(repo) -> dict[str, float]:
    """The program's own counters, as the public stats surfaces give
    them (missing keys — a database without a WAL or block tier — read
    as 0)."""
    stats = repo.stats()
    keys = {
        "cache_hits": "cache_hits",
        "cache_misses": "cache_misses",
        "cache_invalidations": "cache_invalidations",
        "cache_bypasses": "cache_bypasses",
        "docs_reindexed": "search_docs_reindexed",
        "wal_appends": "wal_appends",
        "wal_fsyncs": "wal_fsyncs",
        "wal_bytes": "wal_bytes_written",
        "checkpoints": "wal_checkpoints",
        "block_hits": "storage_block_cache_hits",
        "block_misses": "storage_block_cache_misses",
        "block_evictions": "storage_block_cache_evictions",
        "block_loaded_bytes": "storage_block_cache_loaded_bytes",
        "block_resident_bytes": "storage_block_cache_resident_bytes",
    }
    return {ours: float(stats.get(theirs, 0)) for ours, theirs in keys.items()}


#: Counters whose end value (not delta) is the metric.
ABSOLUTE = ("block_resident_bytes",)


def counter_deltas(before: dict[str, float],
                   after: dict[str, float]) -> dict[str, float]:
    return {
        key: after[key] if key in ABSOLUTE else after[key] - before[key]
        for key in after
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(log: SpanLog, n_ops: int, counts: dict[str, float],
                  extra: dict[str, float], factor: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Span times are scaled by ``factor``, the run's overall scale to the
    reference core, like the end-to-end times.

    ``counts`` are program counter deltas over the op loop; ``extra``
    carries what only the workload knows: ``writes`` (ops that mutate),
    ``user_bytes`` (request body bytes the client sent),
    ``materials_suggested``, ``jobs`` and ``rows_examined_per_result``.
    """
    # A span left open (none should be) counts as empty; indexes must
    # stay aligned with the parent links.
    spans = [
        (s[0], s[1], s[2] * factor, s[3] * factor, s[4], s[5]) if s
        else ("", "", 0.0, 0.0, None, -1)
        for s in log.spans
    ]
    selfs = self_times(spans)
    by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_layer[span[1]] += own
    op_wall = sum(end - start for name, _, start, end, _, _ in spans
                  if name == "op")

    def total(predicate) -> tuple[float, int]:
        seconds, n = 0.0, 0
        for i, (name, layer, start, end, parent, _) in enumerate(spans):
            if predicate(name, layer, parent):
                seconds += end - start
                n += 1
        return seconds, n

    fit_s, fits = total(lambda n, l, p: n == COMPUTE + MODEL_CACHE_NAME)
    compute_s, _ = total(lambda n, l, p: l == "core.cache.compute")
    checkpoint_s, _ = total(lambda n, l, p: n == "Database.checkpoint")
    suggest_s, _ = total(
        lambda n, l, p: n == "ClassificationService.suggest_for")
    suggest_fit_s, _ = total(lambda n, l, p: (
        n == "ClassificationService.model" and p is not None
        and spans[p][0] == "ClassificationService.suggest_for"))
    suggest_write_s, _ = total(
        lambda n, l, p: n == "Repository.machine_suggest")

    per_op = 1e6 / n_ops
    out = {f"{layer}.self_us": by_layer[layer] * per_op for layer in LAYERS}
    unattributed = by_layer["harness"]
    lookups = (counts["cache_hits"] + counts["cache_misses"]
               + counts["cache_invalidations"])
    block_lookups = counts["block_hits"] + counts["block_misses"]
    out.update({
        "unattributed_us": unattributed * per_op,
        "harness.attributed_share": _ratio(op_wall - unattributed, op_wall),
        "core.search.docs_reindexed": counts["docs_reindexed"],
        "core.search.docs_reindexed_per_write": _ratio(
            counts["docs_reindexed"], extra.get("writes", 0)),
        "core.cache.hits": counts["cache_hits"],
        "core.cache.misses": counts["cache_misses"] + counts[
            "cache_invalidations"],
        "core.cache.lookups": lookups,
        # Computes that skip the cache inside a writer's transaction.
        "core.cache.bypasses": counts["cache_bypasses"],
        "core.cache.hit_ratio": _ratio(counts["cache_hits"], lookups),
        "core.cache.compute_ms": compute_s * 1e3 / n_ops,
        "db.engine.write_us": _ratio(
            (by_layer["db.engine"] + by_layer["db.wal"]) * 1e6,
            extra.get("writes", 0)),
        "db.engine.checkpoints": counts["checkpoints"],
        "db.engine.checkpoint_ms": checkpoint_s * 1e3,
        "db.wal.appends": counts["wal_appends"],
        "db.wal.fsyncs": counts["wal_fsyncs"],
        "db.wal.fsyncs_per_commit": _ratio(
            counts["wal_fsyncs"], counts["wal_appends"]),
        "db.wal.bytes_per_user_byte": _ratio(
            counts["wal_bytes"], extra.get("user_bytes", 0)),
        "db.query.rows_examined_per_result": extra.get(
            "rows_examined_per_result", 0.0),
        "db.pager.hit_ratio": _ratio(counts["block_hits"], block_lookups),
        "db.pager.misses": counts["block_misses"],
        "db.pager.evictions": counts["block_evictions"],
        "db.pager.misses_per_op": counts["block_misses"] / n_ops,
        "db.pager.evictions_per_op": counts["block_evictions"] / n_ops,
        "db.pager.loaded_mib": counts["block_loaded_bytes"] / 2 ** 20,
        "db.pager.resident_mib": counts["block_resident_bytes"] / 2 ** 20,
        "jobs.queue.self_us": _ratio(
            by_layer["jobs.queue"] * 1e6, extra.get("jobs", 0)),
        "jobs.classify.retrains": float(fits),
        "jobs.classify.fit_ms": _ratio(fit_s * 1e3, fits),
        "jobs.classify.suggest_us_per_material": _ratio(
            (suggest_s - suggest_fit_s) * 1e6,
            extra.get("materials_suggested", 0)),
        "core.repository.suggest_write_us": suggest_write_s * per_op,
    })
    return out


def units() -> dict[str, str]:
    """Unit of every per-layer metric :func:`layer_metrics` reports."""
    out = {f"{layer}.self_us": "us" for layer in LAYERS}
    out.update({
        "unattributed_us": "us",
        "harness.attributed_share": "ratio",
        "harness.trace_overhead": "ratio",
        "core.search.docs_reindexed": "count",
        "core.search.docs_reindexed_per_write": "count",
        "core.cache.hits": "count",
        "core.cache.misses": "count",
        "core.cache.lookups": "count",
        "core.cache.bypasses": "count",
        "core.cache.hit_ratio": "ratio",
        "core.cache.compute_ms": "ms",
        "db.engine.write_us": "us",
        "db.engine.checkpoints": "count",
        "db.engine.checkpoint_ms": "ms",
        "db.wal.appends": "count",
        "db.wal.fsyncs": "count",
        "db.wal.fsyncs_per_commit": "ratio",
        "db.wal.bytes_per_user_byte": "ratio",
        "db.query.rows_examined_per_result": "ratio",
        "db.pager.hit_ratio": "ratio",
        "db.pager.misses": "count",
        "db.pager.evictions": "count",
        "db.pager.misses_per_op": "count",
        "db.pager.evictions_per_op": "count",
        "db.pager.loaded_mib": "MiB",
        "db.pager.resident_mib": "MiB",
        "jobs.queue.self_us": "us",
        "jobs.classify.retrains": "count",
        "jobs.classify.fit_ms": "ms",
        "jobs.classify.suggest_us_per_material": "us",
        "core.repository.suggest_write_us": "us",
    })
    return out

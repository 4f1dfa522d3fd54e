"""The ``/api/v2`` surface: resources, cursors, and async jobs.

These are the API's only resource handlers; the ``/api/v1`` shim
reuses them (see ``V1_ROUTES`` in :mod:`repro.web.api`).

v1 grew handler-by-handler around the paper's Heroku prototype and
shows it: materials live under ``/assignments``, classification edits
are verbs on that path, recommendation is ``POST /recommend``, and
every list paginates by raw ``offset`` arithmetic.  v2 is the
resource-oriented redesign:

* **Nouns, uniformly.**  ``/materials`` (not ``/assignments``),
  ``/materials/<id>/classifications`` as a proper sub-resource,
  ``POST /recommendations``.
* **Opaque cursors.**  Every list answers the envelope
  ``{"items", "total", "limit", "next_cursor"}``; clients hand
  ``next_cursor`` back as ``?cursor=`` instead of computing offsets.
  ``next_cursor`` is ``null`` on the last page.
* **Async work as a resource.**  ``POST /jobs/classify`` answers
  ``202 Accepted`` with a ``Location`` to poll and a ``Retry-After``
  hint; the durable queue behind it survives crashes via the WAL.
  Machine classifications land as *pending suggestions* reviewed
  through ``/suggestions/<id>/accept`` — never directly into the
  classification tables.
* **Creation answers ``Location``.**  ``POST /materials`` (201) points
  at the new resource, as does the 202 above.
* **One validation.**  Malformed body fields and negative sizes
  answer 400 here, so both surfaces share the same checks.

v1 keeps serving its old shapes as a compatibility shim carrying an
RFC 8594 ``Sunset`` header; see ``docs/api.md`` for the migration
table.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.core.classification import ClassificationSet
from repro.core.material import CourseLevel, Material, MaterialKind
from repro.core.ontology import BloomLevel
from repro.core.repository import Repository
from repro.db.errors import RowNotFound
from repro.jobs import QueueFull, unclassified_material_ids
from repro.obs import trace as _trace

from .http import (
    HttpError,
    Request,
    Response,
    cursor_page,
    json_response,
    non_negative,
)
from .middleware import backpressure_response

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.core.search import SearchHit

    from .api import CarCsApi

#: Advisory poll interval (seconds) stamped on 202s and unfinished jobs.
JOB_RETRY_AFTER = 1

#: Job fields exposed over the API (lease bookkeeping stays internal).
_JOB_FIELDS = (
    "id", "kind", "status", "attempts", "max_attempts",
    "payload", "result", "error", "enqueued_at", "updated_at",
)


def _job_payload(job: dict[str, Any], prefix: str) -> dict[str, Any]:
    out = {field: job.get(field) for field in _JOB_FIELDS}
    out["url"] = f"{prefix}/jobs/{job['id']}"
    # The enqueuing request's trace id (from the persisted traceparent),
    # so a job links straight to its fleet trace view.
    context = _trace.parse_traceparent(job.get("trace_context"))
    out["trace_id"] = context[0] if context is not None else None
    return out


def _material_payload(repo: Repository, material: Material) -> dict[str, Any]:
    assert material.id is not None
    cs = repo.classification_of(material.id)
    return {
        "id": material.id,
        "title": material.title,
        "description": material.description,
        "kind": material.kind.value,
        "authors": list(material.authors),
        "url": material.url,
        "course_level": material.course_level.value if material.course_level else None,
        "languages": list(material.languages),
        "datasets": list(material.datasets),
        "tags": list(material.tags),
        "collection": material.collection,
        "year": material.year,
        "classifications": [
            {"ontology": item.ontology, "key": item.key,
             "bloom": item.bloom.value if item.bloom else None}
            for item in cs.items()
        ],
    }


def _hit_item(hit: SearchHit) -> dict[str, Any]:
    """One ``/search`` or ``/materials`` list item."""
    material = hit.material
    return {"id": material.id, "title": material.title,
            "kind": material.kind.value,
            "collection": material.collection, "score": hit.score}


def _material_or_404(repo: Repository, request: Request) -> Material:
    mid = request.params["id"]
    try:
        return repo.get_material(mid)
    except Exception:
        raise HttpError(404, f"no material with id {mid}")


def _parse_classification(raw: list[dict]) -> ClassificationSet:
    cs = ClassificationSet()
    for entry in raw:
        try:
            ontology = entry["ontology"]
            key = entry["key"]
        except (TypeError, KeyError):
            raise HttpError(400, "classification entries need 'ontology' and 'key'")
        bloom = None
        if entry.get("bloom"):
            try:
                bloom = BloomLevel(entry["bloom"])
            except ValueError:
                raise HttpError(400, f"unknown bloom level {entry['bloom']!r}")
        cs.add(ontology, key, bloom)
    return cs


def _collection_ids(repo: Repository, collection: str) -> list[int]:
    ids = repo.material_ids(collection)
    if not ids:
        raise HttpError(404, f"no materials in collection {collection!r}")
    return ids


def _parse_search_request(request: Request):
    """Shared by ``/search`` and ``/materials``: the ``q`` facet
    query language plus the ``collection``/``under`` shorthand
    parameters, folded into one (text, filters) pair."""
    from dataclasses import replace

    from ..core.query_language import QuerySyntaxError, parse_query

    try:
        parsed = parse_query(request.query_one("q", "") or "")
    except QuerySyntaxError as exc:
        raise HttpError(400, str(exc))
    filters = parsed.filters
    collection = request.query_one("collection")
    if collection:
        filters = replace(
            filters, collections=filters.collections + (collection,)
        )
    under = request.query_one("under")
    if under:
        filters = replace(filters, under=filters.under + (under,))
    return parsed.text, filters


#: What each declared body field type accepts, and how a 400 names it.
_FIELD_TYPES = {
    "string": (lambda v: isinstance(v, str), "a string"),
    "integer": (
        lambda v: isinstance(v, int) and not isinstance(v, bool),
        "an integer",
    ),
    "strings": (
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a list of strings",
    ),
    "list": (lambda v: isinstance(v, list), "a list"),
}

#: Body fields the material handlers read, by declared type.
_MATERIAL_FIELDS = {
    "title": "string", "description": "string", "url": "string",
    "collection": "string", "year": "integer?", "authors": "strings",
    "languages": "strings", "datasets": "strings", "tags": "strings",
    "classifications": "list",
}


def _check_fields(body: dict[str, Any], fields: dict[str, str]) -> None:
    """400 unless each field present in ``body`` has its declared type
    (a key of ``_FIELD_TYPES``; a trailing ``?`` also admits null)."""
    for name, declared in fields.items():
        if name not in body:
            continue
        nullable = declared.endswith("?")
        accepts, described = _FIELD_TYPES[declared.rstrip("?")]
        value = body[name]
        if not (accepts(value) or nullable and value is None):
            raise HttpError(400, f"'{name}' must be {described}"
                                 + (" or null" if nullable else ""))


def _suggestion_payload(row: dict[str, Any]) -> dict[str, Any]:
    return {
        "id": row["id"],
        "material_id": row["material_id"],
        "key": row["ontology_key"],
        "ontology": row.get("ontology"),
        "action": row["action"],
        "status": row["status"],
        "confidence": row.get("confidence"),
        "origin": row.get("origin", "human"),
    }


def register_v2(api: "CarCsApi") -> None:
    """Mount the v2 resource routes on ``api.router``.

    These are the only resource handlers: ``CarCsApi._register`` binds
    the v1 paths to them too.  The list handlers take their envelope as
    ``page`` (:func:`~repro.web.http.cursor_page` here), which is how
    v1 swaps in offset pages without a second handler.  The ops
    endpoints (healthz/metrics/traces/replication/slo) are mounted by
    ``CarCsApi._register`` since their closures live there.
    """
    from .api import API_V2_PREFIX

    router = api.router
    repo = api.repo
    prefix = API_V2_PREFIX

    def route(method: str, path: str):
        return router.route(method, prefix + path)

    # ------------------------------------------------------------ index

    @route("GET", "")
    def v2_index(request: Request) -> Response:
        return json_response({
            "service": "carcs",
            "api_version": "v2",
            "routes": [
                {"method": r.method, "path": r.pattern}
                for r in router.routes()
                if r.pattern.startswith(prefix)
            ],
        })

    # -------------------------------------------------------- materials

    @route("GET", "/materials")
    def list_materials(request: Request, page=cursor_page) -> Response:
        text, filters = _parse_search_request(request)
        # The page ranks and builds only its own window of hits.
        hits = partial(api._search.search, text, filters)
        return json_response(
            page(hits, request, default_limit=100, item=_hit_item)
        )

    @route("POST", "/materials")
    def create_material(request: Request) -> Response:
        body = request.json()
        if "title" not in body:
            raise HttpError(400, "'title' is required")
        _check_fields(body, _MATERIAL_FIELDS)
        try:
            material = Material(
                title=body["title"],
                description=body.get("description", ""),
                kind=MaterialKind(body.get("kind", "assignment")),
                authors=tuple(body.get("authors", ())),
                url=body.get("url", ""),
                course_level=(
                    CourseLevel(body["course_level"])
                    if body.get("course_level") else None
                ),
                languages=tuple(body.get("languages", ())),
                datasets=tuple(body.get("datasets", ())),
                tags=tuple(body.get("tags", ())),
                collection=body.get("collection", ""),
                year=body.get("year"),
            )
        except ValueError as exc:
            raise HttpError(400, str(exc))
        cs = _parse_classification(body.get("classifications", []))
        try:
            stored = repo.add_material(material, cs)
        except (ValueError, KeyError) as exc:
            raise HttpError(400, str(exc))
        response = json_response(
            _material_payload(repo, stored), status=201,
        )
        response.headers["location"] = f"{prefix}/materials/{stored.id}"
        return response

    @route("GET", "/materials/<int:id>")
    def get_material(request: Request) -> Response:
        material = _material_or_404(repo, request)
        return json_response(_material_payload(repo, material))

    @route("PATCH", "/materials/<int:id>")
    def update_material(request: Request) -> Response:
        material = _material_or_404(repo, request)
        body = request.json()
        allowed = {"title", "description", "url", "collection", "year"}
        changes = {k: v for k, v in body.items() if k in allowed}
        if not changes:
            raise HttpError(
                400, f"nothing to update; allowed: {sorted(allowed)}"
            )
        _check_fields(changes, _MATERIAL_FIELDS)
        assert material.id is not None
        updated = repo.update_material(material.id, **changes)
        return json_response(_material_payload(repo, updated))

    @route("DELETE", "/materials/<int:id>")
    def delete_material(request: Request) -> Response:
        material = _material_or_404(repo, request)
        assert material.id is not None
        repo.delete_material(material.id)
        return json_response({"deleted": material.id})

    # --------------------------------- classifications as a sub-resource

    @route("GET", "/materials/<int:id>/classifications")
    def list_classifications(request: Request) -> Response:
        material = _material_or_404(repo, request)
        assert material.id is not None
        cs = repo.classification_of(material.id)
        return json_response(cursor_page([
            {"ontology": item.ontology, "key": item.key,
             "bloom": item.bloom.value if item.bloom else None}
            for item in cs.items()
        ], request, default_limit=100))

    @route("POST", "/materials/<int:id>/classifications")
    def add_classification(request: Request) -> Response:
        material = _material_or_404(repo, request)
        body = request.json()
        cs = _parse_classification([body])
        assert material.id is not None
        for item in cs.items():
            try:
                repo.classify(
                    material.id, item.ontology, item.key, bloom=item.bloom
                )
            except KeyError as exc:
                raise HttpError(400, str(exc))
        return json_response(
            _material_payload(repo, repo.get_material(material.id)),
            status=201,
        )

    @route("DELETE", "/materials/<int:id>/classifications")
    def remove_classification(request: Request) -> Response:
        material = _material_or_404(repo, request)
        key = request.query_one("key")
        if not key:
            raise HttpError(400, "query parameter 'key' is required")
        assert material.id is not None
        removed = repo.declassify(material.id, key)
        if not removed:
            raise HttpError(404, f"material not classified under {key!r}")
        return json_response({"removed": key})

    # ------------------------------------------- derived material views

    @route("GET", "/materials/<int:id>/similar")
    def similar_materials(request: Request) -> Response:
        material = _material_or_404(repo, request)
        assert material.id is not None
        try:
            hits = api._search.similar_to(
                material.id, limit=request.query_size("limit", 10) or 10,
            )
        except KeyError as exc:
            raise HttpError(404, str(exc))
        return json_response({
            "material": material.title,
            "similar": [
                {"id": h.material.id, "title": h.material.title,
                 "collection": h.material.collection, "score": h.score}
                for h in hits
            ],
        })

    @route("GET", "/materials/<int:id>/variants")
    def material_variants(request: Request) -> Response:
        from repro.analysis.variants import find_variants

        material = _material_or_404(repo, request)
        assert material.id is not None
        hits = find_variants(
            repo, material.id,
            min_overlap=request.query_size("min_overlap", 2) or 2,
            limit=request.query_size("limit", 10) or 10,
        )
        return json_response({
            "material": material.title,
            "variants": [
                {
                    "id": h.material.id,
                    "title": h.material.title,
                    "overlap": h.overlap,
                    "jaccard": h.jaccard,
                    "differing_facets": list(h.differing_facets),
                }
                for h in hits
            ],
        })

    @route("GET", "/materials/<int:id>/lint")
    def material_lint(request: Request) -> Response:
        from repro.analysis.consistency import lint_material

        material = _material_or_404(repo, request)
        assert material.id is not None
        findings = lint_material(repo, material.id)
        return json_response({
            "material": material.title,
            "findings": [
                {"rule": f.rule, "detail": f.detail} for f in findings
            ],
        })

    # -------------------------------------------------------- ontologies

    @route("GET", "/ontologies")
    def list_ontologies(request: Request, page=cursor_page) -> Response:
        return json_response(page([
            {"name": name, "entries": len(onto),
             "areas": [a.label for a in onto.areas()]}
            for name, onto in sorted(repo.ontologies.items())
        ], request, default_limit=50))

    @route("GET", "/ontologies/<name>/entries")
    def ontology_entries(request: Request, page=cursor_page) -> Response:
        name = request.params["name"]
        try:
            onto = repo.ontology(name)
        except KeyError as exc:
            raise HttpError(404, str(exc))
        phrase = request.query_one("search", "") or ""
        if phrase:
            nodes = onto.search(phrase, limit=len(onto))
        else:
            nodes = onto.nodes()
        return json_response(page([
            {"key": n.key, "label": n.label, "kind": n.kind.value,
             "path": onto.path_string(n.key)}
            for n in nodes
        ], request, default_limit=50))

    # --------------------------------------------------------- analytics

    @route("GET", "/search")
    def search(request: Request, page=cursor_page) -> Response:
        text, filters = _parse_search_request(request)
        hits = partial(api._search.search, text, filters)
        payload = page(hits, request, default_limit=20, item=_hit_item)
        payload["mode"] = api._search.mode
        return json_response(payload)

    @route("GET", "/coverage")
    def coverage(request: Request) -> Response:
        collection = request.query_one("collection")
        ontology = request.query_one("ontology")
        if not collection or not ontology:
            raise HttpError(400, "'collection' and 'ontology' are required")
        try:
            onto = repo.ontology(ontology)
        except KeyError as exc:
            raise HttpError(404, str(exc))
        _collection_ids(repo, collection)  # 404 on unknown collection
        report = repo.coverage(ontology, collection=collection)
        return json_response({
            "collection": collection,
            "ontology": ontology,
            "n_materials": report.n_materials,
            "areas": [
                {"code": area.code, "label": area.label, "count": count}
                for area, count in report.area_ranking(onto)
            ],
            "entries_touched": len(report.rollup_counts),
        })

    @route("GET", "/similarity")
    def similarity(request: Request) -> Response:
        left = request.query_one("left")
        right = request.query_one("right")
        if not left or not right:
            raise HttpError(
                400, "'left' and 'right' collections are required"
            )
        threshold = request.query_size("threshold", 2) or 2
        graph = repo.similarity(
            _collection_ids(repo, left),
            _collection_ids(repo, right),
            threshold=threshold,
            left_group=left,
            right_group=right,
        )
        return json_response({
            "threshold": threshold,
            "nodes": [
                {"id": n, "group": d["group"], "title": d["title"],
                 "degree": graph.degree(n)}
                for n, d in graph.nodes(data=True)
            ],
            "edges": [
                {"left": u, "right": v, "shared": d["shared"],
                 "shared_keys": list(d["shared_keys"])}
                for u, v, d in graph.edges(data=True)
            ],
        })

    @route("GET", "/gaps")
    def gaps(request: Request) -> Response:
        from repro.core.gaps import find_gaps

        reference = request.query_one("reference")
        candidate = request.query_one("candidate")
        ontology = request.query_one("ontology", "CS13") or "CS13"
        if not reference or not candidate:
            raise HttpError(400, "'reference' and 'candidate' are required")
        try:
            onto = repo.ontology(ontology)
        except KeyError as exc:
            raise HttpError(404, str(exc))
        _collection_ids(repo, reference)
        _collection_ids(repo, candidate)
        ref = repo.coverage(ontology, collection=reference)
        cand = repo.coverage(ontology, collection=candidate)
        report = find_gaps(
            onto, ref, cand,
            reference_name=reference, candidate_name=candidate,
        )
        return json_response({
            "ontology": ontology,
            "alignment": report.alignment,
            "missing_in_candidate": [
                {"key": e.key, "path": e.path,
                 "reference_count": e.reference_count}
                for e in report.top_development_targets(20)
            ],
            "unique_to_candidate": [
                {"key": e.key, "path": e.path,
                 "candidate_count": e.candidate_count}
                for e in report.unique_to_candidate[:20]
            ],
        })

    @route("GET", "/plan")
    def plan(request: Request) -> Response:
        from repro.analysis.planner import core_targets, plan_course
        from repro.core.ontology import Tier

        ontology = request.query_one("ontology", "PDC12") or "PDC12"
        try:
            onto = repo.ontology(ontology)
        except KeyError as exc:
            raise HttpError(404, str(exc))
        tiers = (Tier.CORE, Tier.CORE1)
        max_materials = request.query_size("max_materials")
        course = plan_course(
            repo, ontology, core_targets(onto, tiers),
            max_materials=max_materials,
        )
        return json_response({
            "ontology": ontology,
            "coverage_ratio": course.coverage_ratio,
            "picks": [
                {"id": p.material_id, "title": p.title,
                 "newly_covered": list(p.newly_covered)}
                for p in course.picks
            ],
            "uncovered": sorted(course.uncovered),
        })

    @route("GET", "/stats")
    def stats(request: Request) -> Response:
        return json_response(repo.stats())

    @route("POST", "/recommendations")
    def recommendations(request: Request) -> Response:
        body = request.json()
        _check_fields(body, {
            "text": "string", "selected": "strings", "top": "integer",
        })
        text = body.get("text", "")
        selected = body.get("selected", [])
        if not text and not selected:
            raise HttpError(400, "'text' or 'selected' is required")
        top = non_negative(body.get("top", 10), "'top'")
        recs = repo.recommend(text, selected, top=top)
        return json_response({
            "suggestions": [
                {"key": r.key, "score": r.score, "source": r.source}
                for r in recs
            ]
        })

    # --------------------------------------------------- jobs (async work)

    @route("POST", "/jobs/classify")
    def enqueue_classify(request: Request) -> Response:
        body = request.json() if request.body is not None else {}
        _check_fields(body, {"ontologies": "list?", "top": "integer?"})
        payload: dict[str, Any] = {}
        if body.get("material_ids") is not None:
            ids = body["material_ids"]
            if (not isinstance(ids, list)
                    or not all(isinstance(i, int) for i in ids)):
                raise HttpError(400, "'material_ids' must be a list of ints")
            payload["material_ids"] = ids
        if body.get("collection") is not None:
            payload["collection"] = str(body["collection"])
        if body.get("ontologies") is not None:
            payload["ontologies"] = [str(o) for o in body["ontologies"]]
        if body.get("top") is not None:
            payload["top"] = non_negative(body["top"], "'top'")
        try:
            job = api.queue.enqueue(
                "classify", payload,
                idempotency_key=body.get("idempotency_key"),
            )
        except QueueFull as exc:
            return backpressure_response(
                429, str(exc), request.request_id,
                retry_after=JOB_RETRY_AFTER, metrics=api.metrics,
                reason="queue-full",
            )
        pending = unclassified_material_ids(
            repo, collection=payload.get("collection"),
        )
        targets = payload.get("material_ids", pending)
        response = json_response({
            "job": _job_payload(job, prefix),
            "targets": len(targets),
        }, status=202)
        response.headers["location"] = f"{prefix}/jobs/{job['id']}"
        response.headers["retry-after"] = str(JOB_RETRY_AFTER)
        return response

    @route("GET", "/jobs")
    def list_jobs(request: Request) -> Response:
        status = request.query_one("status")
        jobs = api.queue.jobs(status)
        return json_response(cursor_page(
            [_job_payload(j, prefix) for j in jobs],
            request, default_limit=50,
        ))

    @route("GET", "/jobs/<int:id>")
    def get_job(request: Request) -> Response:
        job = api.queue.get(request.params["id"])
        if job is None:
            raise HttpError(404, f"no job with id {request.params['id']}")
        response = json_response(_job_payload(job, prefix))
        if job["status"] in ("queued", "leased"):
            # Still running: tell pollers when to come back.
            response.headers["retry-after"] = str(JOB_RETRY_AFTER)
        return response

    # ------------------------------------------- suggestions (review queue)

    @route("GET", "/suggestions")
    def list_suggestions(request: Request) -> Response:
        rows = repo.suggestions(
            status=request.query_one("status"),
            material_id=request.query_int("material_id"),
            origin=request.query_one("origin"),
        )
        return json_response(cursor_page(
            [_suggestion_payload(r) for r in rows],
            request, default_limit=50,
        ))

    @route("GET", "/suggestions/<int:id>")
    def get_suggestion(request: Request) -> Response:
        sid = request.params["id"]
        rows = [r for r in repo.suggestions() if r["id"] == sid]
        if not rows:
            raise HttpError(404, f"no suggestion with id {sid}")
        return json_response(_suggestion_payload(rows[0]))

    def _review_one(sid: int, approve: bool) -> str:
        """Apply one review; raises HttpError with the right status."""
        try:
            if approve:
                status = repo.accept_suggestion(sid)
            else:
                status = repo.reject_suggestion(sid)
        except RowNotFound:
            raise HttpError(404, f"no suggestion with id {sid}")
        except ValueError as exc:
            # "suggestion already reviewed" — the review is not
            # repeatable, so a replayed accept is a conflict, not a 400.
            raise HttpError(409, str(exc))
        return status.value

    @route("POST", "/suggestions/<int:id>/accept")
    def accept_suggestion(request: Request) -> Response:
        sid = request.params["id"]
        return json_response({"id": sid, "status": _review_one(sid, True)})

    @route("POST", "/suggestions/<int:id>/reject")
    def reject_suggestion(request: Request) -> Response:
        sid = request.params["id"]
        return json_response({"id": sid, "status": _review_one(sid, False)})

    def _review_batch(request: Request, approve: bool) -> Response:
        body = request.json()
        ids = body.get("ids")
        if (not isinstance(ids, list)
                or not all(isinstance(i, int) for i in ids)):
            raise HttpError(400, "'ids' must be a list of ints")
        done: list[int] = []
        failed: list[dict[str, Any]] = []
        for sid in ids:
            try:
                _review_one(sid, approve)
            except HttpError as exc:
                failed.append({"id": sid, "error": exc.message})
            else:
                done.append(sid)
        key = "accepted" if approve else "rejected"
        return json_response({key: done, "failed": failed})

    @route("POST", "/suggestions/accept")
    def accept_suggestions(request: Request) -> Response:
        return _review_batch(request, True)

    @route("POST", "/suggestions/reject")
    def reject_suggestions(request: Request) -> Response:
        return _review_batch(request, False)

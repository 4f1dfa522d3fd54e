"""Golden transcript of the whole HTTP surface.

Drives every route on both surfaces — ``/api/v2`` and the ``/api/v1``
shim — against a fresh ``seed_all()`` repository, in a fixed order with the mutations last.
Each exchange records the status, every response header (in order) and
the body exactly as :mod:`repro.web.server` would encode it, and the
whole sequence must equal ``tests/web/golden/api_transcript.json``.

Regenerate the golden file after a deliberate surface change with::

    PYTHONPATH=src python -m pytest tests/web/test_api_transcript.py --record

Every request carries the fixed ``x-request-id`` ``transcript``.  Only
values that change from run to run are normalised to ``"<volatile>"``:

* ``uptime_seconds`` anywhere, and the job timestamps ``enqueued_at``
  and ``updated_at``;
* metric values: ``/metrics`` keeps every metric key (labels included,
  except the interpreter version in ``carcs_build_info``) but not the
  values, the Prometheus text keeps each sample's name and labels, and
  ``/slo`` drops its ``windows`` and ``totals``;
* trace listings: the ``items``, ``total`` and ``tracer`` of
  ``/traces``.
"""

from __future__ import annotations

import difflib
import json
import re
from pathlib import Path
from typing import Any

import pytest

from repro.corpus.seed import seed_all
from repro.jobs import run_pending
from repro.obs import Tracer
from repro.web import CarCsApi, Request, Response

GOLDEN = Path(__file__).parent / "golden" / "api_transcript.json"

REQUEST_ID = "transcript"
VOLATILE = "<volatile>"

#: Surface name -> (path root, materials collection, recommendation path).
SURFACES = {
    "v2": ("/api/v2", "/materials", "/recommendations"),
    "v1": ("/api/v1", "/assignments", "/recommend"),
}

KEY = "PDC12/ALGO/algorithmic-paradigms/prefix-sums-and-scan"
OTHER_KEY = "PDC12/ARCH/classes-of-architecture/taxonomy-flynn-s-taxonomy-sisd-simd-mimd"

#: The index and the operational endpoints, identical on both surfaces.
OPS_READS = [
    ("GET", ""),
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("GET", "/replication"),
    ("GET", "/slo"),
    ("GET", "/traces?limit=2"),
    ("GET", "/traces?offset=-1"),
    ("GET", "/traces/0123456789abcdef0123456789abcdef"),
    ("GET", "/healthz", None, {"If-None-Match": "*"}),
]

#: ``{m}`` is the materials collection, ``{rec}`` the recommendation
#: resource; both differ between v2 and v1.
READS = [
    ("GET", "{m}?limit=3"),
    ("GET", "{m}?q=language:python&limit=2"),
    ("GET", "{m}?collection=peachy&limit=2"),
    ("GET", "{m}?q=under:"),
    ("GET", "{m}?limit=abc"),
    ("GET", "{m}?limit=-1"),
    ("GET", "{m}?offset=-1"),
    ("GET", "{m}?offset=abc&limit=-1"),
    ("GET", "{m}?cursor=@@"),
    ("GET", "{m}?limit=2&offset=3"),
    ("GET", "{m}?limit=2&cursor=eyJvIjogM30"),
    ("GET", "{m}/1"),
    ("GET", "{m}/99999"),
    ("GET", "{m}/abc"),
    ("GET", "{m}/1/similar?limit=3"),
    ("GET", "{m}/1/similar?limit=0"),
    ("GET", "{m}/99999/similar"),
    ("GET", "{m}/1/variants?limit=3"),
    ("GET", "{m}/1/variants?min_overlap=x"),
    ("GET", "{m}/1/lint"),
    ("GET", "/ontologies"),
    ("GET", "/ontologies?limit=1"),
    ("GET", "/ontologies?limit=-1"),
    ("GET", "/ontologies/PDC12/entries?search=prefix&limit=3"),
    ("GET", "/ontologies/PDC12/entries?limit=2&offset=1"),
    ("GET", "/ontologies/PDC12/entries?limit=2&cursor=eyJvIjogM30"),
    ("GET", "/ontologies/NOPE/entries"),
    ("GET", "/ontologies/NOPE/entries?offset=-1"),
    ("GET", "/search?q=monte%20carlo&limit=3"),
    ("GET", "/search?q=monte%20carlo&limit=2&offset=1"),
    ("GET", "/search?limit=-1"),
    ("GET", "/search?offset=-1"),
    ("GET", "/search?cursor=@@"),
    ("GET", "/search?q=under:&offset=-1"),
    ("GET", "/coverage?collection=itcs3145&ontology=PDC12"),
    ("GET", "/coverage"),
    ("GET", "/coverage?collection=nope&ontology=PDC12"),
    ("GET", "/coverage?collection=itcs3145&ontology=NOPE"),
    ("GET", "/similarity?left=itcs3145&right=peachy"),
    ("GET", "/similarity?left=itcs3145"),
    ("GET", "/similarity?left=itcs3145&right=nope"),
    ("GET", "/gaps?reference=nifty&candidate=itcs3145"),
    ("GET", "/gaps?reference=nifty"),
    ("GET", "/plan?ontology=PDC12&max_materials=3"),
    ("GET", "/plan?ontology=NOPE"),
    ("GET", "/stats"),
    ("GET", "/stats", None, {"If-None-Match": "{etag}"}),
    ("GET", "/stats", None, {"If-None-Match": '"carcs-v0"'}),
    ("POST", "{rec}", {"text": "parallel prefix sum", "top": 3}),
    ("POST", "{rec}", {"selected": [KEY], "top": 2}),
    ("POST", "{rec}", {}),
    ("POST", "{rec}", "not json"),
    ("DELETE", "/search"),
    ("PUT", "{m}/1"),
    ("GET", "/no-such-resource"),
]

V2_READS = [
    ("GET", "/metrics?format=prometheus"),
    ("GET", "/materials/1/classifications?limit=2"),
    ("GET", "/materials/99999/classifications"),
    ("GET", "/jobs"),
    ("GET", "/jobs/999"),
    ("GET", "/suggestions"),
    ("GET", "/suggestions/999"),
]

#: ``{id}`` is the material the first POST creates.
MUTATIONS = [
    ("POST", "{m}", {}),
    ("POST", "{m}", {"title": "x", "kind": "sonnet"}),
    ("POST", "{m}", {"title": "x", "classifications": [{"ontology": "PDC12"}]}),
    ("POST", "{m}", {"title": "x", "classifications": [
        {"ontology": "PDC12", "key": "PDC12/NOPE"}]}),
    ("POST", "{m}", {
        "title": "Parallel Prefix Sums",
        "description": "Scan with threads on a shared array.",
        "authors": ["Ann Author"],
        "course_level": "CS2",
        "languages": ["C"],
        "collection": "transcript",
        "year": 2019,
        "classifications": [{"ontology": "PDC12", "key": KEY,
                             "bloom": "apply"}],
    }),
    ("GET", "{m}/{id}"),
    ("GET", "/search?q=prefix%20sums&limit=2"),
    ("PATCH", "{m}/{id}", {"title": "Parallel Scan"}),
    ("PATCH", "{m}/{id}", {"kind": "lecture"}),
    ("PATCH", "{m}/99999", {"title": "x"}),
    ("POST", "{m}/{id}/classifications", {"ontology": "PDC12", "key": OTHER_KEY}),
    ("POST", "{m}/{id}/classifications", {"ontology": "PDC12"}),
    ("POST", "{m}/{id}/classifications", {"ontology": "PDC12", "key": KEY,
                                          "bloom": "grok"}),
    ("DELETE", "{m}/{id}/classifications?key=" + OTHER_KEY),
    ("DELETE", "{m}/{id}/classifications?key=" + OTHER_KEY),
    ("DELETE", "{m}/{id}/classifications"),
    ("GET", "/stats", None, {"If-None-Match": "{etag}"}),
    ("DELETE", "{m}/{id}"),
    ("GET", "{m}/{id}"),
    ("DELETE", "{m}/{id}"),
]

V2_MUTATIONS = [
    ("POST", "/jobs/classify", {"material_ids": "x"}),
    ("POST", "/materials", {
        "title": "Monte Carlo Pi",
        "description": "Estimate pi by parallel random sampling with "
                       "threads, then reduce the partial counts.",
        "collection": "inbox",
    }),
    ("POST", "/jobs/classify", {"collection": "inbox", "top": 2}),
    ("GET", "/jobs/{job}"),
    ("GET", "/jobs?status=queued"),
    ("RUN", "jobs"),
    ("GET", "/jobs/{job}"),
    ("GET", "/suggestions?limit=2"),
    ("GET", "/suggestions/{suggestion}"),
    ("POST", "/suggestions/{suggestion}/accept"),
    ("POST", "/suggestions/{suggestion}/accept"),
    ("POST", "/suggestions/999/reject"),
    ("POST", "/suggestions/reject", {"ids": [999]}),
    ("POST", "/suggestions/accept", {"ids": "x"}),
    ("GET", "/materials/{id}/classifications"),
]


def _plan() -> list[tuple[str, tuple]]:
    """The fixed request order: (surface, step) pairs."""
    plan: list[tuple[str, tuple]] = []
    for surface in SURFACES:
        steps = OPS_READS + READS + (V2_READS if surface == "v2" else [])
        plan += [(surface, step) for step in steps]
    for surface in SURFACES:
        steps = MUTATIONS + (V2_MUTATIONS if surface == "v2" else [])
        plan += [(surface, step) for step in steps]
    return plan


# ------------------------------------------------------------ normalising


def _scrub_keys(value: Any, keys: set[str]) -> Any:
    if isinstance(value, dict):
        return {
            k: VOLATILE if k in keys else _scrub_keys(v, keys)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [_scrub_keys(v, keys) for v in value]
    return value


_PYTHON_LABEL = re.compile(r'python="[^"]*"')


def _normalise(path: str, payload: Any) -> Any:
    """Replace the volatile values listed in the module docstring."""
    if isinstance(payload, str):  # Prometheus exposition text
        lines = []
        for line in payload.splitlines():
            if line and not line.startswith("#"):
                line = line.rsplit(" ", 1)[0] + " " + VOLATILE
            lines.append(_PYTHON_LABEL.sub('python="*"', line))
        return "\n".join(lines) + "\n"
    if not isinstance(payload, dict):
        return payload
    payload = _scrub_keys(payload, {
        "uptime_seconds", "enqueued_at", "updated_at",
    })
    if path.endswith("/metrics") and "metrics" in payload:
        payload["metrics"] = {
            section: {_PYTHON_LABEL.sub('python="*"', key): VOLATILE
                      for key in series}
            for section, series in payload["metrics"].items()
        }
        payload["exemplars"] = {k: VOLATILE for k in payload["exemplars"]}
    elif path.endswith("/slo"):
        payload.update(windows=VOLATILE, totals=VOLATILE)
    elif path.endswith("/traces") and "items" in payload:
        payload.update(items=VOLATILE, total=VOLATILE, tracer=VOLATILE)
    return payload


def _encode(request: Request, response: Response) -> dict[str, Any]:
    """One exchange as the socket server would put it on the wire."""
    payload = _normalise(request.path, response.payload)
    content_type = response.headers.get("content-type", "")
    if response.status == 304:
        body = ""
    elif (isinstance(payload, str) and content_type
          and "application/json" not in content_type):
        body = payload
    else:
        body = json.dumps(payload, default=str)
    query = "&".join(
        f"{k}={v}" for k, values in request.query.items() for v in values
    )
    return {
        "request": f"{request.method} {request.path}"
                   + (f"?{query}" if query else ""),
        "status": response.status,
        "headers": [list(item) for item in response.headers.items()],
        "body": body,
    }


# --------------------------------------------------------------- driving


def record() -> dict[str, list[dict[str, Any]]]:
    """Run the fixed plan against a fresh seeded api; exchanges by surface."""
    api = CarCsApi(seed_all(), tracer=Tracer())
    transcripts: dict[str, list[dict[str, Any]]] = {s: [] for s in SURFACES}
    ids = {"id": 0, "job": 0, "suggestion": 0}
    etag = '"carcs-v0"'
    try:
        for surface, step in _plan():
            method, path, body, headers = (step + (None, None))[:4]
            if method == "RUN":
                run_pending(api.queue, api.job_handlers)
                ids["suggestion"] = api.repo.suggestions()[0]["id"]
                continue
            root, materials, recommend = SURFACES[surface]
            url = root + path.format(m=materials, rec=recommend, **ids)
            sent = {"x-request-id": REQUEST_ID}
            for name, value in (headers or {}).items():
                sent[name] = value.replace("{etag}", etag)
            request = Request.build(method, url, body=body, headers=sent)
            response = api(request)
            transcripts[surface].append(_encode(request, response))
            if "etag" in response.headers:
                etag = response.headers["etag"]
            payload = response.payload
            if response.status == 201 and "title" in payload:
                ids["id"] = payload["id"]
            if response.status == 202:
                ids["job"] = payload["job"]["id"]
    finally:
        api.close()
    return transcripts


def _first_difference(expected: dict, actual: dict) -> str | None:
    for surface in SURFACES:
        want, got = expected.get(surface, []), actual[surface]
        for i in range(max(len(want), len(got))):
            a = want[i] if i < len(want) else None
            b = got[i] if i < len(got) else None
            if a == b:
                continue
            diff = difflib.unified_diff(
                json.dumps(a, indent=1).splitlines(),
                json.dumps(b, indent=1).splitlines(),
                f"golden {surface}[{i}]", f"actual {surface}[{i}]",
                lineterm="",
            )
            return "\n".join(diff)
    return None


def test_transcript_matches_golden(request):
    actual = record()
    if request.config.getoption("--record"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(actual, indent=1) + "\n")
        pytest.skip(f"recorded {GOLDEN.name}")
    assert GOLDEN.exists(), "no golden transcript; run with --record"
    expected = json.loads(GOLDEN.read_text())
    difference = _first_difference(expected, actual)
    assert difference is None, "transcript changed:\n" + difference

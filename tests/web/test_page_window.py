"""``/search`` and ``/materials`` pages equal slices of the full list.

The two search-backed list handlers build item dicts for the requested
window only.  Whatever the window — cursor or v1 offset, across the end
of the list, ``limit=0`` or the default limit — a page must equal the
same window sliced out of the fully built list, with ``total`` counting
every hit.
"""

from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_language import parse_query
from repro.web import CarCsApi, Client
from repro.web.http import encode_cursor

QUERIES = ["", "parallel", "monte carlo", "language:python", "sorting mpi"]

#: (surface, list path, default limit, items keep ``kind``).
ENDPOINTS = [
    ("/api/v2", "/materials", 100, True),
    ("/api/v2", "/search", 20, True),
    ("/api/v1", "/assignments", 100, False),
    ("/api/v1", "/search", 20, True),
]


@pytest.fixture(scope="module")
def client(seeded_repo):
    api = CarCsApi(seeded_repo)
    yield Client(api)
    api.close()


def _full(client, root, path, q):
    """The whole result list, in one window wider than any corpus."""
    url = f"{root}{path}?q={quote(q)}&limit=1000000"
    response = client.get(url)
    assert response.status == 200, response.payload
    return response.payload["items"]


def test_full_list_is_every_hit_in_rank_order(client, seeded_repo):
    for q in QUERIES:
        parsed = parse_query(q)
        hits = seeded_repo.search_engine().search(
            parsed.text, parsed.filters, limit=None)
        expected = [h.material.id for h in hits]
        for root, path, _, _ in ENDPOINTS:
            assert [item["id"] for item in _full(client, root, path, q)] \
                == expected


@settings(max_examples=150, deadline=None)
@given(
    endpoint=st.sampled_from(ENDPOINTS),
    q=st.sampled_from(QUERIES),
    limit=st.one_of(st.none(), st.integers(0, 130)),
    offset=st.integers(0, 130),
)
def test_page_equals_slice_of_full_list(client, endpoint, q, limit, offset):
    root, path, default_limit, keeps_kind = endpoint
    full = _full(client, root, path, q)
    url = f"{root}{path}?q={quote(q)}"
    if limit is not None:
        url += f"&limit={limit}"
    v2 = root == "/api/v2"
    if v2 and offset:
        url += f"&cursor={encode_cursor(offset)}"
    elif not v2:
        url += f"&offset={offset}"
    response = client.get(url)
    assert response.status == 200, response.payload
    page = response.payload
    size = default_limit if limit is None else limit
    window = full[offset:offset + size]
    assert page["items"] == window
    assert all(("kind" in item) == keeps_kind for item in page["items"])
    assert page["total"] == len(full)
    assert page["limit"] == size
    if v2:
        more = size > 0 and offset + size < len(full)
        assert page["next_cursor"] == (
            encode_cursor(offset + size) if more else None)
    else:
        assert page["offset"] == offset

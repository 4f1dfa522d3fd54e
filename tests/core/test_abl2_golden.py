"""Golden oracle for ABL-2: leave-one-out accuracy of the suggesters.

The kNN and NB recommenders are refitted per held-out material over
the seeded corpus (30 and 15 materials, as ``benchmarks/
bench_recommend.py`` runs them), and the vectorised kNN evaluator runs
over all 97 classified materials.  Precision, recall, F1 and the number
of materials evaluated must equal ``tests/core/golden/abl2.json``
exactly, so a rewrite of the classifier or the text pipeline cannot
move ABL-2 without a deliberate re-record.

Regenerate after a deliberate model change with::

    PYTHONPATH=src python -m pytest tests/core/test_abl2_golden.py --record
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.recommend import (
    TextKnnRecommender,
    TextNbRecommender,
    evaluate_knn_loo_fast,
    evaluate_leave_one_out,
)

GOLDEN = Path(__file__).parent / "golden" / "abl2.json"


def _results(repo) -> dict:
    return {
        "knn": evaluate_leave_one_out(
            repo,
            lambda exclude: TextKnnRecommender(repo).fit(exclude=exclude),
            top=10, limit=30,
        ),
        "nb": evaluate_leave_one_out(
            repo,
            lambda exclude: TextNbRecommender(repo).fit(exclude=exclude),
            top=10, limit=15,
        ),
        "knn_fast": evaluate_knn_loo_fast(repo, top=10),
    }


def test_abl2_leave_one_out_matches_golden(request, seeded_repo):
    actual = _results(seeded_repo)
    if request.config.getoption("--record"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"recorded {GOLDEN.name}")
    assert json.loads(GOLDEN.read_text()) == actual

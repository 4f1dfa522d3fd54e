"""Golden oracle for ABL-2: leave-one-out accuracy of the suggesters.

The exact leave-one-out evaluator scores the shared model's kNN and NB
arms on every classified material of the seeded corpus (97), each
held out of the model it is scored with.  Precision, recall, F1 and the
number of materials evaluated must equal ``tests/core/golden/abl2.json``
exactly, so a rewrite of the classifier or the text pipeline cannot
move ABL-2 without a deliberate re-record.

Regenerate after a deliberate model change with::

    PYTHONPATH=src python -m pytest tests/core/test_abl2_golden.py --record
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.recommend import evaluate_leave_one_out

GOLDEN = Path(__file__).parent / "golden" / "abl2.json"


def test_abl2_leave_one_out_matches_golden(request, seeded_repo):
    actual = evaluate_leave_one_out(seeded_repo, top=10)
    if request.config.getoption("--record"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"recorded {GOLDEN.name}")
    assert json.loads(GOLDEN.read_text()) == actual

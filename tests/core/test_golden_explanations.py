"""Golden explanations: PerfXplain's own answers are byte-stable.

``fixtures/golden_small_grid.jsonl`` is a slice of the small grid
simulated with seed 7 (every sixth job from the third on, with its tasks:
21 jobs, 97 tasks), small enough to commit yet large enough that both of
the paper's questions grow three atoms.  ``golden_explanations.json`` is
the exact JSON of every answer below: the paper's job and task questions
bound to explicit pairs plus their ``?, ?`` variants, widths 0-5,
``auto_despite`` off and on, for PerfXplain, SimButDiff and the four rule
detectors.  A technique that rejects a request (a detector asked for
``auto_despite``, a detector of the other entity kind) contributes its
typed error instead.  The session's matrices keep their latest clause
growth, and a wider request resumes it, so the same document must come
out when one session answers the requests in reverse or shuffled order.

Any change to an answer -- a predicate, a constant, a metric's last bit --
shows up as a diff against the golden file, which is the point: an
optimisation must leave every byte alone.  Regenerate the file
deliberately, never accidentally::

    PYTHONPATH=src python tests/core/test_golden_explanations.py --write
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.core.api import PerfXplainSession
from repro.exceptions import ReproError
from repro.ingest import load_execution_log

FIXTURES = Path(__file__).parent / "fixtures"
LOG = FIXTURES / "golden_small_grid.jsonl"
GOLDEN = FIXTURES / "golden_explanations.json"

_JOB_CLAUSES = (
    "DESPITE numinstances_isSame = T AND pig_script_isSame = T "
    "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM"
)
_TASK_CLAUSES = (
    "DESPITE job_id_isSame = T AND task_type_isSame = T "
    "AND inputsize_compare = SIM AND hostname_isSame = T "
    "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM"
)

#: WhySlowerDespiteSameNumInstances and WhyLastTaskFaster (section 6.2).
QUESTIONS = {
    "job": "FOR JOBS 'job_202606140001_0021', 'job_202606140001_0003' " + _JOB_CLAUSES,
    "job?": "FOR JOBS ?, ? " + _JOB_CLAUSES,
    "task": (
        "FOR TASKS 'task_202606140001_0021_m_000004', "
        "'task_202606140001_0021_m_000000' " + _TASK_CLAUSES
    ),
    "task?": "FOR TASKS ?, ? " + _TASK_CLAUSES,
}
TECHNIQUES = (
    "perfxplain",
    "simbutdiff",
    "detect-misconfig",
    "detect-underuse",
    "detect-skew",
    "detect-straggler",
)
WIDTHS = range(6)


def golden_answers(order: str = "forward") -> str:
    """Every answer over the fixture log, rendered as the golden document.

    One session answers the requests in ``order``: ``"forward"`` (the
    document's order), ``"reversed"`` or ``"shuffled"``; the document lists
    them in forward order either way.
    """
    log, _ = load_execution_log(LOG)
    session = PerfXplainSession(log)
    answers = [
        {
            "question": name,
            "technique": technique,
            "auto_despite": auto_despite,
            "width": width,
        }
        for name in QUESTIONS
        for technique in TECHNIQUES
        for auto_despite in (False, True)
        for width in WIDTHS
    ]
    asked = list(answers)
    if order == "reversed":
        asked.reverse()
    elif order == "shuffled":
        random.Random(19).shuffle(asked)
    for entry in asked:
        try:
            explanation = session.explain(
                QUESTIONS[entry["question"]],
                width=entry["width"],
                technique=entry["technique"],
                auto_despite=entry["auto_despite"],
            )
        except ReproError as error:
            entry["error"] = f"{type(error).__name__}: {error}"
        else:
            entry["explanation"] = json.loads(explanation.to_json())
    return json.dumps(answers, indent=1) + "\n"


def test_explanations_match_the_committed_golden_byte_for_byte():
    assert golden_answers() == GOLDEN.read_text()


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_answer_order_leaves_the_golden_unchanged(order):
    """Clause growths a session's matrices keep (a wider request resumes
    the last one) must not let one answer depend on the requests before
    it: widths asked downward, or in any order, give the same document."""
    assert golden_answers(order) == GOLDEN.read_text()


def test_golden_covers_grown_clauses():
    """The fixture is only worth pinning while the clauses really grow."""
    answers = json.loads(GOLDEN.read_text())
    widths = {
        (entry["question"], entry["auto_despite"]): len(entry["explanation"]["because"])
        for entry in answers
        if entry["technique"] == "perfxplain" and entry["width"] == 5
    }
    assert widths[("job?", False)] >= 3
    assert widths[("task?", False)] >= 3
    assert not [
        entry
        for entry in answers
        if entry["technique"] in ("perfxplain", "simbutdiff") and "error" in entry
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_explanations.py --write")
    GOLDEN.write_text(golden_answers())

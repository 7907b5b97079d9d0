"""A wider request resumes the matrix's last greedy clause growth.

A :class:`~repro.core.examples.TrainingMatrix` keeps PerfXplain's latest
clause growth per positive label, and a request whose growth context
matches resumes it.  These tests check that a matrix shared by any
sequence of requests answers exactly as a fresh matrix per request does,
that every context field keeps growths apart (pair values differing only
by type, sign of zero or a NaN; starting rows; excluded features;
``score_weight``, ``min_examples`` and the explainer class), and that a
widening request really searches each clause step once.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.examples import (
    Label,
    TrainingExample,
    TrainingMatrix,
    construct_training_matrix,
    iter_related_pairs,
    records_for_query,
)
from repro.core.explainer import PerfXplainConfig, PerfXplainExplainer
from repro.core.features import infer_schema
from repro.core.pairs import IS_SAME_SUFFIX
from repro.core.pxql.ast import Predicate
from repro.core.pxql.parser import parse_query
from repro.ingest import load_execution_log

from tests.oracles.pairref import listed_matrix

LOG = Path(__file__).parent / "fixtures" / "golden_small_grid.jsonl"

QUESTIONS = {
    "job": (
        "FOR JOBS ?, ? DESPITE numinstances_isSame = T AND pig_script_isSame = T "
        "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM"
    ),
    "task": (
        "FOR TASKS ?, ? DESPITE job_id_isSame = T AND task_type_isSame = T "
        "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM"
    ),
}


class CountingExplainer(PerfXplainExplainer):
    """PerfXplain counting its clause steps (candidate searches)."""

    def __init__(self, config: PerfXplainConfig | None = None) -> None:
        super().__init__(config)
        self.steps = 0

    def _best_predicates(self, view, positive, pair_values, used):
        self.steps += 1
        return super()._best_predicates(view, positive, pair_values, used)


class PickyExplainer(PerfXplainExplainer):
    """A subclass that never cites an ``isSame`` feature or ``flag``: the
    same config, other clauses."""

    def _best_predicates(self, view, positive, pair_values, used):
        return [
            candidate
            for candidate in super()._best_predicates(view, positive, pair_values, used)
            if not candidate.feature.endswith(IS_SAME_SUFFIX) and candidate.feature != "flag"
        ]


@pytest.fixture(scope="module")
def log():
    return load_execution_log(LOG)[0]


def question(log, name: str):
    """A question, its schema, and the pairs that performed as observed."""
    query = parse_query(QUESTIONS[name])
    schema = infer_schema(records_for_query(log, query))
    pairs = [
        (first.entity_id, second.entity_id)
        for first, second, label in iter_related_pairs(log, query, schema)
        if label is Label.OBSERVED
    ]
    return query, schema, pairs


def fresh_matrix(log, query, schema) -> TrainingMatrix:
    return construct_training_matrix(log, query, schema, rng=random.Random(0))


@pytest.mark.parametrize("seed", range(12))
def test_a_shared_matrix_answers_as_a_fresh_one_per_request(log, seed):
    rng = random.Random(seed)
    name = ("job", "task")[seed % 2]
    query, schema, pairs = question(log, name)
    pairs = rng.sample(pairs, min(len(pairs), 3))
    shared = fresh_matrix(log, query, schema)
    # Three explainers with different scoring tunables, and a subclass,
    # take turns on one matrix.
    explainers = [
        PerfXplainExplainer(),
        PerfXplainExplainer(PerfXplainConfig(score_weight=0.5)),
        PerfXplainExplainer(PerfXplainConfig(min_examples=12)),
        PickyExplainer(),
    ]
    for step in range(30):
        if step == 0 or rng.random() < 0.4:
            # A new explainer, pair or despite choice; otherwise the same
            # one asks again at another width.
            explainer = rng.choice(explainers)
            bound = query.with_pair(*rng.choice(pairs))
            auto_despite = rng.random() < 0.4
            despite_width = rng.choice([None, 1, 2])
        width = rng.randint(0, 5)

        def answer(matrix: TrainingMatrix) -> str:
            return explainer.explain(
                log, bound, schema=schema, width=width, auto_despite=auto_despite,
                despite_width=despite_width, examples=matrix,
            ).to_json()

        assert answer(shared) == answer(fresh_matrix(log, query, schema)), (
            type(explainer).__name__, explainer.config, bound, width, auto_despite
        )


def test_widening_one_pair_searches_each_clause_step_once(log):
    query, schema, pairs = question(log, "task")
    bound = query.with_pair(*pairs[0])

    def explain_widths(widths, matrix, auto_despite=False):
        explainer = CountingExplainer()
        answers = [
            explainer.explain(log, bound, schema=schema, width=width,
                              auto_despite=auto_despite, examples=matrix).to_json()
            for width in widths
        ]
        return answers, explainer.steps

    widest, steps = explain_widths([5], fresh_matrix(log, query, schema))
    assert json.loads(widest[0])["because"], "the question must grow a clause"
    matrix = fresh_matrix(log, query, schema)
    answers, widening = explain_widths(range(1, 6), matrix)
    assert answers[-1] == widest[0]
    assert widening == steps
    # Narrower requests, and the widest again, are read from the growth.
    again, rereads = explain_widths([3, 1, 5, 0], matrix)
    assert rereads == 0
    assert again[2] == widest[0]


def test_widening_a_despite_clause_searches_each_step_once(log):
    query, schema, pairs = question(log, "job")
    bound = query.with_pair(*pairs[0])

    def despite_widths(widths, matrix):
        explainer = CountingExplainer()
        clauses = [
            explainer.generate_despite(log, bound, schema=schema, width=width,
                                       examples=matrix)
            for width in widths
        ]
        return clauses, explainer.steps

    widest, steps = despite_widths([5], fresh_matrix(log, query, schema))
    assert widest[0].width >= 2, "the question must grow a despite clause"
    clauses, widening = despite_widths(range(1, 6), fresh_matrix(log, query, schema))
    assert text(clauses[-1]) == text(widest[0])
    assert widening == steps


# ---------------------------------------------------------------------- #
# direct growths over a synthetic matrix
# ---------------------------------------------------------------------- #

#: Catalog of the synthetic examples: feature -> is numeric.
CATALOG = {"flag": False, "zero": True, "size": True, "mode": False, "noise": True}


def synthetic_matrix() -> TrainingMatrix:
    """Labeled examples explained by ``flag = True AND zero = 0.0``, with
    ``size`` as a weaker cause and ``mode`` and ``noise`` as noise."""
    rng = random.Random(5)
    examples = []
    for _ in range(120):
        flag = rng.random() < 0.5
        zero = rng.choice([0.0, 1.0])
        size = rng.randrange(10)
        observed = (
            (flag and zero == 0.0)
            or (flag and size > 6 and rng.random() < 0.5)
            or rng.random() < 0.1
        )
        examples.append(TrainingExample(
            "a", "b",
            {"flag": flag, "zero": zero, "size": size,
             "mode": rng.choice("abc"), "noise": rng.random()},
            Label.OBSERVED if observed else Label.EXPECTED,
        ))
    return listed_matrix(examples, CATALOG)


PAIR = {"flag": True, "zero": 0.0, "size": 8, "mode": "a", "noise": 0.5}
ALL_ROWS = (1 << 120) - 1


def grow(explainer, matrix, pair_values=PAIR, width=3, rows=ALL_ROWS,
         label=Label.OBSERVED, exclude=frozenset()):
    return explainer._grow_clause(
        matrix, rows, pair_values, width, positive_label=label, exclude_features=exclude
    )


def text(predicate: Predicate) -> str:
    """A clause's exact JSON (``True``, ``1``, ``1.0`` and ``-0.0`` differ)."""
    return json.dumps(predicate.to_dict())


def test_pair_values_differing_only_by_type_or_sign_grow_apart():
    explainer = PerfXplainExplainer()
    matrix = synthetic_matrix()
    stored = grow(explainer, matrix, width=3)
    for variant in ({"flag": 1}, {"flag": 1.0}, {"zero": -0.0}):
        pair_values = {**PAIR, **variant}
        expected = grow(explainer, synthetic_matrix(), pair_values, width=2)
        assert text(expected) != text(Predicate(stored.atoms[:2])), variant
        assert text(grow(explainer, matrix, pair_values, width=2)) == text(expected)
        # Back to the first pair: its own clause again, not the variant's.
        assert text(grow(explainer, matrix, width=2)) == text(Predicate(stored.atoms[:2]))
        grow(explainer, matrix, width=3)


def test_a_nan_pair_value_never_matches_a_stored_growth():
    explainer = CountingExplainer()
    matrix = synthetic_matrix()
    pair_values = {**PAIR, "noise": float("nan")}
    first = grow(explainer, matrix, pair_values, width=2)
    steps = explainer.steps
    assert steps == 2
    assert grow(explainer, matrix, pair_values, width=2) == first
    assert explainer.steps == 2 * steps
    assert grow(explainer, synthetic_matrix(), pair_values, width=2) == first
    # The same pair values without the NaN are stored and reused.
    grow(explainer, matrix, width=2)
    steps = explainer.steps
    grow(explainer, matrix, width=2)
    assert explainer.steps == steps


@pytest.mark.parametrize("field", ["rows", "label", "exclude", "score_weight",
                                   "min_examples", "class"])
def test_every_context_field_keeps_growths_apart(field):
    """One field differs from the stored growth's context: the answer is
    the fresh matrix's, and it differs from the stored clause's prefix."""
    base = PerfXplainExplainer()
    other = {
        "score_weight": PerfXplainExplainer(PerfXplainConfig(score_weight=0.0)),
        "min_examples": PerfXplainExplainer(PerfXplainConfig(min_examples=70)),
        "class": PickyExplainer(),
    }.get(field, base)
    kwargs = {
        "rows": {"rows": (1 << 60) - 1},
        "label": {"label": Label.EXPECTED},
        "exclude": {"exclude": frozenset({"flag"})},
    }.get(field, {})
    matrix = synthetic_matrix()
    stored = grow(base, matrix, width=3)
    expected = grow(other, synthetic_matrix(), width=2, **kwargs)
    assert grow(other, matrix, width=2, **kwargs) == expected
    assert text(expected) != text(Predicate(stored.atoms[:2]))


def test_negative_and_zero_widths_read_an_empty_clause():
    explainer = PerfXplainExplainer()
    matrix = synthetic_matrix()
    assert not grow(explainer, matrix, width=3).is_true
    assert grow(explainer, matrix, width=0).is_true
    assert grow(explainer, matrix, width=-1).is_true


def test_a_growth_that_stopped_is_not_searched_again():
    explainer = CountingExplainer()
    matrix = synthetic_matrix()
    # Only ``size`` may be cited, so the second step finds no candidate.
    only_size = frozenset(CATALOG) - {"size"}
    clause = grow(explainer, matrix, width=3, exclude=only_size)
    assert clause.width == 1
    assert explainer.steps == 2
    assert grow(explainer, matrix, width=5, exclude=only_size) == clause
    assert explainer.steps == 2

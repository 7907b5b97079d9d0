"""The pair of interest, picked by one C-level contrast helper.

``find_pair_of_interest``, ``DiffEngine.find_cross_pair`` and the pick a
training matrix records while it filters (the one a session's ``?``
question reads) all take the first OBSERVED pair with the largest
``|log(d1 / d2)|`` through :func:`repro.core.examples.highest_contrast`.
This file checks each of them against the pair-at-a-time loops they
replaced (:mod:`tests.oracles.pairref`) on the pair-pipeline suite's
randomized logs with zero, tied, NaN and infinite durations mixed in,
under every capping regime of the matrix pass and the search, serial and
sharded, and counts the filter passes a session's ``?`` question runs.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from test_pair_pipeline_equivalence import random_log, random_query

from repro.core import examples
from repro.core.api import PerfXplainConfig, PerfXplainSession
from repro.core.examples import (
    _blocking_features,
    blocking_group_indices,
    construct_training_matrix,
    highest_contrast,
    pair_kernel_for,
)
from repro.core.features import infer_schema
from repro.core.pairs import PairFeatureConfig
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.core.queries import find_pair_of_interest
from repro.diff.engine import DiffEngine
from repro.diff.view import AFTER_RUN, BEFORE_RUN
from repro.exceptions import ExplanationError
from repro.logs.records import JobRecord
from repro.logs.store import ExecutionLog

from tests.oracles.pairref import (
    find_cross_pair_reference,
    find_pair_of_interest_reference,
)

SEEDS = list(range(40))

#: Durations mixed into the randomized logs: zeros, ties, NaN and inf.
SPECIAL_DURATIONS = [0.0, 0.0, 2.0, 2.0, float("nan"), float("inf")]

#: (observed, expected) clauses.  Under ``GT`` a NaN duration makes pairs
#: OBSERVED with a NaN contrast; ``SIM`` pairs an infinite duration with a
#: finite one (an infinite or a zero ratio, both ranked infinite);
#: ``size_compare`` leaves durations unconstrained; the last observes
#: nothing, so the search finds no pair.
CLAUSES = [
    (Comparison("duration_compare", Operator.EQ, "GT"),
     Comparison("duration_compare", Operator.EQ, "SIM")),
    (Comparison("duration_compare", Operator.EQ, "SIM"),
     Comparison("duration_compare", Operator.EQ, "GT")),
    (Comparison("duration_compare", Operator.EQ, "LT"),
     Comparison("duration_compare", Operator.EQ, "SIM")),
    (Comparison("size_compare", Operator.EQ, "GT"),
     Comparison("duration_compare", Operator.EQ, "SIM")),
    (Comparison("script_isSame", Operator.EQ, "U"),
     Comparison("duration_compare", Operator.EQ, "SIM")),
]


def special_log(seed: int) -> ExecutionLog:
    """The seed's randomized log with special durations mixed in."""
    log = random_log(seed)
    rng = random.Random(seed + 313)
    for job in log.jobs:
        if rng.random() < 0.3:
            job.duration = rng.choice(SPECIAL_DURATIONS)
    return log


def pick_query(seed: int) -> PXQLQuery:
    """The seed's randomized despite clause under one of :data:`CLAUSES`."""
    observed, expected = CLAUSES[seed % len(CLAUSES)]
    return PXQLQuery(
        entity=EntityKind.JOB,
        despite=random_query(seed).despite,
        observed=Predicate.of(observed),
        expected=Predicate.of(expected),
        name=f"pick-{seed}",
    )


def outcome(call) -> tuple:
    """A call's pair, or its error's type and text."""
    try:
        return ("pair", call())
    except ExplanationError as error:
        return (type(error).__name__, str(error))


def candidate_total(log: ExecutionLog, query: PXQLQuery) -> int:
    schema = infer_schema(log.jobs)
    kernel = pair_kernel_for(log, query, schema, PairFeatureConfig())
    groups = blocking_group_indices(kernel.block, _blocking_features(query, schema))
    return sum(len(group) * (len(group) - 1) for group in groups)


#: Regime -> (search cap, matrix cap) as fractions of the blocked
#: candidates; ``None`` is no cap.
REGIMES = {
    "neither cap reached": (1.0, None),
    "only the search cap reached": (0.3, None),
    "both caps reached": (0.3, 0.6),
    "matrix cap below the search's": (0.6, 0.3),
}


class TestHelper:
    def test_first_largest_contrast_wins_and_nan_never_does(self):
        records = [
            JobRecord(job_id=f"j{i}", features={}, duration=duration)
            for i, duration in enumerate([1.0, 4.0, 0.25, float("nan"), 0.0])
        ]
        # |log(4)| twice: the first tied pair wins; a NaN ratio is skipped.
        firsts, seconds = [3, 1, 0, 2], [0, 0, 1, 0]
        assert highest_contrast(records, firsts, seconds) == (1, math.log(4.0))
        # Only a larger contrast beats a running best.
        assert highest_contrast(records, firsts, seconds, math.log(4.0)) == (
            -1, math.log(4.0)
        )
        # A zero duration is floored at 1e-9.
        index, best = highest_contrast(records, [4], [0])
        assert index == 0 and best == abs(math.log(1e-9 / 1.0))
        assert highest_contrast(records, [], []) == (-1, -1.0)

    def test_a_zero_ratio_ranks_infinite_like_its_reverse(self):
        records = [
            JobRecord(job_id="a", features={}, duration=2.0),
            JobRecord(job_id="b", features={}, duration=float("inf")),
            JobRecord(job_id="c", features={}, duration=float("nan")),
        ]
        assert highest_contrast(records, [1], [0]) == (0, math.inf)
        # Finite over infinite: a zero ratio, which ``math.log`` rejects.
        assert highest_contrast(records, [0], [1]) == (0, math.inf)
        # Tied at infinity, the first pair wins, in either order; NaN
        # ratios (infinite over infinite, NaN durations) never win.
        assert highest_contrast(records, [1, 2, 0, 1], [1, 0, 1, 0]) == (2, math.inf)
        assert highest_contrast(records, [1, 1, 0], [1, 0, 1]) == (1, math.inf)
        assert highest_contrast(records, [0], [1], math.inf) == (-1, math.inf)


class TestSearchAgainstReference:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_matrix_pick_is_the_search_pick(self, seed, regime, monkeypatch):
        log = special_log(seed)
        query = pick_query(seed)
        schema = infer_schema(log.jobs)
        total = candidate_total(log, query)
        search_share, matrix_share = REGIMES[regime]
        search_cap = max(1, int(total * search_share))
        matrix_cap = None if matrix_share is None else max(1, int(total * matrix_share))
        effective = search_cap if matrix_cap is None else min(search_cap, matrix_cap)
        monkeypatch.setattr(examples, "PAIR_SEARCH_CANDIDATES", search_cap)

        expected = outcome(lambda: find_pair_of_interest_reference(
            log, query, schema, rng=random.Random(seed), max_candidate_pairs=effective,
        ))
        searched = outcome(lambda: find_pair_of_interest(
            log, query, schema, rng=random.Random(seed), max_candidate_pairs=effective,
        ))
        matrix = construct_training_matrix(
            log, query, schema, sample_size=40, rng=random.Random(seed),
            max_candidate_pairs=matrix_cap,
        )
        assert searched == expected
        assert outcome(lambda: matrix.pair_of_interest(query)) == expected

    def test_the_cases_reach_every_outcome(self):
        """The randomized cases pick pairs, find none, and pick an infinite
        contrast past NaN ones: infinite over finite, and finite over
        infinite (a zero ratio)."""
        kinds = set()
        directions = set()
        for seed in SEEDS:
            log = special_log(seed)
            query = pick_query(seed)
            result = outcome(lambda: find_pair_of_interest_reference(
                log, query, rng=random.Random(seed)))
            kinds.add(result[0])
            if result[0] == "pair":
                durations = {job.job_id: job.duration for job in log.jobs}
                first, second = (durations[entity] for entity in result[1])
                if math.isinf(first) != math.isinf(second):
                    directions.add("infinite first" if math.isinf(first) else "zero ratio")
        assert kinds == {"pair", "ExplanationError"}
        assert directions == {"infinite first", "zero ratio"}

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_sharded_matrix_pick(self, seed, monkeypatch):
        log = special_log(seed)
        query = pick_query(seed)
        schema = infer_schema(log.jobs)
        search_cap = max(1, candidate_total(log, query) // 3)
        monkeypatch.setattr(examples, "PAIR_SEARCH_CANDIDATES", search_cap)
        matrix = construct_training_matrix(
            log, query, schema, rng=random.Random(seed), workers=2
        )
        expected = outcome(lambda: find_pair_of_interest_reference(
            log, query, schema, rng=random.Random(seed), max_candidate_pairs=search_cap,
        ))
        assert outcome(lambda: matrix.pair_of_interest(query)) == expected

    @pytest.mark.parametrize("seed", SEEDS[:10])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_session_find_pair(self, seed, workers):
        log = special_log(seed)
        query = pick_query(seed)
        session = PerfXplainSession(
            log, config=PerfXplainConfig(pair_workers=workers), seed=seed
        )
        expected = outcome(lambda: find_pair_of_interest_reference(
            log, query, config=session.config.pair_config, rng=random.Random(seed),
        ))
        assert outcome(lambda: session.find_pair(query)) == expected
        # A question under another name reports its own name.
        renamed = dataclasses.replace(query, name="renamed")
        assert outcome(lambda: session.find_pair(renamed)) == outcome(
            lambda: find_pair_of_interest_reference(
                log, renamed, config=session.config.pair_config,
                rng=random.Random(seed),
            )
        )


class TestCrossPairAgainstReference:
    @pytest.mark.parametrize("seed", SEEDS[:12])
    @pytest.mark.parametrize("regressed", [BEFORE_RUN, AFTER_RUN])
    def test_cross_pair_matches_reference(self, seed, regressed):
        cap = [None, 500_000, 300][seed % 3]
        engine = DiffEngine(
            special_log(seed), special_log(seed + 100), seed=seed,
            max_candidate_pairs=cap,
        )
        for query in (engine.comparison_query(), pick_query(seed)):
            assert outcome(lambda: engine.find_cross_pair(query, regressed)) == outcome(
                lambda: find_cross_pair_reference(engine, query, regressed)
            )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("regressed", [BEFORE_RUN, AFTER_RUN])
    def test_sharded_cross_pair_matches_reference(self, seed, regressed):
        engine = DiffEngine(
            special_log(seed), special_log(seed + 100), seed=seed,
            config=PerfXplainConfig(pair_workers=2), max_candidate_pairs=300,
        )
        query = pick_query(seed)
        assert outcome(lambda: engine.find_cross_pair(query, regressed)) == outcome(
            lambda: find_cross_pair_reference(engine, query, regressed)
        )


QUESTION = """
    FOR JOBS ?, ?
    DESPITE script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""

OTHER_QUESTION = QUESTION.replace("script_isSame", "host_isSame")


class TestOneFilterPass:
    """A ``?`` question filters its candidates once per clause signature."""

    @pytest.fixture()
    def passes(self, monkeypatch):
        calls = []
        original = examples.related_index_batches

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(examples, "related_index_batches", counted)
        return calls

    def test_a_question_runs_one_pass_per_signature(self, passes):
        session = PerfXplainSession(random_log(3))
        session.explain(QUESTION, width=2)
        assert len(passes) == 1
        session.explain(OTHER_QUESTION, width=2)
        assert len(passes) == 2
        # The same signature about its picked pair, at another width.
        first, second = session.find_pair(QUESTION)
        explicit = QUESTION.replace("?, ?", f"'{first}', '{second}'")
        session.explain(explicit, width=3)
        assert len(passes) == 2

    def test_find_pair_after_the_matrix_runs_no_pass(self, passes):
        session = PerfXplainSession(random_log(5))
        matrix = session.training_matrix(QUESTION)
        passes.clear()
        assert session.find_pair(QUESTION) == matrix.pair_of_interest(
            session.parse(QUESTION)
        )
        assert passes == []

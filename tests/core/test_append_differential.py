"""A session that lives through appends answers like a fresh one.

After an append, :class:`~repro.core.api.PerfXplainSession` folds the new
records into the kind's schema and extends each matrix's related-pair
stream with the candidates that touch the new rows, instead of
re-inferring and re-filtering.  These tests grow logs through random
append sequences — new blocking groups, rows joining existing groups, a
new feature, a numeric feature turned nominal, an epoch move — and after
every step compare each answer, pick and matrix byte for byte with a
fresh session on a copy of the log, for a serial and a sharded session.
Two counts pin the saving: a repeat question filters only candidates that
touch appended rows, and the schema folds only appended records.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import examples, pairshard
from repro.core.api import PerfXplain, PerfXplainConfig, PerfXplainSession
from repro.core.examples import construct_training_matrix, pair_kernel_for
from repro.core.features import SchemaFold, infer_schema
from repro.core.pairkernel import blocking_group_indices
from repro.core.pxql import parse_query
from repro.exceptions import ExplanationError
from repro.logs.records import JobRecord, TaskRecord
from repro.logs.store import ExecutionLog

SCRIPTS = ["a.pig", "b.pig", "c.pig"]
HOSTS = ["h1", "h2", "h3", None]
DURATIONS = [10.0, 10.4, 15.0, 30.0, 31.0, 80.0]

#: ``?`` questions: blocked on the job (appended jobs add groups, held-back
#: tasks join them), on a host (rows join groups, a missing host joins
#: none), on a script, and on nothing (a numeric despite feature: one
#: group of every row).
QUESTIONS = [
    "FOR TASKS ?, ? DESPITE job_id_isSame = T AND task_type_isSame = T"
    " OBSERVED duration_compare = GT EXPECTED duration_compare = SIM",
    "FOR TASKS ?, ? DESPITE hostname_isSame = T"
    " OBSERVED duration_compare = GT EXPECTED duration_compare = SIM",
    "FOR JOBS ?, ? DESPITE script_isSame = T"
    " OBSERVED duration_compare = GT EXPECTED duration_compare = SIM",
    "FOR JOBS ?, ? DESPITE numinstances_isSame = T"
    " OBSERVED duration_compare = LT EXPECTED duration_compare = SIM",
]


def synthetic_jobs(seed: int, count: int = 24) -> list[tuple[JobRecord, list[TaskRecord]]]:
    """``count`` jobs, each with two to five tasks, drawn from ``seed``."""
    rng = random.Random(seed)
    jobs = []
    for index in range(count):
        job_id = f"job_{index:03d}"
        job = JobRecord(
            job_id=job_id,
            features={
                "script": rng.choice(SCRIPTS),
                "numinstances": rng.choice([1, 2, 4]),
                "size": rng.choice([64, 128, 256]),
            },
            duration=rng.choice(DURATIONS),
        )
        tasks = [
            TaskRecord(
                task_id=f"{job_id}_t{number}",
                job_id=job_id,
                features={
                    "job_id": job_id,
                    "task_type": rng.choice(["map", "reduce"]),
                    "hostname": rng.choice(HOSTS),
                    "inputsize": rng.choice([1, 2, 3]),
                },
                duration=rng.choice(DURATIONS),
            )
            for number in range(rng.randint(2, 5))
        ]
        jobs.append((job, tasks))
    return jobs


def with_features(record, **extra):
    """A copy of a record with extra or overridden features."""
    return dataclasses.replace(record, features={**record.features, **extra})


def outcome(call):
    """A call's result, or its typed error's text."""
    try:
        return ("ok", call())
    except ExplanationError as error:
        return ("error", str(error))


def explicit(text: str, pair: tuple[str, str]) -> str:
    return text.replace("?, ?", f"'{pair[0]}', '{pair[1]}'")


def matrix_bytes(session: PerfXplainSession, text: str) -> tuple:
    """A clause signature's matrix: its stream, its sample and their labels."""
    matrix = session._matrix_for(session.parse(text))
    stream = matrix.stream
    return (
        bytes(stream.firsts), bytes(stream.seconds), bytes(stream.observed),
        stream.total, matrix.matrix.firsts, matrix.matrix.seconds,
        bytes(matrix.observed),
    )


def answers(session: PerfXplainSession) -> list:
    """Every pick, matrix and answer the questions get from ``session``."""
    seen = []
    for text in QUESTIONS:
        pick = outcome(lambda: session.find_pair(text))
        seen.append(pick)
        seen.append(matrix_bytes(session, text))
        asked = [text] + ([explicit(text, pick[1])] if pick[0] == "ok" else [])
        for question in asked:
            for auto_despite in (False, True):
                seen.append(outcome(lambda: session.explain(
                    question, width=2, auto_despite=auto_despite
                ).to_dict()))
    return seen


class Growth:
    """A log grown from a pool of jobs, one operation at a time."""

    def __init__(self, seed: int, start: int) -> None:
        self.pool = synthetic_jobs(seed)
        self.rng = random.Random(seed + 1)
        self.log = ExecutionLog()
        self.held: list[TaskRecord] = []
        self.next = 0
        self.jobs(start)

    def _take(self, count: int) -> list[tuple[JobRecord, list[TaskRecord]]]:
        taken = self.pool[self.next:self.next + count]
        self.next += len(taken)
        return taken

    def _append(self, taken, **extra) -> None:
        jobs, tasks = [], []
        for job, job_tasks in taken:
            jobs.append(with_features(job, **extra.get("job", {})))
            job_tasks = [with_features(task, **extra.get("task", {})) for task in job_tasks]
            if len(job_tasks) > 2 and self.rng.random() < 0.5:
                self.held.append(job_tasks.pop())
            tasks.extend(job_tasks)
        self.log.extend(jobs=jobs, tasks=tasks)

    def jobs(self, count: int) -> None:
        """Whole jobs: new groups for job-blocked task questions."""
        self._append(self._take(count))

    def held_tasks(self) -> None:
        """Tasks of jobs already in the log: rows join existing groups."""
        held, self.held = self.held, []
        self.log.extend(tasks=held)

    def new_feature(self) -> None:
        """A job and its tasks carrying a feature the log has not seen."""
        self._append(self._take(1), job={"new_knob": 3}, task={"new_knob": 5})

    def nominal(self) -> None:
        """A job and tasks whose numeric features hold strings, which turns
        those features nominal (``numinstances`` then blocks)."""
        self._append(self._take(1), job={"numinstances": "many"}, task={"inputsize": "big"})

    def replace(self) -> None:
        """An in-place replacement: the task epoch moves."""
        victim = self.rng.choice(self.log.tasks)
        self.log.replace_task(dataclasses.replace(victim, duration=victim.duration * 3))

    def copy(self) -> ExecutionLog:
        return ExecutionLog(jobs=list(self.log.jobs), tasks=list(self.log.tasks))


OPERATIONS = ["jobs", "held_tasks", "new_feature", "nominal", "replace"]


class TestAppendSequences:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 10_000),
        start=st.integers(2, 6),
        steps=st.lists(
            st.tuples(st.sampled_from(OPERATIONS), st.integers(1, 3)),
            min_size=1, max_size=5,
        ),
        search_cap=st.sampled_from([None, 40]),
    )
    def test_grown_sessions_answer_like_a_fresh_one(
        self, seed, start, steps, search_cap, monkeypatch
    ):
        growth = Growth(seed, start)
        config = PerfXplainConfig(sample_size=30)
        serial = PerfXplainSession(growth.log, config=config, seed=seed)
        sharded = PerfXplainSession(
            growth.log, config=dataclasses.replace(config, pair_workers=2), seed=seed
        )
        with monkeypatch.context() as patch:
            if search_cap is not None:
                # The pick then scans the hash-chosen subset of the stream,
                # whose limit moves as the candidates grow.
                patch.setattr(examples, "PAIR_SEARCH_CANDIDATES", search_cap)
            for operation, count in [("jobs", 0), *steps]:
                if operation == "jobs":
                    growth.jobs(count)
                else:
                    getattr(growth, operation)()
                fresh = answers(PerfXplainSession(growth.copy(), config=config, seed=seed))
                assert answers(serial) == fresh
                assert answers(sharded) == fresh


class TestDeltaCounts:
    def test_a_repeat_question_filters_only_candidates_touching_appended_rows(
        self, monkeypatch
    ):
        growth = Growth(seed=5, start=8)
        session = PerfXplainSession(growth.log, config=PerfXplainConfig(sample_size=30))
        text = QUESTIONS[1]
        session.explain(text, width=2)
        old_rows = len(growth.log.tasks)
        growth.jobs(3)
        growth.held_tasks()

        evaluated: list[tuple[int, int]] = []
        original = pairshard.evaluate_candidate_batch

        def counted(kernel, query, firsts, seconds):
            evaluated.extend(zip(firsts, seconds))
            return original(kernel, query, firsts, seconds)

        monkeypatch.setattr(pairshard, "evaluate_candidate_batch", counted)
        grown = session.explain(text, width=2)

        query = parse_query(text)
        schema = session.schema_for(query)
        kernel = pair_kernel_for(growth.log, query, schema, session.config.pair_config)
        groups = blocking_group_indices(
            kernel.block, examples._blocking_features(query, schema)
        )
        touching = [
            (first, second)
            for group in groups
            for first in group
            for second in group
            if first != second and max(first, second) >= old_rows
        ]
        assert touching and evaluated == touching
        assert grown.to_dict() == PerfXplainSession(
            growth.copy(), config=PerfXplainConfig(sample_size=30)
        ).explain(text, width=2).to_dict()

    def test_the_schema_folds_only_appended_records(self, monkeypatch):
        growth = Growth(seed=6, start=8)
        session = PerfXplainSession(growth.log)
        task_query = parse_query(QUESTIONS[0])
        job_query = parse_query(QUESTIONS[2])
        schema = session.schema_for(task_query)
        session.schema_for(job_query)

        folded: list[int] = []
        original = SchemaFold.add

        def counted(fold, records):
            records = list(records)
            folded.append(len(records))
            original(fold, records)

        monkeypatch.setattr(SchemaFold, "add", counted)
        before = len(growth.log.tasks)
        growth.jobs(2)
        appended = len(growth.log.tasks) - before
        assert session.schema_for(task_query) is schema  # unchanged: same object
        session.schema_for(job_query)
        assert folded == [appended, 2]
        # Asked again, nothing is folded.
        session.schema_for(task_query)
        assert folded == [appended, 2]
        growth.new_feature()
        grown = session.schema_for(task_query)
        assert folded == [appended, 2, len(growth.log.tasks) - before - appended]
        assert grown is not schema and "new_knob" in grown
        grown_jobs = session.schema_for(job_query)
        for folded_schema, records in ((grown, growth.log.tasks), (grown_jobs, growth.log.jobs)):
            assert list(folded_schema.specs.items()) == list(infer_schema(records).specs.items())


class TestRestarts:
    """Where the stream starts over, the build still equals a fresh one."""

    @pytest.mark.parametrize("capped", ["after the append", "before the append"])
    def test_a_capped_pass_restarts_the_stream(self, capped):
        growth = Growth(seed=7, start=6)
        query = parse_query(QUESTIONS[1])
        schema = infer_schema(growth.log.tasks)
        total = construct_training_matrix(growth.log, query, schema).stream.total
        cap = total + 1 if capped == "after the append" else total // 2

        def build(log, previous=None):
            return construct_training_matrix(
                log, query, schema, sample_size=20,
                rng=random.Random(3), max_candidate_pairs=cap, previous=previous,
            )

        before = build(growth.log)
        growth.jobs(4)
        grown = build(growth.log, previous=before.stream)
        fresh = build(growth.copy())
        assert grown.stream.total > cap
        assert bytes(grown.stream.firsts) == bytes(fresh.stream.firsts)
        assert bytes(grown.stream.seconds) == bytes(fresh.stream.seconds)
        assert grown.matrix.firsts == fresh.matrix.firsts
        assert grown.observed == fresh.observed

    def test_a_rebuilt_block_restarts_the_stream(self, monkeypatch):
        growth = Growth(seed=8, start=6)
        query = parse_query(QUESTIONS[2])
        schema = infer_schema(growth.log.jobs)
        before = construct_training_matrix(growth.log, query, schema, rng=random.Random(1))
        growth.jobs(3)
        growth.log.configure_blocks(chunk_rows=4)  # drops the cached blocks
        evaluated = []
        original = pairshard.evaluate_candidate_batch

        def counted(kernel, query, firsts, seconds):
            evaluated.extend(firsts)
            return original(kernel, query, firsts, seconds)

        monkeypatch.setattr(pairshard, "evaluate_candidate_batch", counted)
        grown = construct_training_matrix(
            growth.log, query, schema, rng=random.Random(1), previous=before.stream
        )
        assert grown.stream.block is not before.stream.block
        assert len(evaluated) == grown.stream.total  # every candidate again
        fresh = construct_training_matrix(
            growth.copy(), query, schema, rng=random.Random(1)
        )
        assert bytes(grown.stream.firsts) == bytes(fresh.stream.firsts)
        assert bytes(grown.stream.observed) == bytes(fresh.stream.observed)


class TestFacadeSchema:
    def test_the_facade_schema_follows_appends(self):
        """A plain facade sees a feature that appended jobs brought in."""
        growth = Growth(seed=9, start=10)
        facade = PerfXplain(growth.log, seed=2)
        facade.explain(QUESTIONS[2], width=1)
        growth._append(growth._take(4), job={"new_knob": "on"})
        text = QUESTIONS[2].replace("script_isSame", "new_knob_isSame")
        fresh = PerfXplain(growth.copy(), seed=2)
        answer = outcome(lambda: facade.explain(text, width=1).to_dict())
        assert answer[0] == "ok"
        assert answer == outcome(lambda: fresh.explain(text, width=1).to_dict())

"""Session cache coherence over a live, growing log.

:class:`~repro.core.api.PerfXplainSession` tracks the log's per-kind
mutation snapshot and, on append, extends the grown kind's matrices and
drops its explanations — a task append must not touch job-level work,
and vice versa.  In-place mutation moves the kind's epoch and wipes
everything.  The acceptance bar: a warm session that
lived through appends answers bit-identically to a cold session over a
freshly-built log with the same records.
"""

import pytest

from repro.core.api import PerfXplainSession
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.core.queries import why_slower_despite_same_num_instances
from repro.logs.records import JobRecord
from repro.logs.store import ExecutionLog
from repro.workloads.grid import build_experiment_log, tiny_grid


def same_job_task_query():
    """A task-level query lenient enough for truncated tiny-grid logs.

    The paper's WhyLastTaskFaster additionally pins same-host and
    similar-input atoms that a 10-job subset cannot always satisfy.
    """
    return PXQLQuery(
        entity=EntityKind.TASK,
        despite=Predicate.of(Comparison("job_id_isSame", Operator.EQ, "T")),
        observed=Predicate.of(Comparison("duration_compare", Operator.EQ, "GT")),
        expected=Predicate.of(Comparison("duration_compare", Operator.EQ, "SIM")),
        name="WhySameJobTaskSlower",
    )


@pytest.fixture(scope="module")
def full_log():
    """The complete 16-job tiny-grid log the growth tests split up."""
    return build_experiment_log(tiny_grid(), seed=11)


def split_log(full, num_jobs):
    """A log holding the first ``num_jobs`` jobs (tasks included), plus
    the held-back remainder as ``(jobs, tasks)`` batches to append."""
    head_ids = {job.job_id for job in full.jobs[:num_jobs]}
    log = ExecutionLog(
        jobs=full.jobs[:num_jobs],
        tasks=[task for task in full.tasks if task.job_id in head_ids],
    )
    tail_jobs = full.jobs[num_jobs:]
    tail_tasks = [task for task in full.tasks if task.job_id not in head_ids]
    return log, tail_jobs, tail_tasks


class TestAppendInvalidation:
    def test_task_append_preserves_job_caches(self, full_log):
        log, tail_jobs, tail_tasks = split_log(full_log, 12)
        session = PerfXplainSession(log, seed=3)
        job_matrix = session.training_matrix(why_slower_despite_same_num_instances())
        task_before = session.training_matrix(same_job_task_query())
        log.extend(tasks=tail_tasks[:3])
        # The next query syncs: only the task kind was touched.
        assert (
            session.training_matrix(why_slower_despite_same_num_instances())
            is job_matrix
        )
        # The stale task matrix is held as its related-pair stream alone.
        task_key = session._clause_signature(same_job_task_query())
        assert session._matrix_cache[task_key] is task_before.stream
        assert session.invalidation_stats() == {
            "append_invalidations": 1,
            "full_invalidations": 0,
        }
        # The task-level matrix stayed cached (a hit) and was extended over
        # the grown log: a new matrix, no further miss.
        task_matrix = session.training_matrix(same_job_task_query())
        assert task_matrix is not task_before
        assert task_matrix.stream.count == len(log.tasks)
        assert session.cache_stats()["matrices"].misses == 2

    def test_job_append_drops_job_caches(self, full_log):
        log, tail_jobs, _ = split_log(full_log, 12)
        session = PerfXplainSession(log, seed=3)
        job_query = why_slower_despite_same_num_instances()
        before = session.training_matrix(job_query)
        log.extend(jobs=tail_jobs)
        after = session.training_matrix(job_query)
        assert after is not before
        assert session.invalidation_stats()["append_invalidations"] == 1
        # New jobs are now candidates: the matrix saw the grown log.
        assert len(log.jobs) == 16

    def test_replace_moves_epoch_and_wipes_everything(self, full_log):
        log, _, _ = split_log(full_log, 12)
        session = PerfXplainSession(log, seed=3)
        job_query = why_slower_despite_same_num_instances()
        before = session.training_matrix(job_query)
        victim = log.jobs[0]
        log.replace_job(
            JobRecord(
                job_id=victim.job_id,
                features=dict(victim.features),
                duration=victim.duration * 2,
            )
        )
        after = session.training_matrix(job_query)
        assert after is not before
        assert session.invalidation_stats() == {
            "append_invalidations": 0,
            "full_invalidations": 1,
        }

    def test_unchanged_log_never_invalidates(self, full_log):
        log, _, _ = split_log(full_log, 12)
        session = PerfXplainSession(log, seed=3)
        query = why_slower_despite_same_num_instances()
        first = session.explain(query)
        second = session.explain(query)
        assert second is first  # explanation cache hit
        assert session.invalidation_stats() == {
            "append_invalidations": 0,
            "full_invalidations": 0,
        }


class TestWarmColdEquivalence:
    def test_warm_session_matches_cold_after_appends(self, full_log):
        log, tail_jobs, tail_tasks = split_log(full_log, 10)
        warm = PerfXplainSession(log, seed=3)
        job_query = why_slower_despite_same_num_instances()
        task_query = same_job_task_query()
        # Interleave queries with growth so every cache gets populated,
        # invalidated and repopulated at least once.
        warm.explain(job_query)
        warm.explain(task_query)
        log.extend(jobs=tail_jobs[:3], tasks=[
            task for task in tail_tasks
            if task.job_id in {job.job_id for job in tail_jobs[:3]}
        ])
        warm.explain(job_query)
        log.extend(jobs=tail_jobs[3:], tasks=[
            task for task in tail_tasks
            if task.job_id in {job.job_id for job in tail_jobs[3:]}
        ])
        warm_job = warm.explain(job_query)
        warm_task = warm.explain(task_query)
        warm_pair = warm.find_pair(job_query)

        cold_log = ExecutionLog(jobs=list(full_log.jobs), tasks=list(full_log.tasks))
        cold = PerfXplainSession(cold_log, seed=3)
        assert warm.find_pair(job_query) == cold.find_pair(job_query)
        assert warm_pair == cold.find_pair(job_query)
        assert warm_job.to_dict() == cold.explain(job_query).to_dict()
        assert warm_task.to_dict() == cold.explain(task_query).to_dict()

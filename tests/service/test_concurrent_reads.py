"""Concurrent reads against one log: identity, overlap, linearisability.

The reader-writer redesign must deliver three things at once, and each
gets its own proof here:

* **Identity** — responses from a multi-threaded hammer against one log
  are bit-identical to a fresh-session sequential oracle.
* **Overlap** — two queries genuinely hold the read side together
  (a barrier inside two instrumented techniques passes only if both are
  in their critical sections simultaneously).
* **Linearisability under appends** — while a log grows, every racing
  read observes either the complete pre-append state or the complete
  post-append state, never a torn mixture, and reads issued after the
  append completes observe the post state.
"""

import random
import threading

import pytest

from repro.core.api import PerfXplainSession
from repro.core.explanation import Explanation
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.registry import register_explainer, unregister_explainer
from repro.logs.store import ExecutionLog
from repro.service import (
    AppendRequest,
    AppendResponse,
    LogCatalog,
    PerfXplainService,
    QueryRequest,
    QueryResponse,
)
from repro.workloads.grid import build_experiment_log, tiny_grid

WHY_SLOWER = """
    FOR JOBS ?, ?
    DESPITE numinstances_isSame = T AND pig_script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""

WHY_SLOWER_LOOSE = """
    FOR JOBS ?, ?
    DESPITE pig_script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""

WHY_LAST_TASK_FASTER = """
    FOR TASKS ?, ?
    DESPITE job_id_isSame = T AND task_type_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


def _comparable(response):
    assert isinstance(response, QueryResponse), response
    entry = response.entry
    assert entry.explanation is not None
    return (
        response.log,
        entry.query,
        entry.first_id,
        entry.second_id,
        entry.technique,
        entry.width,
        entry.explanation.to_dict(),
    )


def _oracle_answer(log, request):
    """What a direct synchronous fresh-session call returns for a request."""
    session = PerfXplainSession(log, seed=0)
    resolved = session.resolve(request.query)
    explanation = session.explain(
        resolved, width=request.width, technique=request.technique,
        auto_despite=request.auto_despite,
    )
    return (
        request.log,
        str(resolved),
        resolved.first_id,
        resolved.second_id,
        explanation.technique,
        explanation.width,
        explanation.to_dict(),
    )


class TestReadIdentity:
    """Hammered concurrent reads are bit-identical to the oracle."""

    NUM_THREADS = 6
    REQUESTS_PER_THREAD = 10

    def _request_mix(self):
        mix = []
        for text in (WHY_SLOWER, WHY_SLOWER_LOOSE, WHY_LAST_TASK_FASTER):
            for width in (1, 2):
                mix.append(QueryRequest(log="tiny", query=text, width=width))
        for technique in ("ruleofthumb", "simbutdiff"):
            mix.append(
                QueryRequest(log="tiny", query=WHY_SLOWER, width=2,
                             technique=technique)
            )
        return mix

    def test_concurrent_reads_equal_sequential_oracle(self, tiny_log):
        mix = self._request_mix()
        oracle = {
            request.canonical_key(): _oracle_answer(tiny_log, request)
            for request in mix
        }
        catalog = LogCatalog()
        catalog.register("tiny", tiny_log)
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        with PerfXplainService(catalog, max_workers=6) as service:
            start = threading.Barrier(self.NUM_THREADS, timeout=30.0)

            def hammer(thread_index: int) -> None:
                try:
                    rng = random.Random(1000 + thread_index)
                    picks = [
                        rng.choice(mix) for _ in range(self.REQUESTS_PER_THREAD)
                    ]
                    start.wait()  # maximise racing on cold caches
                    results[thread_index] = [
                        (request.canonical_key(), service.execute(request))
                        for request in picks
                    ]
                except BaseException as error:  # pragma: no cover - diagnostic
                    errors.append(error)

            threads = [
                threading.Thread(target=hammer, args=(index,))
                for index in range(self.NUM_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        answered = 0
        for responses in results.values():
            for key, response in responses:
                assert _comparable(response) == oracle[key]
                answered += 1
        assert answered == self.NUM_THREADS * self.REQUESTS_PER_THREAD
        # The cold burst raced on shared keys; compute-once must have
        # collapsed at least some of them into piggybacked waits.
        described = catalog.describe()["tiny"]
        assert described["concurrency"]["leads"] >= 1


class _BarrierExplainer:
    """Instrumented technique: blocks until its partner is also inside."""

    #: Shared across both registered techniques; re-armed per test.
    barrier: "threading.Barrier | None" = None
    name = "Barrier"

    def explain(self, log, query, schema=None, width=None):
        assert self.barrier is not None
        self.barrier.wait()  # raises BrokenBarrierError on timeout
        because = Predicate.of(Comparison("pig_script_isSame", Operator.EQ, "T"))
        return Explanation(because=because, technique=self.name)


class _BarrierExplainerTwin(_BarrierExplainer):
    name = "BarrierTwin"


@pytest.fixture()
def barrier_techniques():
    """Two distinct barrier techniques sharing one two-party barrier.

    Distinct names mean distinct per-technique locks, so only the
    per-log lock decides whether the two explains can be inside together.
    """
    register_explainer("barrier-a", _BarrierExplainer)
    register_explainer("barrier-b", _BarrierExplainerTwin)
    yield
    unregister_explainer("barrier-a")
    unregister_explainer("barrier-b")
    _BarrierExplainer.barrier = None


def _race_barrier_queries(service):
    requests = [
        QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, technique=name)
        for name in ("barrier-a", "barrier-b")
    ]
    futures = [service.submit(request) for request in requests]
    return [future.result() for future in futures]


class TestReadOverlap:
    def test_two_reads_hold_the_lock_together(self, catalog, barrier_techniques):
        # Passes only if both explains are inside the per-log critical
        # section at the same time — the barrier's second party never
        # arrives under mutual exclusion.
        _BarrierExplainer.barrier = threading.Barrier(2, timeout=20.0)
        with PerfXplainService(catalog, max_workers=4) as service:
            responses = _race_barrier_queries(service)
        for response in responses:
            assert isinstance(response, QueryResponse), response


class TestAppendLinearisability:
    HEAD_JOBS = 12
    NUM_READERS = 4

    @pytest.fixture(scope="class")
    def full_log(self):
        return build_experiment_log(tiny_grid(), seed=11)

    @staticmethod
    def _split(full, num_jobs):
        head_ids = {job.job_id for job in full.jobs[:num_jobs]}
        head = ExecutionLog(
            jobs=list(full.jobs[:num_jobs]),
            tasks=[task for task in full.tasks if task.job_id in head_ids],
        )
        tail_jobs = list(full.jobs[num_jobs:])
        tail_tasks = [task for task in full.tasks if task.job_id not in head_ids]
        return head, tail_jobs, tail_tasks

    def test_reads_racing_one_append_see_pre_or_post_state(self, full_log):
        served, tail_jobs, tail_tasks = self._split(full_log, self.HEAD_JOBS)
        pre_log, _, _ = self._split(full_log, self.HEAD_JOBS)
        post_log = ExecutionLog(
            jobs=list(full_log.jobs), tasks=list(full_log.tasks)
        )
        request = QueryRequest(log="grow", query=WHY_SLOWER_LOOSE, width=2)
        pre_oracle = _oracle_answer(pre_log, request)
        post_oracle = _oracle_answer(post_log, request)

        catalog = LogCatalog()
        catalog.register("grow", served)
        append_done = threading.Event()
        observed: list[tuple] = []
        observed_lock = threading.Lock()
        errors: list[BaseException] = []

        with PerfXplainService(catalog, max_workers=6) as service:
            # Warm the pre-state so readers race the append itself, not
            # the first-load path.
            assert _comparable(service.execute(request)) == pre_oracle

            def reader() -> None:
                try:
                    while True:
                        finished = append_done.is_set()
                        response = service.execute(request)
                        with observed_lock:
                            observed.append(_comparable(response))
                        if finished:
                            return
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            def writer() -> None:
                try:
                    response = service.execute(
                        AppendRequest(
                            log="grow",
                            jobs=tuple(tail_jobs),
                            tasks=tuple(tail_tasks),
                        )
                    )
                    assert isinstance(response, AppendResponse), response
                finally:
                    append_done.set()

            threads = [
                threading.Thread(target=reader)
                for _ in range(self.NUM_READERS)
            ]
            writer_thread = threading.Thread(target=writer)
            for thread in threads:
                thread.start()
            writer_thread.start()
            writer_thread.join(timeout=120.0)
            for thread in threads:
                thread.join(timeout=120.0)

            assert not errors
            assert observed
            # Every racing read saw exactly the pre or the post state —
            # never a torn mixture of old pair and new matrix (or vice
            # versa), which would match neither oracle.
            for answer in observed:
                assert answer in (pre_oracle, post_oracle)
            # With the race over (nothing in flight to piggyback on), the
            # service's answer is the post state, bit-identical to a cold
            # session over the fully-grown log.
            assert _comparable(service.execute(request)) == post_oracle

"""Tests for the concurrent query service: determinism, dedup, errors."""

import random
import threading

import pytest

from repro.core.api import PerfXplainSession
from repro.logs.records import JobRecord
from repro.logs.store import ExecutionLog
from repro.service import (
    BatchRequest,
    BatchResponse,
    ErrorCode,
    ErrorResponse,
    EvaluateRequest,
    EvaluateResponse,
    LogCatalog,
    PerfXplainService,
    QueryRequest,
    QueryResponse,
)

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
    """The deterministic part of a response (elapsed_ms necessarily varies)."""
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
    """What a direct synchronous session call returns for a request."""
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


class TestSingleQuery:
    def test_response_bit_identical_to_direct_session_call(self, service, tiny_log):
        request = QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, width=2)
        response = service.execute(request)
        assert _comparable(response) == _oracle_answer(tiny_log, request)

    def test_elapsed_ms_recorded(self, service):
        response = service.execute(QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE))
        assert response.entry.elapsed_ms is not None
        assert response.entry.elapsed_ms > 0.0

    def test_unknown_log(self, service):
        response = service.execute(QueryRequest(log="absent", query=WHY_SLOWER_LOOSE))
        assert isinstance(response, ErrorResponse)
        assert response.code == ErrorCode.UNKNOWN_LOG

    def test_bad_protocol_version(self, service):
        request = QueryRequest(
            log="tiny", query=WHY_SLOWER_LOOSE, protocol_version=99
        )
        response = service.execute(request)
        assert isinstance(response, ErrorResponse)
        assert response.code == ErrorCode.UNSUPPORTED_PROTOCOL

    def test_unparseable_query(self, service):
        response = service.execute(QueryRequest(log="tiny", query="NOT PXQL AT ALL"))
        assert isinstance(response, ErrorResponse)
        assert response.code == ErrorCode.INVALID_QUERY

    def test_unknown_technique(self, service):
        request = QueryRequest(
            log="tiny", query=WHY_SLOWER_LOOSE, technique="no-such-technique"
        )
        response = service.execute(request)
        assert isinstance(response, ErrorResponse)
        assert response.code == ErrorCode.UNKNOWN_TECHNIQUE

    def test_finite_over_infinite_duration_is_answered(self):
        """A ``?`` question whose first OBSERVED pair sets a finite duration
        over an infinite one (a zero duration ratio, which ``math.log``
        rejects) is answered: the pair ranks infinite, like its reverse,
        and the first of the tied pairs wins."""
        log = ExecutionLog(jobs=[
            JobRecord(job_id="fast", features={"script": "a.pig", "size": 1}, duration=2.0),
            JobRecord(
                job_id="stuck", features={"script": "a.pig", "size": 2},
                duration=float("inf"),
            ),
        ])
        catalog = LogCatalog()
        catalog.register("two", log)
        query = """
            FOR JOBS ?, ?
            DESPITE script_isSame = T
            OBSERVED duration_compare = SIM
            EXPECTED duration_compare = GT
        """
        with PerfXplainService(catalog) as service:
            response = service.execute(QueryRequest(log="two", query=query, width=1))
        assert isinstance(response, QueryResponse), response
        assert (response.entry.first_id, response.entry.second_id) == ("fast", "stuck")

    def test_closed_service_refuses_work(self, catalog):
        service = PerfXplainService(catalog)
        service.close()
        response = service.execute(QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE))
        assert isinstance(response, ErrorResponse)


class TestBatchExecution:
    def test_responses_in_request_order(self, service, tiny_log):
        requests = tuple(
            QueryRequest(log="tiny", query=text, width=width)
            for text in (WHY_SLOWER_LOOSE, WHY_SLOWER, WHY_LAST_TASK_FASTER)
            for width in (1, 2)
        )
        response = service.execute_batch(BatchRequest(requests=requests))
        assert isinstance(response, BatchResponse)
        assert len(response.responses) == len(requests)
        for request, item in zip(requests, response.responses):
            assert _comparable(item) == _oracle_answer(tiny_log, request)

    def test_failures_embedded_per_item(self, service):
        requests = (
            QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, width=2),
            QueryRequest(log="absent", query=WHY_SLOWER_LOOSE),
        )
        response = service.execute_batch(BatchRequest(requests=requests))
        assert isinstance(response.responses[0], QueryResponse)
        assert isinstance(response.responses[1], ErrorResponse)
        assert not response.ok
        assert len(response.failures) == 1

    def test_identical_inflight_queries_deduplicated(self, service):
        requests = tuple(
            QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, width=2)
            for _ in range(16)
        )
        response = service.execute_batch(BatchRequest(requests=requests))
        assert response.ok
        stats = service.stats()
        # All 16 are identical: at most a handful can slip past the dedup
        # window (one per pool slot), the rest must piggyback.
        assert stats["deduplicated"] >= 8
        assert stats["executed"] + stats["deduplicated"] == 16

    def test_stats_expose_per_log_cache_counters(self, service):
        service.execute(QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, width=2))
        stats = service.stats()
        assert stats["logs"]["tiny"]["loaded"] is True
        assert stats["logs"]["tiny"]["cache_stats"]["explanations"]["misses"] >= 1


class TestEvaluate:
    def test_evaluate_matches_direct_harness(self, service, tiny_log):
        request = EvaluateRequest(
            log="tiny", query=WHY_SLOWER, widths=(0, 2), repetitions=2, seed=0,
            techniques=("perfxplain",),
        )
        response = service.execute(request)
        assert isinstance(response, EvaluateResponse)
        assert response.first_id and response.second_id
        assert "PerfXplain" in response.results
        assert "precision_mean" in response.results["PerfXplain"]["2"]

    def test_evaluate_unknown_log(self, service):
        request = EvaluateRequest(log="absent", query=WHY_SLOWER)
        response = service.execute(request)
        assert isinstance(response, ErrorResponse)
        assert response.code == ErrorCode.UNKNOWN_LOG


class TestConcurrencyOracle:
    """Hammer one service from N threads; responses must equal the oracle."""

    NUM_THREADS = 8
    REQUESTS_PER_THREAD = 12

    def _request_mix(self):
        """A deterministic interleaved mix of repeated and novel queries."""
        mix = []
        for text in (WHY_SLOWER_LOOSE, WHY_SLOWER, WHY_LAST_TASK_FASTER):
            for width in (1, 2, 3):
                mix.append(QueryRequest(log="tiny", query=text, width=width))
        for technique in ("ruleofthumb", "simbutdiff"):
            mix.append(
                QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, width=2,
                             technique=technique)
            )
        return mix

    def test_hammered_service_equals_sequential_oracle(self, tiny_log):
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
            def hammer(thread_index: int) -> None:
                try:
                    rng = random.Random(thread_index)
                    picks = [
                        rng.choice(mix) for _ in range(self.REQUESTS_PER_THREAD)
                    ]
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
        for thread_index in range(self.NUM_THREADS):
            for key, response in results[thread_index]:
                assert _comparable(response) == oracle[key]
                answered += 1
        assert answered == self.NUM_THREADS * self.REQUESTS_PER_THREAD

    def test_two_logs_never_share_session_state(self, tiny_log):
        """Two catalog entries over the *same* records stay independent."""
        catalog = LogCatalog()
        catalog.register("first", tiny_log)
        catalog.register("second", tiny_log)
        with PerfXplainService(catalog) as service:
            service.execute(QueryRequest(log="first", query=WHY_SLOWER_LOOSE, width=2))
            snapshot = service.stats()["logs"]
        assert snapshot["first"]["cache_stats"]["explanations"]["size"] == 1
        assert snapshot["second"]["cache_stats"] is None  # session never created


class TestLifecycle:
    def test_context_manager_closes(self, catalog):
        with PerfXplainService(catalog) as service:
            assert service.execute(
                QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE)
            ).ok
        response = service.execute(QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE))
        assert isinstance(response, ErrorResponse)

    def test_invalid_worker_count_rejected(self, catalog):
        with pytest.raises(ValueError):
            PerfXplainService(catalog, max_workers=0)

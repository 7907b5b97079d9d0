"""Tests for latency recording and the service metrics surface."""

import pytest

from repro.service import (
    AppendRequest,
    BatchRequest,
    PerfXplainHTTPServer,
    QueryRequest,
    ServiceClient,
)
from repro.service.metrics import LatencyRecorder, nearest_rank

WHY_SLOWER_LOOSE = """
    FOR JOBS ?, ?
    DESPITE pig_script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


class TestNearestRank:
    def test_known_percentiles(self):
        samples = [float(value) for value in range(1, 101)]  # 1..100
        assert nearest_rank(samples, 50) == 50.0
        assert nearest_rank(samples, 95) == 95.0
        assert nearest_rank(samples, 99) == 99.0

    def test_single_sample_is_every_percentile(self):
        assert nearest_rank([7.0], 50) == 7.0
        assert nearest_rank([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)


class TestLatencyRecorder:
    def test_snapshot_reports_percentiles_per_kind(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record("query", float(value))
        recorder.record("append", 3.0)
        snapshot = recorder.snapshot()
        assert set(snapshot) == {"append", "query"}
        query = snapshot["query"]
        assert query["count"] == 100
        assert query["window"] == 100
        assert query["p50_ms"] == 50.0
        assert query["p95_ms"] == 95.0
        assert query["p99_ms"] == 99.0
        assert query["max_ms"] == 100.0
        assert snapshot["append"]["p50_ms"] == 3.0

    def test_ring_keeps_only_the_window(self):
        recorder = LatencyRecorder(window=4)
        for value in (100.0, 1.0, 2.0, 3.0, 4.0):
            recorder.record("query", value)
        snapshot = recorder.snapshot()["query"]
        assert snapshot["count"] == 5  # all-time
        assert snapshot["window"] == 4  # the 100.0 fell off the ring
        assert snapshot["max_ms"] == 4.0

    def test_empty_recorder_snapshots_empty(self):
        assert LatencyRecorder().snapshot() == {}

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder(window=0)

    def test_preseeded_kinds_snapshot_with_null_percentiles(self):
        recorder = LatencyRecorder(kinds=("diff", "query"))
        snapshot = recorder.snapshot()
        assert set(snapshot) == {"diff", "query"}
        for entry in snapshot.values():
            assert entry["count"] == 0
            assert entry["window"] == 0
            assert entry["p50_ms"] is None
            assert entry["p95_ms"] is None
            assert entry["p99_ms"] is None
            assert entry["max_ms"] is None
        recorder.record("diff", 12.0)
        diff = recorder.snapshot()["diff"]
        assert diff["count"] == 1
        assert diff["p50_ms"] == 12.0

    def test_unknown_kind_recorded_without_raising(self):
        recorder = LatencyRecorder(kinds=("query",))
        recorder.record("totally-new-request-type", 5.0)
        snapshot = recorder.snapshot()
        assert snapshot["totally-new-request-type"]["count"] == 1
        assert snapshot["totally-new-request-type"]["p99_ms"] == 5.0


class TestServiceMetrics:
    def test_metrics_cover_every_counter_family(self, service):
        query = QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, width=2)
        service.execute(query)
        service.execute(BatchRequest(requests=(query,)))
        metrics = service.metrics()

        latency = metrics["latency_ms"]
        # Every request kind the service can execute is pre-listed, even
        # before its first sample (diff/evaluate/append here).
        assert set(latency) >= {"append", "batch", "diff", "evaluate", "query"}
        for entry in latency.values():
            if entry["window"] == 0:
                assert entry["count"] == 0
                assert entry["p50_ms"] is None
                continue
            assert entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
            assert entry["count"] >= 1
        assert latency["query"]["count"] >= 1

        assert metrics["executed"] >= 1
        assert metrics["deduplicated"] >= 0
        assert metrics["max_workers"] == service.max_workers

        pool = metrics["shard_pool"]
        assert {"forks", "reuses", "max_concurrent_generations"} <= set(pool)

        tiny = metrics["logs"]["tiny"]
        assert tiny["cache_stats"]["explanations"]["misses"] >= 1
        assert "invalidations" in tiny
        assert tiny["concurrency"]["leads"] >= 1
        assert tiny["concurrency"]["in_flight"] == 0

    def test_append_latency_recorded(self):
        from repro.logs.records import JobRecord
        from repro.logs.store import ExecutionLog
        from repro.service import LogCatalog, PerfXplainService

        log = ExecutionLog(
            jobs=[
                JobRecord(
                    job_id=f"seed_{index}",
                    features={"pig_script": "a.pig", "numinstances": 2},
                    duration=10.0 + index,
                )
                for index in range(3)
            ]
        )
        catalog = LogCatalog()
        catalog.register("grow", log)
        with PerfXplainService(catalog, max_workers=2) as service:
            service.execute(
                AppendRequest(
                    log="grow",
                    jobs=(
                        JobRecord(
                            job_id="metrics_appended_0",
                            features={"pig_script": "extra.pig", "numinstances": 2},
                            duration=12.5,
                        ),
                    ),
                )
            )
            assert "append" in service.metrics()["latency_ms"]


class TestMetricsOverHTTP:
    def test_get_v1_metrics_and_health_workers(self, service):
        with PerfXplainHTTPServer(service, port=0) as server:
            client = ServiceClient(server.url)
            client.explain("tiny", WHY_SLOWER_LOOSE, width=2)
            metrics = client.metrics()
            assert "latency_ms" in metrics
            assert "query" in metrics["latency_ms"]
            assert metrics["protocol_version"]
            health = client.health()
            assert health["status"] == "ok"
            assert health["workers"] == service.max_workers

"""Concurrent reads to ONE log vs. the serialized (mutex) baseline.

PR 9's tentpole: read traffic to a single log no longer queues on a
per-log mutex.  Three claims, each asserted here:

* **Throughput** — four service threads running a mixed warm/cold batch
  against one log beat the same service with reads patched onto the
  exclusive write side of the per-log lock (the old one-query-at-a-time
  behaviour, :func:`_write_side`) by a wall-clock floor, with
  every response bit-identical between the two modes.  The cold queries
  shard their candidate filtering to worker processes
  (``pair_workers``), so reader overlap buys real parallelism: while one
  thread waits on its shards, others answer warm hits that the old mutex
  would have queued behind the cold query (head-of-line blocking).
* **Shard overlap** — two threads driving sharded-pair generations hold
  the (formerly global-lock-serialised) shard pool *together*: a barrier
  between the two in-flight generations passes, and the pool's
  ``max_concurrent_generations`` counter records the overlap.
* **Pool reuse** — repeat sharded queries against an unchanged log skip
  the per-query process-pool spin-up: the ``reuses`` counter moves, the
  ``forks`` counter does not.

The wall-clock floor is hardware-gated like the other sharding
benchmarks: identity and counter assertions always run, but a one-core
container cannot demonstrate a parallel speedup, so the floor is skipped
there (CI precedent: ``test_large_log_throughput.py``).
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.core.api import PerfXplain
from repro.core.examples import pair_kernel_for
from repro.core.explainer import PerfXplainConfig
from repro.core.features import FeatureKind, FeatureSchema, infer_schema
from repro.core.pairkernel import blocking_group_indices
from repro.core.pairshard import ShardPool, _fork_context, default_shard_pool
from repro.core.pxql.parser import parse_query
from repro.logs.records import TaskRecord
from repro.logs.store import ExecutionLog
from repro.service import (
    BatchRequest,
    LogCatalog,
    PerfXplainService,
    QueryRequest,
    QueryResponse,
)

TASKS = 20_000
GROUP_SIZE = 10
PAIR_WORKERS = 2
SERVICE_THREADS = 4

QUERY_STRICT = """
    FOR TASKS ?, ?
    DESPITE pig_script_isSame = T AND operator_isSame = T AND inputsize_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""

QUERY_LOOSE = """
    FOR TASKS ?, ?
    DESPITE pig_script_isSame = T AND operator_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


def _speedup_floor() -> float | None:
    """The asserted concurrent-read speedup, or ``None`` if hardware can't."""
    cores = os.cpu_count() or 1
    if os.environ.get("CI"):
        return 1.3 if cores >= 2 else None
    return 2.0 if cores >= 4 else None


def _make_tasks(count: int) -> list[TaskRecord]:
    """``count`` tasks in blocking groups of ~``GROUP_SIZE`` noisy replicas."""
    rng = random.Random(0)
    hosts = [f"host-{index}" for index in range(40)]
    operators = ("MAP", "REDUCE", "FILTER", "JOIN")
    tasks = []
    for index in range(count):
        group = index // GROUP_SIZE
        features = {
            "pig_script": f"script-{group % 97}.pig",
            "operator": operators[group % 4],
            "host": hosts[rng.randrange(40)],
            "inputsize": 1000.0 * (1 + group % 13) * (1.0 + rng.gauss(0.0, 0.01)),
            "memory": float(rng.choice([512, 1024, 2048])),
        }
        tasks.append(
            TaskRecord(
                task_id=f"t{index}",
                job_id=f"j{group}",
                features=features,
                duration=10.0 * (1 + group % 7) * (1.0 + rng.gauss(0.0, 0.08)),
            )
        )
    return tasks


@pytest.fixture(scope="module")
def read_log():
    return ExecutionLog(tasks=_make_tasks(TASKS))


@pytest.fixture(scope="module")
def read_config():
    return PerfXplainConfig(sample_size=400, pair_workers=PAIR_WORKERS)


def _request_mix() -> list[QueryRequest]:
    """Mixed warm/cold traffic against ONE log.

    Two clause signatures (two cold matrix builds) fanned into several
    widths (cold explanations over a warm matrix), each shape repeated
    (warm cache hits / in-flight dedup) — interleaved so warm requests
    land behind cold ones, the head-of-line pattern the mutex punished.
    """
    shapes = [
        QueryRequest(log="live", query=QUERY_STRICT, width=1),
        QueryRequest(log="live", query=QUERY_LOOSE, width=1),
        QueryRequest(log="live", query=QUERY_STRICT, width=2),
        QueryRequest(log="live", query=QUERY_LOOSE, width=2),
        QueryRequest(log="live", query=QUERY_STRICT, width=3),
        QueryRequest(log="live", query=QUERY_LOOSE, width=3),
    ]
    mix: list[QueryRequest] = []
    for _ in range(3):
        mix.extend(shapes)
    return mix


def _comparable(response):
    assert isinstance(response, QueryResponse), response
    entry = response.entry
    return (
        entry.query,
        entry.first_id,
        entry.second_id,
        entry.technique,
        entry.width,
        entry.explanation.to_dict(),
    )


def _write_side(service, name):
    """A read path that takes the per-log write lock: the sequential
    baseline, patched over :meth:`PerfXplainService._read_side`."""
    return service.catalog.lock(name).write_locked()


def _run_batch(log, config, mix):
    catalog = LogCatalog(config=config, seed=0)
    catalog.register("live", log)
    with PerfXplainService(catalog, max_workers=SERVICE_THREADS) as service:
        start = time.perf_counter()
        response = service.execute_batch(BatchRequest(requests=tuple(mix)))
        elapsed = time.perf_counter() - start
        metrics = service.metrics()
    return response, elapsed, metrics


def test_concurrent_reads_beat_serialized_baseline(
    benchmark, read_log, read_config, monkeypatch
):
    mix = _request_mix()

    # Warm what both modes share — the log's cached record block and the
    # forked shard workers — so the timed phases compare lock disciplines,
    # not one-time block encoding or the first fork.
    warmup = PerfXplain(read_log, config=read_config, seed=0)
    warmup.explain(QUERY_STRICT, width=1)

    with monkeypatch.context() as patched:
        patched.setattr(PerfXplainService, "_read_side", _write_side)
        serialized, serialized_seconds, _ = _run_batch(read_log, read_config, mix)

    def run_concurrent():
        return _run_batch(read_log, read_config, mix)

    concurrent, concurrent_seconds, metrics = benchmark.pedantic(
        run_concurrent, rounds=1, iterations=1
    )

    # Bit-identity: the reader-writer mode answers exactly what the
    # serialized (sequential-oracle) mode answers, request for request.
    assert concurrent.ok and serialized.ok
    assert len(concurrent.responses) == len(mix)
    for old, new in zip(serialized.responses, concurrent.responses):
        assert _comparable(new) == _comparable(old)

    pool_stats = metrics["shard_pool"]
    latency = metrics["latency_ms"].get("query", {})
    speedup = serialized_seconds / concurrent_seconds
    cores = os.cpu_count() or 1
    floor = _speedup_floor()

    benchmark.extra_info["requests"] = len(mix)
    benchmark.extra_info["tasks"] = TASKS
    benchmark.extra_info["service_threads"] = SERVICE_THREADS
    benchmark.extra_info["serialized_seconds"] = round(serialized_seconds, 3)
    benchmark.extra_info["concurrent_seconds"] = round(concurrent_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["query_p99_ms"] = round(latency.get("p99_ms", 0.0), 1)
    benchmark.extra_info["pool_reuses"] = pool_stats["reuses"]

    print(f"\nConcurrent reads, one {TASKS}-task log, {len(mix)} requests:")
    print(f"  serialized (mutex) : {serialized_seconds:.2f} s")
    print(f"  reader-writer      : {concurrent_seconds:.2f} s")
    print(f"  speedup            : {speedup:.2f}x")
    print(f"  query p99          : {latency.get('p99_ms', 0.0):.0f} ms")
    if floor is None:
        print(f"  floor skipped      : only {cores} core(s) available")
        return
    assert speedup >= floor, (
        f"concurrent reads should be at least {floor}x faster than the "
        f"serialized baseline on {cores} cores (got {speedup:.2f}x)"
    )


@pytest.mark.skipif(
    _fork_context() is None, reason="requires the fork start method"
)
def test_sharded_generations_overlap_not_serialised(benchmark, read_log):
    """Two threads hold the shard pool together — no global-lock queueing."""
    query = parse_query(QUERY_STRICT)
    schema = infer_schema(read_log.tasks)
    kernel = pair_kernel_for(read_log, query, schema, PerfXplainConfig().pair_config)
    groups = blocking_group_indices(kernel.block, ["pig_script", "operator"])
    pool = ShardPool()
    both_inside = threading.Barrier(2, timeout=60.0)
    batch_counts: dict[int, int] = {}
    errors: list[BaseException] = []

    def generation(slot: int) -> None:
        try:
            from repro.core.pairshard import iter_evaluated_batches

            stream = iter_evaluated_batches(
                kernel, query, groups, None, 0,
                workers=PAIR_WORKERS, batch_size=256, pool=pool,
            )
            consumed = [next(stream)]
            both_inside.wait()  # both generations are mid-flight here
            consumed.extend(stream)
            batch_counts[slot] = len(consumed)
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    def run_overlapped():
        threads = [
            threading.Thread(target=generation, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)

    benchmark.pedantic(run_overlapped, rounds=1, iterations=1)
    stats = pool.stats()
    pool.shutdown()

    assert not errors
    assert batch_counts[0] == batch_counts[1] > 0
    assert stats["max_concurrent_generations"] >= 2, (
        "two sharded generations never overlapped — reads are still "
        "serialising on shared shard state"
    )
    assert stats["forks"] == 1  # the second generation joined, not re-forked
    benchmark.extra_info["max_concurrent_generations"] = stats[
        "max_concurrent_generations"
    ]


def test_repeat_sharded_queries_reuse_the_pool(benchmark, read_log, read_config):
    """Repeat queries on an unchanged log skip the pool spin-up."""
    if _fork_context() is None:  # pragma: no cover - non-POSIX platforms
        pytest.skip("requires the fork start method")
    before = default_shard_pool().stats()
    catalog = LogCatalog(config=read_config, seed=0)
    catalog.register("live", read_log)

    def run_repeats():
        # Two clause signatures: each pays its own sharded matrix build,
        # so the second proves the pool carried over between generations.
        with PerfXplainService(catalog, max_workers=2) as service:
            responses = [
                service.execute(QueryRequest(log="live", query=text, width=1))
                for text in (QUERY_STRICT, QUERY_LOOSE, QUERY_STRICT)
            ]
        return responses

    responses = benchmark.pedantic(run_repeats, rounds=1, iterations=1)
    assert all(isinstance(response, QueryResponse) for response in responses)
    after = default_shard_pool().stats()

    forks = after["forks"] - before["forks"]
    reuses = after["reuses"] - before["reuses"]
    benchmark.extra_info["forks"] = forks
    benchmark.extra_info["reuses"] = reuses
    print(f"\nShard-pool reuse over 3 repeat queries: forks={forks} reuses={reuses}")
    assert forks <= 1, "an unchanged log must not re-fork per query"
    assert reuses >= 1, "repeat sharded queries should reuse the live pool"

"""Tests for the persistent ShardPool: reuse, re-fork, overlap, teardown."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

# Randomized-log builder shared with the kernel differential suites.
from test_pair_pipeline_equivalence import random_log

from repro.core.examples import pair_kernel_for
from repro.core.features import infer_schema
from repro.core.pairkernel import blocking_group_indices
from repro.core.pairs import PairFeatureConfig
from repro.core.pairshard import (
    ShardPool,
    _fork_context,
    default_shard_pool,
    evaluate_candidate_batch,
    iter_evaluated_batches,
    shard_token,
)
from repro.core.pxql.parser import parse_query
from tests.logs.test_spill_cleanup import _session_members

fork_only = pytest.mark.skipif(
    _fork_context() is None, reason="requires the fork start method"
)

JOB_QUERY_TEXT = """
    FOR JOBS ?, ?
    DESPITE script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


def _kernel_and_groups(seed: int):
    log = random_log(seed)
    query = parse_query(JOB_QUERY_TEXT)
    schema = infer_schema(log.jobs)
    kernel = pair_kernel_for(log, query, schema, PairFeatureConfig())
    groups = blocking_group_indices(kernel.block, ["script"])
    return kernel, query, groups


def _serial_stream(kernel, query, groups):
    return [
        (firsts, seconds, bytes(observed))
        for firsts, seconds, observed in iter_evaluated_batches(
            kernel, query, groups, None, 0, workers=1, batch_size=8
        )
    ]


def _pooled_stream(pool, kernel, query, groups, workers=2):
    return [
        (firsts, seconds, bytes(observed))
        for firsts, seconds, observed in iter_evaluated_batches(
            kernel, query, groups, None, 0,
            workers=workers, batch_size=8, pool=pool,
        )
    ]


class TestShardToken:
    def test_same_kernel_same_token(self):
        kernel, _, _ = _kernel_and_groups(0)
        assert shard_token(kernel) == shard_token(kernel)

    def test_distinct_blocks_distinct_tokens(self):
        first, _, _ = _kernel_and_groups(0)
        second, _, _ = _kernel_and_groups(1)
        assert shard_token(first) != shard_token(second)

    def test_config_is_part_of_the_token(self):
        kernel, query, _ = _kernel_and_groups(0)
        log = random_log(0)
        schema = infer_schema(log.jobs)
        other = pair_kernel_for(
            log, query, schema, PairFeatureConfig(sim_threshold=0.42)
        )
        assert shard_token(kernel)[2] != shard_token(other)[2]


@fork_only
class TestShardPool:
    def test_pooled_stream_bit_identical_to_serial(self):
        kernel, query, groups = _kernel_and_groups(3)
        serial = _serial_stream(kernel, query, groups)
        assert serial, "the test log must produce related pairs"
        pool = ShardPool()
        try:
            assert _pooled_stream(pool, kernel, query, groups) == serial
        finally:
            pool.shutdown()

    def test_repeat_query_reuses_the_forked_workers(self):
        kernel, query, groups = _kernel_and_groups(3)
        pool = ShardPool()
        try:
            first = _pooled_stream(pool, kernel, query, groups)
            second = _pooled_stream(pool, kernel, query, groups)
            assert first == second
            stats = pool.stats()
            assert stats["forks"] == 1
            assert stats["reuses"] == 1
            assert stats["workers"] == 2
        finally:
            pool.shutdown()

    def test_new_kernel_triggers_a_refork(self):
        kernel_a, query, groups_a = _kernel_and_groups(3)
        kernel_b, _, groups_b = _kernel_and_groups(4)
        pool = ShardPool()
        try:
            _pooled_stream(pool, kernel_a, query, groups_a)
            assert _pooled_stream(pool, kernel_b, query, groups_b) == _serial_stream(
                kernel_b, query, groups_b
            )
            stats = pool.stats()
            assert stats["forks"] == 2
            assert stats["tokens"] == 2
            # ...and the first kernel is now served without a third fork.
            _pooled_stream(pool, kernel_a, query, groups_a)
            assert pool.stats()["forks"] == 2
        finally:
            pool.shutdown()

    def test_two_threads_shard_concurrently_on_one_pool(self):
        # The old module-global design serialised every sharded query on a
        # process-wide lock; the pool must let two generations overlap.
        kernel, query, groups = _kernel_and_groups(3)
        serial = _serial_stream(kernel, query, groups)
        pool = ShardPool()
        # Fork once up front so both threads reuse (no re-fork races the
        # barrier timing below).
        _pooled_stream(pool, kernel, query, groups)
        both_inside = threading.Barrier(2, timeout=30.0)
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def generation(slot: int) -> None:
            try:
                stream = iter_evaluated_batches(
                    kernel, query, groups, None, 0,
                    workers=2, batch_size=8, pool=pool,
                )
                collected = [next(stream)]  # prove the generation is live...
                both_inside.wait()  # ...while the other one is live too
                collected.extend(stream)
                results[slot] = [
                    (firsts, seconds, bytes(observed))
                    for firsts, seconds, observed in collected
                ]
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=generation, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert results[0] == serial
        assert results[1] == serial
        stats = pool.stats()
        assert stats["max_concurrent_generations"] >= 2
        assert stats["forks"] == 1
        pool.shutdown()

    def test_shutdown_then_reuse_reforks(self):
        kernel, query, groups = _kernel_and_groups(3)
        serial = _serial_stream(kernel, query, groups)
        pool = ShardPool()
        _pooled_stream(pool, kernel, query, groups)
        pool.shutdown()
        assert pool.stats()["workers"] == 0
        assert pool.stats()["tokens"] == 0
        assert _pooled_stream(pool, kernel, query, groups) == serial
        assert pool.stats()["forks"] == 2
        pool.shutdown()

    def test_default_pool_is_shared_and_alive(self):
        assert default_shard_pool() is default_shard_pool()

    def test_worker_rejects_invalid_counts(self):
        kernel, query, groups = _kernel_and_groups(3)
        pool = ShardPool()
        with pytest.raises(ValueError, match="workers"):
            list(pool.run(kernel, query, iter([]), workers=0))


class TestSerialPathUnchanged:
    def test_workers_one_never_touches_a_pool(self):
        kernel, query, groups = _kernel_and_groups(5)
        stream = list(
            iter_evaluated_batches(kernel, query, groups, None, 0, workers=1)
        )
        rebuilt = []
        for firsts, seconds in _candidates(kernel, groups):
            result = evaluate_candidate_batch(kernel, query, firsts, seconds)
            if result[0]:
                rebuilt.append(result)
        assert [
            (f, s, bytes(o)) for f, s, o in stream
        ] == [(f, s, bytes(o)) for f, s, o in rebuilt]


def _candidates(kernel, groups):
    from repro.core.pairkernel import iter_candidate_batches

    return iter_candidate_batches(kernel.block, groups, None, 0)


SRC = Path(__file__).resolve().parents[2] / "src"

#: One sharded generation over a spilling chunked log in which a worker
#: SIGKILLs itself on one chosen batch, then a second generation on the
#: same pool, then a third after both idle workers were killed, then a
#: shutdown after the new pool's idle workers were killed too, leaving part
#: of a result message in its result pipe.  Prints each stream's agreement
#: with the serial stream, the first generation's and the shutdown's wall
#: times and the pool's counters.
LOST_WORKER_SCRIPT = """
import json
import os
import random
import signal
import struct
import sys
import time

from repro.core import pairshard
from repro.core.examples import pair_kernel_for
from repro.core.features import infer_schema
from repro.core.pairkernel import blocking_group_indices, iter_candidate_batches
from repro.core.pairs import PairFeatureConfig
from repro.core.pxql.parser import parse_query
from repro.logs.records import TaskRecord
from repro.logs.store import ExecutionLog

rng = random.Random(5)
log = ExecutionLog()
for index in range(480):
    job = index // 24
    features = {
        "host": f"h{rng.randrange(6)}",
        "size": float(rng.choice([64, 128, 256])),
    }
    duration = 10.0 * (1 + job % 5) * rng.choice([1.0, 1.05, 3.0])
    log.add_task(TaskRecord(f"t{index}", f"j{job}", features, duration))
log.configure_blocks(chunk_rows=64, max_resident_chunks=20, spill_directory=sys.argv[1])
query = parse_query(
    "FOR TASKS ?, ? DESPITE host_isSame = T AND size_compare = SIM "
    "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM"
)
schema = infer_schema(log.tasks)
kernel = pair_kernel_for(log, query, schema, PairFeatureConfig())
groups = blocking_group_indices(kernel.block, ["host"])


def stream(workers, pool=None):
    batches = pairshard.iter_evaluated_batches(
        kernel, query, groups, None, 0, workers=workers, batch_size=64, pool=pool
    )
    return [(f, s, bytes(o)) for f, s, o in batches]


serial = stream(1)
firsts, seconds = list(iter_candidate_batches(kernel.block, groups, None, 0, 64))[5]
chosen = (firsts[0], seconds[0])
parent = os.getpid()
evaluate = pairshard.evaluate_candidate_batch


def dying(kernel, query, firsts, seconds):
    if os.getpid() != parent and (firsts[0], seconds[0]) == chosen:
        os.kill(os.getpid(), signal.SIGKILL)
    return evaluate(kernel, query, firsts, seconds)


pool = pairshard.ShardPool()
pairshard.evaluate_candidate_batch = dying
start = time.monotonic()
lost = stream(2, pool)
elapsed = time.monotonic() - start
pairshard.evaluate_candidate_batch = evaluate
after_loss = pool.stats()
again = stream(2, pool)
after_next = pool.stats()
# Workers killed while idle may die holding a queue lock the pool's
# teardown takes; the next generation must still re-fork and finish.
for process in pool._handle.processes:
    os.kill(process.pid, signal.SIGKILL)
    process.join()
idle = stream(2, pool)
after_idle = pool.stats()
# Nor may shutting down a pool whose workers died idle block, even when
# a worker killed mid-send left part of a result in the result pipe: the
# pool's result handler then waits for the rest forever.
handle = pool._handle
for process in handle.processes:
    os.kill(process.pid, signal.SIGKILL)
    process.join()
os.write(handle.pool._outqueue._writer.fileno(), struct.pack("!i", 1 << 20) + b"\\x80")
start = time.monotonic()
pool.shutdown()
shutdown_s = time.monotonic() - start
print(json.dumps({
    "batches": len(serial),
    "lost_equal": lost == serial,
    "again_equal": again == serial,
    "idle_equal": idle == serial,
    "elapsed": elapsed,
    "shutdown_s": shutdown_s,
    "after_loss": after_loss,
    "after_next": after_next,
    "after_idle": after_idle,
}))
"""


@fork_only
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="requires /proc")
def test_lost_worker_finishes_in_process_and_the_next_generation_reforks(tmp_path):
    spill = tmp_path / "spill"
    spill.mkdir()
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-c", LOST_WORKER_SCRIPT, str(spill)],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    assert process.returncode == 0, stderr
    report = json.loads(stdout.splitlines()[-1])
    assert report["batches"] > 5
    assert report["lost_equal"]
    assert report["elapsed"] < 30.0
    assert report["after_loss"]["lost_pools"] == 1
    assert report["after_loss"]["forks"] == 1
    assert report["again_equal"]
    assert report["after_next"]["forks"] == 2
    assert report["idle_equal"]
    assert report["after_idle"]["lost_pools"] == 2
    assert report["after_idle"]["forks"] == 3
    assert report["shutdown_s"] < 10.0

    deadline = time.monotonic() + 10.0
    while _session_members(process.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    leftover = _session_members(process.pid)
    for pid in leftover:
        os.kill(pid, signal.SIGKILL)
    assert leftover == []
    assert sorted(entry.name for entry in spill.iterdir()) == []

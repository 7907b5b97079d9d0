"""Pair-pipeline throughput: columnar kernels vs the dict reference path.

End-to-end training examples (``construct_training_matrix(...).examples``)
on a multi-thousand-task log — the dominant cost of answering a fresh
clause signature.  The columnar
pipeline (cached :class:`~repro.logs.chunkstore.RecordBlock`, vectorised clause
masks over batched candidate index pairs, column-at-a-time feature
derivation) is measured against the frozen pair-at-a-time dict path of
:mod:`tests.oracles.pairref`, which allocates a feature dict per candidate
pair.  Both paths share the hash-based candidate subsampling and the
exact-size balanced sampling, so the comparison isolates the columnar
re-layout — and the outputs are asserted *identical*, example by example.

The log replicates the small grid's task log with deterministic noise:
replicas keep their job/type/host (so blocking groups grow and the
quadratic candidate space actually bites, the regime the skew/straggler
literature motivates), input sizes jitter by ~1% (still SIM under the 10%
rule) and durations by ~8% (splitting GT from SIM labels).

Baseline numbers are recorded in CHANGES.md so later performance PRs have a
trajectory to beat.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.examples import construct_training_matrix
from repro.core.features import infer_schema
from repro.core.queries import why_last_task_faster
from repro.logs.records import TaskRecord
from repro.logs.store import ExecutionLog

from tests.oracles.pairref import construct_training_examples_reference

#: Required speedup.  Relaxed on shared CI runners, where a noisy neighbor
#: can skew either side of the wall-clock comparison.
SPEEDUP_FLOOR = 1.5 if os.environ.get("CI") else 3.0

#: Noisy task-log replicas appended per original task.  Replicas share the
#: original's job/type/host, so blocking-group sizes scale linearly and the
#: candidate pair space quadratically (~650k candidates at 13).
REPLICAS = 13

#: Relative noise on input sizes (stays SIM) and durations (splits labels).
INPUT_NOISE = 0.01
DURATION_NOISE = 0.08


def _expanded_task_log(base: ExecutionLog) -> ExecutionLog:
    rng = random.Random(0)
    log = ExecutionLog(jobs=list(base.jobs), tasks=list(base.tasks))
    for task in base.tasks:
        for replica in range(REPLICAS):
            features = dict(task.features)
            inputsize = features.get("inputsize")
            if isinstance(inputsize, (int, float)):
                features["inputsize"] = float(inputsize) * (
                    1.0 + rng.gauss(0.0, INPUT_NOISE)
                )
            log.add_task(
                TaskRecord(
                    task_id=f"{task.task_id}__r{replica}",
                    job_id=task.job_id,
                    features=features,
                    duration=task.duration * (1.0 + rng.gauss(0.0, DURATION_NOISE)),
                )
            )
    return log


def test_columnar_pair_pipeline_beats_dict_path(benchmark, experiment_log):
    log = _expanded_task_log(experiment_log)
    schema = infer_schema(log.tasks)
    query = why_last_task_faster()

    start = time.perf_counter()
    reference_examples = construct_training_examples_reference(
        log, query, schema, rng=random.Random(0)
    )
    reference_seconds = time.perf_counter() - start

    def construct_columnar():
        return construct_training_matrix(
            log, query, schema, rng=random.Random(0)
        ).examples

    kernel_examples = benchmark.pedantic(construct_columnar, rounds=1, iterations=1)
    kernel_seconds = benchmark.stats.stats.mean

    # The speedup must not come from constructing a different training set:
    # ids, labels and full feature vectors have to match exactly.
    assert len(kernel_examples) == len(reference_examples)
    for kernel_example, reference_example in zip(kernel_examples, reference_examples):
        assert kernel_example == reference_example

    speedup = reference_seconds / kernel_seconds
    benchmark.extra_info["tasks"] = len(log.tasks)
    benchmark.extra_info["examples"] = len(kernel_examples)
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 3)
    benchmark.extra_info["kernel_seconds"] = round(kernel_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print(
        f"\nPair-pipeline throughput — {len(log.tasks)} tasks, "
        f"{len(kernel_examples)} examples:"
    )
    print(f"  dict path : {reference_seconds:.2f} s")
    print(f"  columnar  : {kernel_seconds:.2f} s")
    print(f"  speedup   : {speedup:.1f}x")

    assert speedup >= SPEEDUP_FLOOR, (
        f"the columnar pair pipeline should be at least {SPEEDUP_FLOOR}x faster "
        f"than the dict reference path (got {speedup:.2f}x)"
    )

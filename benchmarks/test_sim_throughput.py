"""Simulation throughput: event-core engine vs the frozen reference loop.

End-to-end ``build_experiment_log`` over a deliberately *contended* grid —
large clusters with full map-slot occupancy across several waves, the
regime where the reference loop's per-event, per-attempt rate recomputation
(each call scanning every running attempt for co-located ones) goes
quadratic in the number of running tasks.  The event-core engine caches
rates per instance and rescores only instances whose member set, member
phase kinds or background episode actually changed, emits the utilization
trace as raw columnar rows, and shares one monotonic background-load
cursor per instance; the sweep path around it (sampler, aggregates, record
batches) is shared by both engines, so the ratio isolates the engine
overhaul.

The speedup must not come from simulating something different: both sweeps
are asserted to produce **identical** execution logs, record by record.

Baseline numbers are recorded in CHANGES.md so later performance PRs have a
trajectory to beat.
"""

from __future__ import annotations

import os
import time

from repro.units import MB
from repro.workloads.grid import ParameterGrid, build_experiment_log

from tests.oracles.engineref import ReferenceSimulationEngine

#: Required speedup.  Relaxed on shared CI runners, where a noisy neighbor
#: can skew either side of the wall-clock comparison.
SPEEDUP_FLOOR = 1.5 if os.environ.get("CI") else 3.0

#: Large clusters + small blocks: 42-83 maps over 32 map slots per job,
#: i.e. two to three full waves of 32 concurrently running attempts.
CONTENDED_GRID = ParameterGrid(
    num_instances=(16,),
    concat_factors=(60, 120),
    block_sizes=(64 * MB,),
    reduce_tasks_factors=(1.5,),
    io_sort_factors=(10,),
    script_names=("simple-filter.pig", "simple-groupby.pig"),
)


def test_event_engine_beats_reference_on_contended_sweep(benchmark, monkeypatch):
    with monkeypatch.context() as patched:
        # The runner simulates with whatever engine class it names.
        patched.setattr(
            "repro.workloads.runner.SimulationEngine", ReferenceSimulationEngine
        )
        start = time.perf_counter()
        reference_log = build_experiment_log(CONTENDED_GRID, seed=7)
        reference_seconds = time.perf_counter() - start

    def sweep_event_engine():
        return build_experiment_log(CONTENDED_GRID, seed=7)

    event_log = benchmark.pedantic(sweep_event_engine, rounds=1, iterations=1)
    event_seconds = benchmark.stats.stats.mean

    # The speedup must not come from simulating a different workload: every
    # job and task record has to match exactly.
    assert event_log.jobs == reference_log.jobs
    assert event_log.tasks == reference_log.tasks

    speedup = reference_seconds / event_seconds
    benchmark.extra_info["jobs"] = reference_log.num_jobs
    benchmark.extra_info["tasks"] = reference_log.num_tasks
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 3)
    benchmark.extra_info["event_seconds"] = round(event_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print(
        f"\nSimulation throughput — {reference_log.num_jobs} contended jobs, "
        f"{reference_log.num_tasks} tasks:"
    )
    print(f"  reference loop : {reference_seconds:.2f} s")
    print(f"  event core     : {event_seconds:.2f} s")
    print(f"  speedup        : {speedup:.1f}x")

    assert speedup >= SPEEDUP_FLOOR, (
        f"the event-core engine should sweep the contended grid at least "
        f"{SPEEDUP_FLOOR}x faster than the reference loop (got {speedup:.2f}x)"
    )

"""Differential suite: event-core engine vs the frozen reference loop.

The event-core engine (:mod:`repro.cluster.engine`) must be a pure
re-organisation of the reference processor-sharing loop preserved in
:mod:`tests.oracles.engineref`: same rates, same steps, same records.  This
file runs both engines over randomized clusters (sizes, instance types,
speed jitter, background-load models), randomized jobs (phase mixes
including zero-length phases, map/reduce counts, slot configurations,
slowstart fractions) and randomized fault models, and asserts the results
are **bit-identical** — job executions, task executions (including
per-attempt phase wall timings and retry counts) and the full utilization
trace, compared with exact float equality via dataclass ``==``.

Both engines consume one shared random stream per run (provisioning,
degradation, phase jitter, failure draws), so each side gets its own
identically-seeded generators and an identically-provisioned cluster.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.background import BackgroundLoadModel
from repro.cluster.cluster import ClusterSpec
from repro.cluster.config import MapReduceConfig
from repro.cluster.engine import SimulationEngine
from repro.cluster.faults import NO_FAULTS, FaultModel
from repro.cluster.jobs import JobSpec, make_task_id
from repro.cluster.tasks import Phase, PhaseKind, TaskAttempt, TaskType

from tests.oracles.engineref import ReferenceSimulationEngine

#: Randomized configurations exercised by every differential test (the
#: acceptance bar asks for at least 40).
SEEDS = list(range(44))

_PHASE_KINDS = [
    ("setup", PhaseKind.OVERHEAD),
    ("read", PhaseKind.DISK),
    ("map", PhaseKind.CPU),
    ("sort", PhaseKind.CPU),
    ("spill", PhaseKind.DISK),
    ("shuffle", PhaseKind.NETWORK),
    ("reduce", PhaseKind.CPU),
    ("write", PhaseKind.DISK),
]

_INSTANCE_TYPES = ["m1.small", "m1.large", "m1.xlarge", "c1.medium"]


def random_attempt(rng: random.Random, job_id: str, task_type: TaskType,
                   index: int) -> TaskAttempt:
    phases = []
    for _ in range(rng.randint(1, 4)):
        name, kind = rng.choice(_PHASE_KINDS)
        seconds = rng.choice([0.0, 0.05, 0.5, 2.0, 8.0, 30.0]) * rng.uniform(0.5, 1.5)
        phases.append(Phase(name, seconds, kind))
    if all(phase.nominal_seconds == 0.0 for phase in phases):
        phases.append(Phase("map", 1.0, PhaseKind.CPU))
    return TaskAttempt(
        task_id=make_task_id(job_id, task_type, index),
        task_type=task_type,
        phases=phases,
    )


def random_scenario(seed: int):
    """One randomized (cluster spec, job spec, fault model, jitter) tuple."""
    rng = random.Random(seed * 7919 + 11)
    background = rng.choice([
        None,
        BackgroundLoadModel(),
        BackgroundLoadModel(busy_probability=0.8, busy_load_mean=2.0,
                            episode_seconds_mean=20.0),
        BackgroundLoadModel(quiet_load=0.0, busy_probability=0.0),
    ])
    spec = ClusterSpec(
        num_instances=rng.randint(1, 6),
        instance_type=rng.choice(_INSTANCE_TYPES),
        speed_jitter=rng.choice([0.0, 0.05, 0.2]),
        background_procs=rng.choice([0.0, 0.25, 1.0]),
        background_model=background,
    )
    job_id = f"job_diff_{seed:04d}"
    num_maps = rng.randint(1, 14)
    num_reduces = rng.randint(0, 6)
    config = MapReduceConfig(
        num_reduce_tasks=max(1, num_reduces),
        map_slots_per_instance=rng.randint(1, 3),
        reduce_slots_per_instance=rng.randint(1, 3),
        reduce_slowstart=rng.choice([0.0, 0.5, 1.0]),
    )
    job = JobSpec(
        job_id=job_id,
        name="differential",
        map_tasks=[random_attempt(rng, job_id, TaskType.MAP, i) for i in range(num_maps)],
        reduce_tasks=[random_attempt(rng, job_id, TaskType.REDUCE, i)
                      for i in range(num_reduces)],
        config=config,
        submit_time=rng.choice([0.0, 120.5]),
    )
    faults = rng.choice([
        NO_FAULTS,
        FaultModel(slow_node_probability=0.5, slow_node_factor=0.5),
        FaultModel(task_failure_probability=0.4),
        FaultModel(slow_node_probability=0.3, slow_node_factor=0.7,
                   task_failure_probability=0.3),
    ])
    jitter = rng.choice([0.0, 0.03, 0.1])
    return spec, job, faults, jitter


def run_engine(engine_cls, seed: int):
    spec, job, faults, jitter = random_scenario(seed)
    rng = random.Random(seed)
    cluster = spec.provision(rng)
    faults.degrade_cluster(cluster, rng)
    engine = engine_cls(cluster, fault_model=faults, rng=rng, jitter=jitter)
    return engine.run(job)


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_results_bit_identical(self, seed):
        reference = run_engine(ReferenceSimulationEngine, seed)
        event = run_engine(SimulationEngine, seed)

        # Job execution: exact dataclass equality (floats compared with ==).
        assert event.job == reference.job

        # Task executions: ids, placement, waves, retry counts, counters and
        # per-attempt phase wall timings, all bit-identical and in order.
        assert len(event.tasks) == len(reference.tasks)
        for event_task, reference_task in zip(event.tasks, reference.tasks):
            assert event_task == reference_task

        # Utilization traces: every interval of every instance.
        assert event.trace.instances() == reference.trace.instances()
        for index in reference.trace.instances():
            assert event.trace.for_instance(index) == reference.trace.for_instance(index)

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_phase_timings_cover_durations(self, seed):
        # Sanity on the comparison itself: wall phase timings are non-trivial
        # (the differential is not vacuously comparing empty dicts).
        result = run_engine(SimulationEngine, seed)
        assert result.tasks
        for task in result.tasks:
            assert task.phase_wall_seconds
            total = sum(task.phase_wall_seconds.values())
            assert total > 0.0

"""Processor-sharing discrete-event simulation engine (event core).

The engine advances all running task attempts simultaneously.  Between
events every attempt progresses through its current phase at a rate set by
the contention on its instance (CPU demand vs. cores, disk sharing, network
sharing, plus a memory-bandwidth penalty for co-located tasks).  Events are
phase completions; at each event the engine re-schedules freed slots and
recomputes rates.  This is the standard way to simulate slot-based
MapReduce execution and it reproduces the performance patterns the paper's
queries ask about:

* runtimes grow in steps as the number of map *waves* grows (block size /
  input size / cluster size interplay — the paper's motivating scenario);
* the last task on an instance runs faster because it no longer shares the
  machine (the WhyLastTaskFaster query);
* degraded nodes and background load create variance between otherwise
  identical jobs.

**Event core.**  An attempt's rate depends only on the set of phase kinds
running on *its* instance and on that instance's background load, so rates
are cached per instance and recomputed only when one of those inputs
actually changes: a task starts, finishes, fails or crosses a phase
boundary on the instance, or the simulation clock reaches the instance's
next background-load episode.  The original loop — which called
``_task_speed`` for every running attempt at every event, each call
scanning the whole running list for co-located attempts — is preserved
verbatim in ``tests/oracles/engineref.py``; the differential suite
(``tests/cluster/test_engine_equivalence.py``) proves both engines emit
bit-identical task records, phase timings and utilization traces.
Background-load episodes are tracked with monotonic cursors (the clock
never goes backwards within a run) instead of per-query bisection, and the
utilization trace is emitted as raw columnar rows
(:meth:`~repro.cluster.trace.UtilizationTrace.add_row`) rather than one
dataclass instance per instance per event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.cluster.cluster import Cluster
from repro.cluster.config import MapReduceConfig
from repro.cluster.faults import NO_FAULTS, FaultModel
from repro.cluster.instance import Instance
from repro.cluster.jobs import JobSpec
from repro.cluster.scheduler import SlotScheduler
from repro.cluster.tasks import Phase, PhaseKind, TaskAttempt, TaskType
from repro.cluster.trace import UtilizationTrace
from repro.exceptions import SimulationError

_EPSILON = 1e-9

#: CPU-equivalent demand of a task whose current phase stresses each resource.
_CPU_WEIGHT = {
    PhaseKind.CPU: 1.0,
    PhaseKind.DISK: 0.25,
    PhaseKind.NETWORK: 0.15,
    PhaseKind.OVERHEAD: 0.3,
}

#: Per-extra-co-located-task slowdown from shared memory bandwidth and cache.
_COLOCATION_PENALTY = 0.12

#: Megabytes of RAM the OS and Hadoop daemons occupy on every node.
_OS_MEMORY_MB = 600.0

_INF = float("inf")


@dataclass
class TaskExecution:
    """The observed execution of one task (possibly after retries)."""

    task_id: str
    job_id: str
    task_type: TaskType
    instance_index: int
    hostname: str
    tracker_name: str
    start_time: float
    finish_time: float
    wave: int
    slot_order: int
    phase_wall_seconds: dict[str, float]
    counters: dict[str, int]
    attempts: int = 1

    @property
    def duration(self) -> float:
        """Wall-clock duration including any failed attempts."""
        return self.finish_time - self.start_time

    def phase_seconds(self, name: str) -> float:
        """Wall-clock seconds spent in phases with the given name."""
        return self.phase_wall_seconds.get(name, 0.0)


@dataclass
class JobExecution:
    """The observed execution of one job."""

    job_id: str
    name: str
    submit_time: float
    start_time: float
    finish_time: float
    num_map_tasks: int
    num_reduce_tasks: int
    num_instances: int
    config: MapReduceConfig
    metadata: dict[str, Any]
    counters: dict[str, int]

    @property
    def duration(self) -> float:
        """Wall-clock duration of the job."""
        return self.finish_time - self.start_time


@dataclass
class SimulationResult:
    """Everything the simulator observed while running one job.

    ``engine_seed`` and ``scenario`` are provenance stamps: the workload
    runner records the seed that derived every random draw of the run and
    the scenario identifier (when the job was produced by a
    :mod:`repro.workloads.scenarios` catalog entry), so any emitted log
    record can be traced back to a reproducible ``(scenario, seed)`` replay.
    """

    job: JobExecution
    tasks: list[TaskExecution]
    trace: UtilizationTrace
    cluster: Cluster
    engine_seed: int | None = None
    scenario: str | None = None

    def map_tasks(self) -> list[TaskExecution]:
        """Task executions of type MAP."""
        return [t for t in self.tasks if t.task_type is TaskType.MAP]

    def reduce_tasks(self) -> list[TaskExecution]:
        """Task executions of type REDUCE."""
        return [t for t in self.tasks if t.task_type is TaskType.REDUCE]


class _RunningTask:
    """Book-keeping for an attempt currently holding a slot.

    Beyond the reference engine's fields this caches everything the hot
    loop reads per event: the current phase kind and name, the attempt's
    total nominal duration, the most recently computed rate, and a back
    reference to the owning :class:`_InstanceState`.
    """

    __slots__ = (
        "attempt",
        "instance",
        "start_time",
        "wave",
        "slot_order",
        "phase_index",
        "remaining_in_phase",
        "phase_wall_seconds",
        "work_done",
        "failure_at",
        "prior_attempts",
        "prior_wall_seconds",
        "original_start",
        "kind",
        "phase_name",
        "total_nominal",
        "is_map",
        "speed",
        "alive",
        "state",
    )

    def __init__(
        self,
        attempt: TaskAttempt,
        instance: Instance,
        start_time: float,
        wave: int,
        slot_order: int,
        prior_attempts: int,
        prior_wall_seconds: dict[str, float],
        original_start: float | None,
    ) -> None:
        self.attempt = attempt
        self.instance = instance
        self.start_time = start_time
        self.wave = wave
        self.slot_order = slot_order
        self.phase_index = 0
        first = attempt.phases[0]
        self.remaining_in_phase = first.nominal_seconds
        self.phase_wall_seconds: dict[str, float] = {}
        self.work_done = 0.0
        self.failure_at: float | None = None
        self.prior_attempts = prior_attempts
        self.prior_wall_seconds = prior_wall_seconds
        self.original_start = original_start
        self.kind = first.kind
        self.phase_name = first.name
        self.total_nominal = attempt.nominal_duration
        self.is_map = attempt.task_type is TaskType.MAP
        self.speed = 0.0
        self.alive = True
        self.state: _InstanceState | None = None

    def advance_phase(self) -> bool:
        """Move to the next phase; returns True when the attempt is done."""
        self.phase_index += 1
        phases = self.attempt.phases
        if self.phase_index >= len(phases):
            return True
        phase = phases[self.phase_index]
        self.remaining_in_phase = phase.nominal_seconds
        self.phase_name = phase.name
        if phase.kind is not self.kind:
            self.kind = phase.kind
            state = self.state
            if state is not None:
                state.dirty = True
        return False


class _InstanceState:
    """Per-instance event-core state: members, cached rates, load cursor.

    ``dirty`` marks that the member set or some member's phase kind changed
    since the cached rates were computed; the background cursor tracks the
    instance's piecewise-constant load episode under the run's monotonic
    clock, so ``bg_boundary`` is both the cache's expiry time and the
    reference loop's step clamp (``next_background_change``).
    """

    __slots__ = (
        "instance",
        "index",
        "members",
        "dirty",
        "cursor",
        "background",
        "extra_procs",
        "bg_boundary",
        "cores",
        "core_speed",
        "speed_factor",
        "disk_mbps",
        "net_mbps",
        "cpu_demand",
        "disk_users",
        "net_users",
        "running_maps",
    )

    def __init__(self, instance: Instance, clock: float) -> None:
        self.instance = instance
        self.index = instance.index
        self.members: list[_RunningTask] = []
        self.dirty = False
        profile = instance.load_profile
        self.cursor = profile.cursor() if profile is not None else None
        self.cores = instance.cores
        self.core_speed = instance.effective_core_speed()
        self.speed_factor = instance.speed_factor
        self.disk_mbps = instance.instance_type.disk_mbps
        self.net_mbps = instance.instance_type.network_mbps
        self.cpu_demand = 0.0
        self.disk_users = 0
        self.net_users = 0
        self.running_maps = 0
        if self.cursor is None:
            self.background = instance.background_procs
            self.extra_procs = 0
            self.bg_boundary = _INF
        else:
            self.advance_background(clock)

    def advance_background(self, clock: float) -> None:
        """Move the load cursor forward to the episode covering ``clock``."""
        cursor = self.cursor
        if cursor is None:
            return
        self.background, self.extra_procs = cursor.at(clock)
        self.bg_boundary = cursor.next_change_after(clock)

    def refresh_rates(self, clock: float) -> None:
        """Recompute cached member rates (reference-loop arithmetic)."""
        if clock >= self.bg_boundary:
            self.advance_background(clock)
        members = self.members
        cpu_demand = self.background + sum(_CPU_WEIGHT[t.kind] for t in members)
        cpu_factor = min(1.0, self.cores / max(cpu_demand, _EPSILON))
        colocation_factor = 1.0 / (
            1.0 + _COLOCATION_PENALTY * max(0, len(members) - 1)
        )
        disk_users = 0
        net_users = 0
        running_maps = 0
        for task in members:
            kind = task.kind
            if kind is PhaseKind.DISK:
                disk_users += 1
            elif kind is PhaseKind.NETWORK:
                net_users += 1
            if task.is_map:
                running_maps += 1
        cpu_speed = self.core_speed * cpu_factor * colocation_factor
        disk_speed = self.speed_factor * colocation_factor / max(1, disk_users)
        net_speed = 1.0 / max(1, net_users)
        overhead_speed = self.speed_factor
        for task in members:
            kind = task.kind
            if kind is PhaseKind.CPU:
                task.speed = cpu_speed
            elif kind is PhaseKind.DISK:
                task.speed = disk_speed
            elif kind is PhaseKind.NETWORK:
                task.speed = net_speed
            else:
                task.speed = overhead_speed
        self.cpu_demand = cpu_demand
        self.disk_users = disk_users
        self.net_users = net_users
        self.running_maps = running_maps
        self.dirty = False


class SimulationEngine:
    """Runs :class:`JobSpec` objects on a :class:`Cluster`."""

    def __init__(
        self,
        cluster: Cluster,
        fault_model: FaultModel = NO_FAULTS,
        rng: random.Random | None = None,
        jitter: float = 0.03,
    ) -> None:
        """
        :param cluster: the provisioned cluster to run on.
        :param fault_model: probabilistic fault injection.
        :param rng: random generator driving faults and runtime jitter.
        :param jitter: multiplicative noise applied to each phase duration
            (models OS scheduling and I/O variance on real machines).
        """
        self._cluster = cluster
        self._faults = fault_model
        self._rng = rng if rng is not None else random.Random(0)
        self._jitter = jitter

    def run(self, job: JobSpec, start_time: float | None = None) -> SimulationResult:
        """Simulate a job and return its execution record.

        :param job: the job specification to run.
        :param start_time: wall-clock start; defaults to the job submit time.
        """
        clock = job.submit_time if start_time is None else start_time
        cluster = self._cluster
        scheduler = SlotScheduler(cluster, job.config, job.map_tasks, job.reduce_tasks)
        trace = UtilizationTrace()
        add_row = trace.add_row
        running: list[_RunningTask] = []
        finished: list[TaskExecution] = []
        failure_memory: dict[str, tuple[int, dict[str, float], float]] = {}
        job_start = clock
        states = {
            instance.index: _InstanceState(instance, clock) for instance in cluster
        }
        #: States in cluster order, for trace emission.
        state_list = [states[instance.index] for instance in cluster]
        num_instances = max(1, len(cluster))
        half_epsilon = _EPSILON / 2
        need_schedule = True

        while scheduler.has_pending() or running:
            if need_schedule:
                for assignment in scheduler.next_assignments():
                    task = self._start_attempt(
                        assignment.attempt, assignment.instance, clock,
                        assignment.wave, assignment.slot_order, failure_memory,
                    )
                    state = states[assignment.instance.index]
                    task.state = state
                    state.members.append(task)
                    state.dirty = True
                    running.append(task)
                need_schedule = False
            if not running:
                raise SimulationError(
                    "no task could be scheduled although work remains; "
                    "check slot configuration"
                )

            # Busy instances in first-occurrence order of the running list
            # (the reference loop's ``by_instance`` key order, which fixes
            # the floating-point summation order of the trace's net totals).
            busy: list[_InstanceState] = []
            seen: set[int] = set()
            for task in running:
                index = task.state.index  # type: ignore[union-attr]
                if index not in seen:
                    seen.add(index)
                    busy.append(task.state)  # type: ignore[arg-type]

            # Incremental rate recomputation: only instances whose member
            # set, member phase kinds or background episode changed.
            for state in busy:
                if state.dirty or clock >= state.bg_boundary:
                    state.refresh_rates(clock)

            step = _INF
            for task in running:
                speed = task.speed
                bound = task.remaining_in_phase / (
                    speed if speed > _EPSILON else _EPSILON
                )
                if bound < step:
                    step = bound
            # Background load changes create rate changes too: never step
            # past the next episode boundary of any busy instance.
            for state in busy:
                boundary = state.bg_boundary
                if boundary > clock:
                    gap = boundary - clock
                    if gap < step:
                        step = gap
            step = max(step, _EPSILON)

            # Columnar trace emission: one raw row per instance per event.
            end = clock + step
            if end - clock > half_epsilon:
                total_net_in = 0.0
                for state in busy:
                    total_net_in += state.net_mbps * min(1, state.net_users)
                net_out = total_net_in / num_instances
                for state in state_list:
                    if clock >= state.bg_boundary:
                        state.advance_background(clock)
                    background = state.background
                    members = state.members
                    if members:
                        count = len(members)
                        cpu_demand = state.cpu_demand
                        disk_users = state.disk_users
                        net_users = state.net_users
                        running_maps = state.running_maps
                    else:
                        count = 0
                        cpu_demand = background
                        disk_users = 0
                        net_users = 0
                        running_maps = 0
                    disk_rate = state.disk_mbps if disk_users else 0.0
                    add_row(
                        state.index,
                        (
                            clock,
                            end,
                            running_maps,
                            count - running_maps,
                            cpu_demand,
                            min(1.0, cpu_demand / state.cores),
                            disk_rate * 0.6,
                            disk_rate * 0.4,
                            state.net_mbps if net_users else 0.0,
                            net_out,
                            _OS_MEMORY_MB + count * 200.0 + background * 400.0,
                            background,
                            state.extra_procs,
                        ),
                    )

            for task in running:
                progress = step * task.speed
                task.remaining_in_phase -= progress
                task.work_done += progress
                name = task.phase_name
                wall = task.phase_wall_seconds
                wall[name] = wall.get(name, 0.0) + step

            clock = end

            removed = False
            still_running: list[_RunningTask] = []
            for task in running:
                if task.remaining_in_phase > _EPSILON and task.speed <= _EPSILON:
                    raise SimulationError(
                        f"task {task.attempt.task_id} is not making progress"
                    )
                failed = (
                    task.failure_at is not None
                    and task.work_done >= task.failure_at * task.total_nominal
                )
                if failed:
                    scheduler.release(task.instance, task.attempt, completed=False)
                    failure_memory[task.attempt.task_id] = (
                        task.prior_attempts + 1,
                        _merge_wall(task.prior_wall_seconds, task.phase_wall_seconds),
                        task.original_start
                        if task.original_start is not None
                        else task.start_time,
                    )
                    scheduler.requeue(task.attempt)
                    task.alive = False
                    task.state.dirty = True  # type: ignore[union-attr]
                    removed = True
                    need_schedule = True
                    continue
                if task.remaining_in_phase <= _EPSILON:
                    if task.advance_phase():
                        scheduler.release(task.instance, task.attempt, completed=True)
                        finished.append(self._finish_task(task, job.job_id, clock))
                        task.alive = False
                        task.state.dirty = True  # type: ignore[union-attr]
                        removed = True
                        need_schedule = True
                        continue
                still_running.append(task)
            running = still_running
            if removed:
                for state in busy:
                    if state.dirty:
                        state.members = [t for t in state.members if t.alive]

        job_execution = self._summarise_job(job, job_start, clock, finished)
        finished.sort(
            key=lambda execution: (execution.task_type.value, execution.task_id)
        )
        return SimulationResult(
            job=job_execution, tasks=finished, trace=trace, cluster=self._cluster
        )

    # ------------------------------------------------------------------ #
    # internal helpers
    # ------------------------------------------------------------------ #

    def _start_attempt(
        self,
        attempt: TaskAttempt,
        instance: Instance,
        clock: float,
        wave: int,
        slot_order: int,
        failure_memory: dict[str, tuple[int, dict[str, float], float]],
    ) -> _RunningTask:
        prior_attempts, prior_wall, original_start = failure_memory.pop(
            attempt.task_id, (0, {}, clock)
        )
        jittered = []
        for phase in attempt.phases:
            noise = 1.0 + self._rng.gauss(0.0, self._jitter) if self._jitter else 1.0
            jittered.append(
                Phase(
                    phase.name,
                    max(0.0, phase.nominal_seconds * max(0.2, noise)),
                    phase.kind,
                )
            )
        task = _RunningTask(
            attempt=TaskAttempt(
                task_id=attempt.task_id,
                task_type=attempt.task_type,
                phases=jittered,
                counters=attempt.counters,
                attempt_number=prior_attempts,
            ),
            instance=instance,
            start_time=clock,
            wave=wave,
            slot_order=slot_order,
            prior_attempts=prior_attempts,
            prior_wall_seconds=prior_wall,
            original_start=original_start if prior_attempts else clock,
        )
        if self._faults.enabled and prior_attempts < 1:
            # Only one injected failure per task.
            task.failure_at = self._faults.draw_failure(self._rng)
        return task

    def _finish_task(
        self, task: _RunningTask, job_id: str, clock: float
    ) -> TaskExecution:
        wall = _merge_wall(task.prior_wall_seconds, task.phase_wall_seconds)
        start = (
            task.original_start if task.original_start is not None else task.start_time
        )
        return TaskExecution(
            task_id=task.attempt.task_id,
            job_id=job_id,
            task_type=task.attempt.task_type,
            instance_index=task.instance.index,
            hostname=task.instance.hostname,
            tracker_name=task.instance.tracker_name,
            start_time=start,
            finish_time=clock,
            wave=task.wave,
            slot_order=task.slot_order,
            phase_wall_seconds=wall,
            counters=task.attempt.counters.as_dict(),
            attempts=task.prior_attempts + 1,
        )

    def _summarise_job(
        self,
        job: JobSpec,
        start: float,
        finish: float,
        tasks: list[TaskExecution],
    ) -> JobExecution:
        counters: dict[str, int] = {}
        for execution in tasks:
            for key, value in execution.counters.items():
                counters[key] = counters.get(key, 0) + value
        return JobExecution(
            job_id=job.job_id,
            name=job.name,
            submit_time=job.submit_time,
            start_time=start,
            finish_time=finish,
            num_map_tasks=job.num_map_tasks,
            num_reduce_tasks=job.num_reduce_tasks,
            num_instances=len(self._cluster),
            config=job.config,
            metadata=dict(job.metadata),
            counters=counters,
        )


def _merge_wall(base: dict[str, float], extra: dict[str, float]) -> dict[str, float]:
    """Sum two phase-name -> wall-seconds dictionaries."""
    merged = dict(base)
    for name, seconds in extra.items():
        merged[name] = merged.get(name, 0.0) + seconds
    return merged

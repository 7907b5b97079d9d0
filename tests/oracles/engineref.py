"""Reference processor-sharing simulation loop (frozen pre-event-core path).

This module preserves the original :class:`SimulationEngine` loop exactly as
it shipped before the event-core overhaul in :mod:`repro.cluster.engine`,
mirroring the role ``rowpath.py`` and ``pairref.py`` beside it play for
the columnar training and pair pipelines.  The loop recomputes
every running attempt's rate at every event — O(running tasks^2) per event —
by calling :meth:`ReferenceSimulationEngine._task_speed` once per attempt,
each call scanning the full running list for co-located attempts.

The event-core engine must be a pure re-organisation of this arithmetic:
the differential suite (``tests/cluster/test_engine_equivalence.py``) runs
both engines over randomized clusters, jobs, fault models and seeds and
asserts **bit-identical** job/task records, per-attempt phase timings and
utilization traces.  Keep this file frozen; behaviour changes belong in
:mod:`repro.cluster.engine` (and must keep the differential green by being
no changes at all).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.engine import (
    _COLOCATION_PENALTY,
    _CPU_WEIGHT,
    _EPSILON,
    _OS_MEMORY_MB,
    JobExecution,
    SimulationResult,
    TaskExecution,
    _merge_wall,
)
from repro.cluster.faults import NO_FAULTS, FaultModel
from repro.cluster.instance import Instance
from repro.cluster.jobs import JobSpec
from repro.cluster.scheduler import SlotScheduler
from repro.cluster.tasks import Phase, PhaseKind, TaskAttempt, TaskType
from repro.cluster.trace import UtilizationInterval, UtilizationTrace
from repro.exceptions import SimulationError


@dataclass
class _RunningTask:
    """Book-keeping for an attempt currently holding a slot."""

    attempt: TaskAttempt
    instance: Instance
    start_time: float
    wave: int
    slot_order: int
    phase_index: int = 0
    remaining_in_phase: float = 0.0
    phase_wall_seconds: dict[str, float] = field(default_factory=dict)
    work_done: float = 0.0
    failure_at: float | None = None
    prior_attempts: int = 0
    prior_wall_seconds: dict[str, float] = field(default_factory=dict)
    original_start: float | None = None

    def __post_init__(self) -> None:
        self.remaining_in_phase = self.current_phase.nominal_seconds

    @property
    def current_phase(self) -> Phase:
        return self.attempt.phases[self.phase_index]

    @property
    def total_nominal(self) -> float:
        return self.attempt.nominal_duration

    def advance_phase(self) -> bool:
        """Move to the next phase; returns True when the attempt is done."""
        self.phase_index += 1
        if self.phase_index >= len(self.attempt.phases):
            return True
        self.remaining_in_phase = self.current_phase.nominal_seconds
        return False


class ReferenceSimulationEngine:
    """The frozen pre-event-core simulation loop (see module docstring)."""

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
        scheduler = SlotScheduler(self._cluster, job.config, job.map_tasks, job.reduce_tasks)
        trace = UtilizationTrace()
        running: list[_RunningTask] = []
        finished: list[TaskExecution] = []
        failure_memory: dict[str, tuple[int, dict[str, float], float]] = {}
        job_start = clock

        while scheduler.has_pending() or running:
            for assignment in scheduler.next_assignments():
                running.append(
                    self._start_attempt(assignment.attempt, assignment.instance, clock,
                                        assignment.wave, assignment.slot_order,
                                        failure_memory)
                )
            if not running:
                raise SimulationError(
                    "no task could be scheduled although work remains; "
                    "check slot configuration"
                )

            speeds = {id(task): self._task_speed(task, running, clock) for task in running}
            step = min(
                task.remaining_in_phase / max(speeds[id(task)], _EPSILON)
                for task in running
            )
            # Background load changes create rate changes too: never step
            # past the next episode boundary of any busy instance.
            busy_instances = {task.instance.index: task.instance for task in running}
            for instance in busy_instances.values():
                boundary = instance.next_background_change(clock)
                if boundary > clock:
                    step = min(step, boundary - clock)
            step = max(step, _EPSILON)

            self._record_intervals(trace, running, clock, clock + step)

            for task in running:
                speed = speeds[id(task)]
                progress = step * speed
                task.remaining_in_phase -= progress
                task.work_done += progress
                phase_name = task.current_phase.name
                task.phase_wall_seconds[phase_name] = (
                    task.phase_wall_seconds.get(phase_name, 0.0) + step
                )

            clock += step

            still_running: list[_RunningTask] = []
            for task in running:
                if task.remaining_in_phase > _EPSILON and speeds[id(task)] <= _EPSILON:
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
                        task.original_start if task.original_start is not None else task.start_time,
                    )
                    scheduler.requeue(task.attempt)
                    continue
                if task.remaining_in_phase <= _EPSILON:
                    done = task.advance_phase()
                    if done:
                        scheduler.release(task.instance, task.attempt, completed=True)
                        finished.append(self._finish_task(task, job.job_id, clock))
                        continue
                still_running.append(task)
            running = still_running

        job_execution = self._summarise_job(job, job_start, clock, finished)
        finished.sort(key=lambda execution: (execution.task_type.value, execution.task_id))
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
        task = _RunningTask(
            attempt=attempt,
            instance=instance,
            start_time=clock,
            wave=wave,
            slot_order=slot_order,
            prior_attempts=prior_attempts,
            prior_wall_seconds=prior_wall,
            original_start=original_start if prior_attempts else clock,
        )
        jittered = []
        for phase in attempt.phases:
            noise = 1.0 + self._rng.gauss(0.0, self._jitter) if self._jitter else 1.0
            jittered.append(
                Phase(phase.name, max(0.0, phase.nominal_seconds * max(0.2, noise)), phase.kind)
            )
        task.attempt = TaskAttempt(
            task_id=attempt.task_id,
            task_type=attempt.task_type,
            phases=jittered,
            counters=attempt.counters,
            attempt_number=prior_attempts,
        )
        task.remaining_in_phase = task.current_phase.nominal_seconds
        remaining_tries = None
        if self._faults.enabled:
            remaining_tries = prior_attempts < 1  # only allow one injected failure per task
            if remaining_tries:
                task.failure_at = self._faults.draw_failure(self._rng)
        return task

    def _task_speed(
        self, task: _RunningTask, running: list[_RunningTask], clock: float
    ) -> float:
        instance = task.instance
        co_located = [t for t in running if t.instance.index == instance.index]
        cpu_demand = instance.background_at(clock) + sum(
            _CPU_WEIGHT[t.current_phase.kind] for t in co_located
        )
        cpu_factor = min(1.0, instance.cores / max(cpu_demand, _EPSILON))
        colocation_factor = 1.0 / (1.0 + _COLOCATION_PENALTY * max(0, len(co_located) - 1))
        kind = task.current_phase.kind
        if kind is PhaseKind.CPU:
            return instance.effective_core_speed() * cpu_factor * colocation_factor
        if kind is PhaseKind.DISK:
            disk_users = sum(1 for t in co_located if t.current_phase.kind is PhaseKind.DISK)
            return instance.speed_factor * colocation_factor / max(1, disk_users)
        if kind is PhaseKind.NETWORK:
            net_users = sum(1 for t in co_located if t.current_phase.kind is PhaseKind.NETWORK)
            return 1.0 / max(1, net_users)
        return instance.speed_factor

    def _record_intervals(
        self,
        trace: UtilizationTrace,
        running: list[_RunningTask],
        start: float,
        end: float,
    ) -> None:
        if end - start <= _EPSILON / 2:
            return
        by_instance: dict[int, list[_RunningTask]] = {}
        for task in running:
            by_instance.setdefault(task.instance.index, []).append(task)
        total_net_in = 0.0
        for tasks in by_instance.values():
            instance = tasks[0].instance
            net_users = sum(1 for t in tasks if t.current_phase.kind is PhaseKind.NETWORK)
            total_net_in += instance.instance_type.network_mbps * min(1, net_users)
        num_instances = max(1, len(self._cluster))

        for instance in self._cluster:
            tasks = by_instance.get(instance.index, [])
            running_maps = sum(1 for t in tasks if t.attempt.task_type is TaskType.MAP)
            running_reduces = len(tasks) - running_maps
            background = instance.background_at(start)
            cpu_demand = background + sum(
                _CPU_WEIGHT[t.current_phase.kind] for t in tasks
            )
            disk_users = sum(1 for t in tasks if t.current_phase.kind is PhaseKind.DISK)
            net_users = sum(1 for t in tasks if t.current_phase.kind is PhaseKind.NETWORK)
            disk_rate = instance.instance_type.disk_mbps if disk_users else 0.0
            net_in = instance.instance_type.network_mbps if net_users else 0.0
            interval = UtilizationInterval(
                start=start,
                end=end,
                running_maps=running_maps,
                running_reduces=running_reduces,
                cpu_demand=cpu_demand,
                cpu_utilization=min(1.0, cpu_demand / instance.cores),
                disk_read_mbps=disk_rate * 0.6,
                disk_write_mbps=disk_rate * 0.4,
                net_in_mbps=net_in,
                net_out_mbps=total_net_in / num_instances,
                memory_used_mb=_OS_MEMORY_MB + len(tasks) * 200.0
                + background * 400.0,
                background_load=background,
                background_extra_procs=instance.extra_procs_at(start),
            )
            trace.add(instance.index, interval)

    def _finish_task(self, task: _RunningTask, job_id: str, clock: float) -> TaskExecution:
        wall = _merge_wall(task.prior_wall_seconds, task.phase_wall_seconds)
        start = task.original_start if task.original_start is not None else task.start_time
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

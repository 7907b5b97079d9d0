"""The experiment parameter grid (Table 2), log builders and sweep executor.

The paper collected its execution log by running every combination of the
parameters in Table 2.  :func:`paper_grid` reproduces that grid exactly;
:func:`small_grid` and :func:`tiny_grid` are cheaper grids used by tests,
examples and the default benchmark configuration so that the full pipeline
stays fast on a laptop.

:func:`build_experiment_log` is the sweep executor.  Every grid cell's
random seed is derived up front from the base seed (in the exact order the
sequential sweep would draw them), so cells are independent and can run
**process-parallel** (``workers > 1``): each worker simulates its cells on
a job-relative clock, and the parent merges the results in deterministic
grid order, re-basing the recorded wall-clock submit times — the resulting
:class:`~repro.logs.store.ExecutionLog` is bit-identical to a sequential
sweep.  Records are appended through the log's batched column-friendly
API rather than one duplicate-checked call per task.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.cluster.config import MapReduceConfig
from repro.cluster.faults import NO_FAULTS, FaultModel
from repro.exceptions import WorkloadError
from repro.logs.records import JobRecord, TaskRecord
from repro.logs.store import ExecutionLog
from repro.units import MB
from repro.workloads.excite import DEFAULT_PROFILE, ExciteLogProfile, excite_dataset
from repro.workloads.pig import PIG_SCRIPTS, PigScript, get_script
from repro.workloads.runner import run_workload


@dataclass(frozen=True)
class GridPoint:
    """One configuration in the experiment grid."""

    num_instances: int
    concat_factor: int
    block_size: int
    reduce_tasks_factor: float
    io_sort_factor: int
    script_name: str

    def num_reduce_tasks(self) -> int:
        """Reducer count implied by the factor, as in the paper.

        "If there are 8 instances and the reduce tasks factor is 1.5, then
        the number of reduce tasks is set to 12."
        """
        return max(1, int(round(self.num_instances * self.reduce_tasks_factor)))

    def config(self) -> MapReduceConfig:
        """The MapReduce configuration for this grid point."""
        return MapReduceConfig(
            dfs_block_size=self.block_size,
            num_reduce_tasks=self.num_reduce_tasks(),
            io_sort_factor=self.io_sort_factor,
        )

    def script(self) -> PigScript:
        """The Pig script cost model for this grid point."""
        return get_script(self.script_name)


@dataclass(frozen=True)
class ParameterGrid:
    """A cartesian product of workload parameters (Table 2's structure)."""

    num_instances: tuple[int, ...]
    concat_factors: tuple[int, ...]
    block_sizes: tuple[int, ...]
    reduce_tasks_factors: tuple[float, ...]
    io_sort_factors: tuple[int, ...]
    script_names: tuple[str, ...]

    def __post_init__(self) -> None:
        for name, values in (
            ("num_instances", self.num_instances),
            ("concat_factors", self.concat_factors),
            ("block_sizes", self.block_sizes),
            ("reduce_tasks_factors", self.reduce_tasks_factors),
            ("io_sort_factors", self.io_sort_factors),
            ("script_names", self.script_names),
        ):
            if not values:
                raise WorkloadError(f"grid dimension {name} must not be empty")
        for script in self.script_names:
            if script not in PIG_SCRIPTS:
                raise WorkloadError(f"unknown Pig script in grid: {script!r}")

    def points(self) -> list[GridPoint]:
        """All grid points, in a deterministic order."""
        combos = itertools.product(
            self.num_instances,
            self.concat_factors,
            self.block_sizes,
            self.reduce_tasks_factors,
            self.io_sort_factors,
            self.script_names,
        )
        return [
            GridPoint(
                num_instances=instances,
                concat_factor=concat,
                block_size=block,
                reduce_tasks_factor=factor,
                io_sort_factor=sort_factor,
                script_name=script,
            )
            for instances, concat, block, factor, sort_factor, script in combos
        ]

    def __len__(self) -> int:
        return (
            len(self.num_instances)
            * len(self.concat_factors)
            * len(self.block_sizes)
            * len(self.reduce_tasks_factors)
            * len(self.io_sort_factors)
            * len(self.script_names)
        )


def paper_grid() -> ParameterGrid:
    """The exact grid of Table 2 (540 configurations)."""
    return ParameterGrid(
        num_instances=(1, 2, 4, 8, 16),
        concat_factors=(30, 60),  # 1.3 GB and 2.6 GB
        block_sizes=(64 * MB, 256 * MB, 1024 * MB),
        reduce_tasks_factors=(1.0, 1.5, 2.0),
        io_sort_factors=(10, 50, 100),
        script_names=("simple-filter.pig", "simple-groupby.pig"),
    )


def small_grid() -> ParameterGrid:
    """A reduced grid (96 configurations) for benchmarks and examples."""
    return ParameterGrid(
        num_instances=(1, 2, 4, 8),
        concat_factors=(6, 12),
        block_sizes=(64 * MB, 256 * MB),
        reduce_tasks_factors=(1.0, 2.0),
        io_sort_factors=(10, 100),
        script_names=("simple-filter.pig", "simple-groupby.pig"),
    )


def tiny_grid() -> ParameterGrid:
    """A minimal grid (16 configurations) for fast unit tests."""
    return ParameterGrid(
        num_instances=(2, 4),
        concat_factors=(2, 4),
        block_sizes=(64 * MB, 256 * MB),
        reduce_tasks_factors=(1.0,),
        io_sort_factors=(10,),
        script_names=("simple-filter.pig", "simple-groupby.pig"),
    )


@dataclass(frozen=True)
class _SweepCell:
    """One unit of sweep work: a grid point with its derived seed."""

    sequence: int
    repetition: int
    point: GridPoint
    job_seed: int
    fault_model: FaultModel
    profile: ExciteLogProfile
    sampling_period: float
    include_tasks: bool


def _simulate_cell(cell: _SweepCell) -> tuple[JobRecord, list[TaskRecord]]:
    """Run one sweep cell on a job-relative clock (submit time zero).

    Top-level so that :class:`~concurrent.futures.ProcessPoolExecutor` can
    dispatch it to worker processes; only the records travel back.
    """
    run = run_workload(
        script=cell.point.script(),
        dataset=excite_dataset(cell.point.concat_factor, cell.profile),
        config=cell.point.config(),
        num_instances=cell.point.num_instances,
        seed=cell.job_seed,
        job_sequence=cell.sequence,
        reduce_tasks_factor=cell.point.reduce_tasks_factor,
        fault_model=cell.fault_model,
        profile=cell.profile,
        sampling_period=cell.sampling_period,
        submit_time=0.0,
        extra_metadata={"grid_repetition": cell.repetition},
    )
    return run.job_record, run.task_records if cell.include_tasks else []


#: Features carrying wall-clock timestamps, re-based when merging cells.
_JOB_TIME_FEATURES = ("submit_time", "start_time")
_TASK_TIME_FEATURES = ("start_time", "taskfinishtime")


def _shift_times(
    job: JobRecord, tasks: list[TaskRecord], offset: float
) -> None:
    """Re-base a cell's wall-clock features onto the sweep submit clock.

    Cells simulate at submit time zero; adding the offset afterwards is
    bit-identical to simulating with the offset (float addition is
    commutative, and the job-relative clock never enters the simulation).
    """
    if offset == 0.0:
        return
    for name in _JOB_TIME_FEATURES:
        job.features[name] += offset
    for task in tasks:
        features = task.features
        for name in _TASK_TIME_FEATURES:
            features[name] += offset


def build_experiment_log(
    grid: ParameterGrid,
    seed: int = 0,
    repetitions: int = 1,
    fault_model: FaultModel = NO_FAULTS,
    profile: ExciteLogProfile = DEFAULT_PROFILE,
    sampling_period: float = 5.0,
    include_tasks: bool = True,
    workers: int = 1,
) -> ExecutionLog:
    """Run every grid point through the simulator and collect the log.

    :param grid: the parameter grid to sweep.
    :param seed: base random seed; each job gets a distinct derived seed so
        that repeated executions of the same configuration differ (as real
        EC2 runs would).
    :param repetitions: how many times to run each grid point.
    :param fault_model: optional fault injection shared by all jobs.
    :param profile: data profile for the synthetic Excite log.
    :param sampling_period: Ganglia sampling period in seconds.
    :param include_tasks: whether task records are kept (task-level queries
        need them; job-level experiments can skip them to save memory).
    :param workers: worker processes for the sweep.  ``1`` runs in-process;
        any value produces the same log (per-cell seeds are pre-derived and
        results merge in deterministic grid order).
    """
    if repetitions < 1:
        raise WorkloadError("repetitions must be >= 1")
    if workers < 1:
        raise WorkloadError("workers must be >= 1")
    rng = random.Random(seed)
    cells: list[_SweepCell] = []
    sequence = 0
    for repetition in range(repetitions):
        for point in grid.points():
            sequence += 1
            cells.append(
                _SweepCell(
                    sequence=sequence,
                    repetition=repetition,
                    point=point,
                    job_seed=rng.randrange(2 ** 31),
                    fault_model=fault_model,
                    profile=profile,
                    sampling_period=sampling_period,
                    include_tasks=include_tasks,
                )
            )

    if workers == 1:
        results = map(_simulate_cell, cells)
    else:
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(executor.map(_simulate_cell, cells, chunksize=4))
        finally:
            executor.shutdown()

    log = ExecutionLog()
    submit_clock = 0.0
    for job_record, task_records in results:
        _shift_times(job_record, task_records, submit_clock)
        submit_clock += job_record.duration + 30.0
        log.extend(jobs=(job_record,), tasks=task_records)
    return log

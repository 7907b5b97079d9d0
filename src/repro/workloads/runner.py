"""Run one configured workload through the simulator and extract records.

This module is the glue between the substrates: it provisions a cluster,
compiles the Pig script, runs the simulation engine, samples Ganglia-style
metrics, and produces the :class:`~repro.logs.records.JobRecord` /
:class:`~repro.logs.records.TaskRecord` feature vectors PerfXplain consumes.

The feature names deliberately match the ones quoted in the paper's
explanations (``inputsize``, ``numinstances``, ``blocksize``,
``num_reduce_tasks``, ``iosortfactor``, ``pig_script``, ``tracker_name``,
``hostname``, ``map_input_records``, ``file_bytes_written``,
``avg_cpu_user``, ``avg_load_five``, ...).

Every record additionally carries provenance stamps — ``engine_seed``
always, ``scenario`` and ``scenario_variant`` for scenario-generated logs —
so any log record traces back to a reproducible ``(scenario, seed)``
replay.  All three are excluded from the explanation feature schema
(:data:`repro.core.features.DEFAULT_EXCLUDED_FEATURES`) — they label the
data, they are not observables.

Task records are emitted **columnar**: per-feature columns (job-level
constants broadcast, per-task values extracted in bulk) are zipped into
record rows, skipping the per-record dict-literal assembly the original
runner performed — the record-construction twin of the engine's columnar
trace emission.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.config import MapReduceConfig
from repro.cluster.engine import SimulationEngine, SimulationResult, TaskExecution
from repro.cluster.faults import NO_FAULTS, FaultModel
from repro.cluster.hdfs import Dataset
from repro.cluster.jobs import make_job_id
from repro.cluster.tasks import TaskType
from repro.exceptions import WorkloadError
from repro.logs.records import FeatureValue, JobRecord, TaskRecord
from repro.monitoring.aggregate import (
    job_averages_from_task_averages,
    task_metric_averages,
)
from repro.monitoring.sampler import GangliaSampler
from repro.workloads.excite import DEFAULT_PROFILE, ExciteLogProfile
from repro.workloads.pig import PigScript, compile_pig_job

@dataclass
class WorkloadRun:
    """Everything produced by running one workload configuration."""

    job_record: JobRecord
    task_records: list[TaskRecord]
    simulation: SimulationResult


def run_workload(
    script: PigScript,
    dataset: Dataset,
    config: MapReduceConfig,
    num_instances: int,
    seed: int = 0,
    job_sequence: int = 1,
    reduce_tasks_factor: float | None = None,
    fault_model: FaultModel = NO_FAULTS,
    profile: ExciteLogProfile = DEFAULT_PROFILE,
    sampling_period: float = 5.0,
    submit_time: float = 0.0,
    extra_metadata: dict[str, FeatureValue] | None = None,
    scenario: str | None = None,
    scenario_variant: str | None = None,
    cluster_spec: ClusterSpec | None = None,
    locality_miss_fraction: float = 0.0,
) -> WorkloadRun:
    """Simulate one job and return its execution-log records.

    :param script: the Pig script cost model to run.
    :param dataset: the input dataset.
    :param config: MapReduce configuration for the job.
    :param num_instances: cluster size (number of virtual machines).
    :param seed: seed controlling cluster jitter, runtime noise and skew.
    :param job_sequence: sequence number used to mint the job id.
    :param reduce_tasks_factor: the grid's reduce-task factor (recorded as a
        feature; the actual reducer count is in ``config.num_reduce_tasks``).
    :param fault_model: optional fault injection.
    :param profile: statistical profile of the dataset.
    :param sampling_period: Ganglia sampling period in seconds.
    :param submit_time: wall-clock submission time of the job.
    :param extra_metadata: additional job-level features to record verbatim.
    :param scenario: scenario identifier stamped into every record (set by
        the :mod:`repro.workloads.scenarios` builders).
    :param scenario_variant: scenario variant label (e.g. ``"baseline"`` /
        ``"affected"``), stamped alongside ``scenario``.
    :param cluster_spec: full cluster override (instance type, background
        model, jitter); when given, ``num_instances`` must match its size.
    :param locality_miss_fraction: fraction of map tasks whose input block
        is not local and must be read over the network (cold HDFS caches,
        rack-remote replicas).
    """
    if cluster_spec is None:
        cluster_spec = ClusterSpec(num_instances=num_instances)
    elif cluster_spec.num_instances != num_instances:
        raise WorkloadError(
            f"cluster_spec provisions {cluster_spec.num_instances} instances "
            f"but num_instances is {num_instances}"
        )
    rng = random.Random(seed)
    cluster = cluster_spec.provision(rng)
    fault_model.degrade_cluster(cluster, rng)

    job_id = make_job_id(job_sequence)
    metadata: dict[str, FeatureValue] = {
        "reduce_tasks_factor": reduce_tasks_factor
        if reduce_tasks_factor is not None
        else 1.0,
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    # The simulation itself runs on a job-relative clock starting at zero
    # (each job gets a freshly provisioned cluster with its own background
    # load timeline); the wall-clock submit time only shifts the timestamps
    # recorded as features.
    spec = compile_pig_job(
        job_id=job_id,
        script=script,
        dataset=dataset,
        config=config,
        profile=profile,
        rng=rng,
        submit_time=0.0,
        metadata=metadata,
        locality_miss_fraction=locality_miss_fraction,
    )

    sim_engine = SimulationEngine(cluster, fault_model=fault_model, rng=rng)
    result = sim_engine.run(spec)
    result.engine_seed = seed
    result.scenario = scenario

    sampler = GangliaSampler(period=sampling_period, rng=random.Random(seed + 1))
    samples = sampler.sample(result.trace, cluster, start=result.job.start_time,
                             end=result.job.finish_time)

    # Each task's metric averages are computed exactly once and shared by
    # the task records and the job-level percolation.
    task_averages = [task_metric_averages(task, samples) for task in result.tasks]
    job_record = _build_job_record(result, cluster, task_averages,
                                   time_offset=submit_time,
                                   scenario_variant=scenario_variant)
    task_records = _build_task_records(result, task_averages,
                                       time_offset=submit_time,
                                       scenario_variant=scenario_variant)
    return WorkloadRun(job_record=job_record, task_records=task_records, simulation=result)


# --------------------------------------------------------------------- #
# feature extraction
# --------------------------------------------------------------------- #


def _build_job_record(
    result: SimulationResult,
    cluster: Cluster,
    task_averages: list[dict[str, float]],
    time_offset: float = 0.0,
    scenario_variant: str | None = None,
) -> JobRecord:
    job = result.job
    config = job.config
    map_tasks = result.map_tasks()
    reduce_tasks = result.reduce_tasks()
    total_map_slots = cluster.total_map_slots(config.map_slots_per_instance)

    features: dict[str, FeatureValue] = {
        # configuration parameters
        "pig_script": str(job.metadata.get("pig_script", job.name)),
        "numinstances": job.num_instances,
        "instance_type": cluster[0].instance_type.name,
        "blocksize": config.dfs_block_size,
        "num_reduce_tasks": job.num_reduce_tasks,
        "reduce_tasks_factor": float(job.metadata.get("reduce_tasks_factor", 1.0)),
        "iosortfactor": config.io_sort_factor,
        "iosortmb": config.io_sort_mb,
        "map_slots_per_instance": config.map_slots_per_instance,
        "reduce_slots_per_instance": config.reduce_slots_per_instance,
        "cluster_map_slots": total_map_slots,
        # data characteristics
        "inputsize": int(job.metadata.get("inputsize", job.counters.get("input_bytes", 0))),
        "input_records": int(job.metadata.get("input_records",
                                              job.counters.get("input_records", 0))),
        "dataset_name": str(job.metadata.get("dataset_name", "")),
        # job structure
        "num_map_tasks": job.num_map_tasks,
        "map_waves": _ceil_div(job.num_map_tasks, total_map_slots),
        "submit_time": time_offset + job.submit_time,
        "start_time": time_offset + job.start_time,
        # aggregated counters
        "hdfs_bytes_read": job.counters.get("hdfs_bytes_read", 0),
        "hdfs_bytes_written": job.counters.get("hdfs_bytes_written", 0),
        "file_bytes_written": job.counters.get("file_bytes_written", 0),
        "map_output_bytes": sum(t.counters.get("output_bytes", 0) for t in map_tasks),
        "map_input_records": sum(t.counters.get("input_records", 0) for t in map_tasks),
        "map_output_records": sum(t.counters.get("output_records", 0) for t in map_tasks),
        "reduce_input_records": sum(t.counters.get("input_records", 0) for t in reduce_tasks),
        "reduce_output_records": sum(t.counters.get("output_records", 0) for t in reduce_tasks),
        "shuffle_bytes": job.counters.get("shuffle_bytes", 0),
        "spilled_records": job.counters.get("spilled_records", 0),
        # provenance (excluded from the explanation schema)
        "engine_seed": result.engine_seed,
    }
    if result.scenario is not None:
        features["scenario"] = result.scenario
    if scenario_variant is not None:
        features["scenario_variant"] = scenario_variant
    features.update(job_averages_from_task_averages(task_averages))

    # Extra metadata passed by the grid (e.g. grid point index) is kept.
    for key, value in job.metadata.items():
        if key not in features and key not in {"pig_script", "inputsize", "input_records",
                                               "dataset_name", "reduce_tasks_factor"}:
            features[key] = value

    return JobRecord(job_id=job.job_id, features=features, duration=job.duration)


#: Task-record feature names, in column order (see ``_build_task_records``).
_TASK_FEATURE_NAMES: tuple[str, ...] = (
    "task_type",
    "job_id",
    "pig_script",
    "hostname",
    "tracker_name",
    "instance_index",
    "wave",
    "slot_order",
    "attempts",
    "start_time",
    "taskfinishtime",
    # configuration context copied onto every task
    "numinstances",
    "blocksize",
    "num_reduce_tasks",
    "iosortfactor",
    "num_map_tasks",
    # data volumes
    "inputsize",
    "input_records",
    "output_bytes",
    "output_records",
    "hdfs_bytes_read",
    "hdfs_bytes_written",
    "file_bytes_read",
    "file_bytes_written",
    "spilled_records",
    "combine_input_records",
    "combine_output_records",
    "shuffle_bytes",
    # map-only aliases used by the paper's despite clauses
    "map_input_records",
    "map_output_records",
    # phase timings the paper lists as task features (sorttime,
    # shuffletime, taskfinishtime); the map/reduce phase times themselves
    # are omitted because they are the duration being explained.
    "shuffletime",
    "sorttime",
    # provenance (excluded from the explanation schema)
    "engine_seed",
)


def _build_task_records(
    result: SimulationResult,
    task_averages: list[dict[str, float]],
    time_offset: float = 0.0,
    scenario_variant: str | None = None,
) -> list[TaskRecord]:
    """Emit one job's task records from per-feature column batches.

    Job-level constants are broadcast with :func:`itertools.repeat`,
    per-task values are extracted column-at-a-time, and each record's
    feature dict is assembled in one C-level ``dict(zip(names, row))``
    instead of a 50-key per-record dict literal.
    """
    job = result.job
    config = job.config
    tasks = result.tasks
    if not tasks:
        return []
    counters = [task.counters for task in tasks]
    is_map = [task.task_type is TaskType.MAP for task in tasks]

    columns: list = [
        [task.task_type.value for task in tasks],
        repeat(job.job_id),
        repeat(str(job.metadata.get("pig_script", job.name))),
        [task.hostname for task in tasks],
        [task.tracker_name for task in tasks],
        [task.instance_index for task in tasks],
        [task.wave for task in tasks],
        [task.slot_order for task in tasks],
        [task.attempts for task in tasks],
        [time_offset + task.start_time for task in tasks],
        [time_offset + task.finish_time for task in tasks],
        repeat(job.num_instances),
        repeat(config.dfs_block_size),
        repeat(job.num_reduce_tasks),
        repeat(config.io_sort_factor),
        repeat(job.num_map_tasks),
        [c.get("input_bytes", 0) for c in counters],
        [c.get("input_records", 0) for c in counters],
        [c.get("output_bytes", 0) for c in counters],
        [c.get("output_records", 0) for c in counters],
        [c.get("hdfs_bytes_read", 0) for c in counters],
        [c.get("hdfs_bytes_written", 0) for c in counters],
        [c.get("file_bytes_read", 0) for c in counters],
        [c.get("file_bytes_written", 0) for c in counters],
        [c.get("spilled_records", 0) for c in counters],
        [c.get("combine_input_records", 0) for c in counters],
        [c.get("combine_output_records", 0) for c in counters],
        [c.get("shuffle_bytes", 0) for c in counters],
        [c.get("input_records", 0) if m else None for c, m in zip(counters, is_map)],
        [c.get("output_records", 0) if m else None for c, m in zip(counters, is_map)],
        [None if m else task.phase_seconds("shuffle")
         for task, m in zip(tasks, is_map)],
        [task.phase_seconds("sort") for task in tasks],
        repeat(result.engine_seed),
    ]
    names = list(_TASK_FEATURE_NAMES)
    if result.scenario is not None:
        names.append("scenario")
        columns.append(repeat(result.scenario))
    if scenario_variant is not None:
        names.append("scenario_variant")
        columns.append(repeat(scenario_variant))
    # The avg_* metric columns ride along from the precomputed per-task
    # averages (each dict iterates in AVG_METRIC_NAMES order).
    avg_names = tuple(task_averages[0])
    names.extend(avg_names)
    columns.extend(
        [averages[name] for averages in task_averages] for name in avg_names
    )
    names = tuple(names)

    job_id = job.job_id
    return [
        TaskRecord(
            task_id=task.task_id,
            job_id=job_id,
            features=dict(zip(names, row)),
            duration=task.duration,
        )
        for task, row in zip(tasks, zip(*columns))
    ]


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // max(1, denominator))

"""Tests for the workload runner and the experiment grid."""

import pytest

from repro.cluster.config import MapReduceConfig
from repro.exceptions import WorkloadError
from repro.logs.store import ExecutionLog
from repro.units import GB, MB
from repro.workloads.excite import excite_dataset
from repro.workloads.grid import (
    GridPoint,
    ParameterGrid,
    build_experiment_log,
    paper_grid,
    small_grid,
    tiny_grid,
)
from repro.workloads.pig import SIMPLE_FILTER
from repro.workloads.runner import run_workload

from tests.oracles.engineref import ReferenceSimulationEngine


class TestRunWorkload:
    def test_produces_job_and_task_records(self, single_run):
        assert single_run.job_record.duration > 0
        assert len(single_run.task_records) == len(single_run.simulation.tasks)

    def test_job_features_include_configuration(self, single_run):
        features = single_run.job_record.features
        assert features["pig_script"] == "simple-filter.pig"
        assert features["numinstances"] == 4
        assert features["blocksize"] == 64 * MB
        assert features["inputsize"] == excite_dataset(6).size_bytes

    def test_job_features_include_ganglia_averages(self, single_run):
        features = single_run.job_record.features
        assert "avg_cpu_user" in features
        assert "avg_load_five" in features
        assert 0 <= features["avg_cpu_user"] <= 100

    def test_job_features_do_not_leak_duration(self, single_run):
        # Task-timing aggregates would let explanations restate the runtime.
        assert "duration" not in single_run.job_record.features
        assert "avg_map_task_seconds" not in single_run.job_record.features
        assert "finish_time" not in single_run.job_record.features

    def test_task_features_match_paper_names(self, single_run):
        features = single_run.task_records[0].features
        for name in ("task_type", "tracker_name", "hostname", "inputsize",
                     "hdfs_bytes_read", "sorttime", "taskfinishtime",
                     "avg_cpu_user", "job_id"):
            assert name in features

    def test_map_task_count_follows_block_size(self, single_run):
        features = single_run.job_record.features
        expected = -(-features["inputsize"] // features["blocksize"])
        assert features["num_map_tasks"] == expected

    def test_task_durations_sum_to_less_than_walltime_times_slots(self, single_run):
        job = single_run.job_record
        total_task_time = sum(task.duration for task in single_run.task_records)
        # 4 instances x (2 map + 2 reduce) slots bounds the parallel work.
        assert total_task_time <= job.duration * 4 * 4

    def test_filter_map_only_has_no_reduce_records(self, single_run):
        types = {task.features["task_type"] for task in single_run.task_records}
        assert types == {"MAP"}

    def test_groupby_has_reduce_records(self, groupby_run):
        types = {task.features["task_type"] for task in groupby_run.task_records}
        assert types == {"MAP", "REDUCE"}
        reduce_tasks = [t for t in groupby_run.task_records
                        if t.features["task_type"] == "REDUCE"]
        assert all(t.features["shuffletime"] is not None for t in reduce_tasks)

    def test_same_seed_reproducible(self):
        config = MapReduceConfig(dfs_block_size=64 * MB, num_reduce_tasks=2)
        first = run_workload(SIMPLE_FILTER, excite_dataset(3), config, 2, seed=42)
        second = run_workload(SIMPLE_FILTER, excite_dataset(3), config, 2, seed=42)
        assert first.job_record.duration == pytest.approx(second.job_record.duration)

    def test_different_seeds_differ(self):
        config = MapReduceConfig(dfs_block_size=64 * MB, num_reduce_tasks=2)
        first = run_workload(SIMPLE_FILTER, excite_dataset(3), config, 2, seed=1)
        second = run_workload(SIMPLE_FILTER, excite_dataset(3), config, 2, seed=2)
        assert first.job_record.duration != pytest.approx(second.job_record.duration)

    def test_larger_input_takes_longer(self):
        config = MapReduceConfig(dfs_block_size=64 * MB, num_reduce_tasks=2)
        small = run_workload(SIMPLE_FILTER, excite_dataset(3), config, 4, seed=5)
        large = run_workload(SIMPLE_FILTER, excite_dataset(24), config, 4, seed=5)
        assert large.job_record.duration > small.job_record.duration * 1.5

    def test_motivating_example_same_runtime_when_cluster_underused(self):
        # The paper's motivating scenario: with a large block size and a big
        # cluster, a dataset and a much smaller one take a similar time
        # because neither fills the cluster and each map processes one block.
        config = MapReduceConfig(dfs_block_size=256 * MB, num_reduce_tasks=1)
        big = run_workload(SIMPLE_FILTER, excite_dataset(24), config, 16, seed=8)
        small = run_workload(SIMPLE_FILTER, excite_dataset(6), config, 16, seed=9)
        ratio = big.job_record.duration / small.job_record.duration
        assert ratio < 1.6


class TestGrid:
    def test_paper_grid_matches_table2(self):
        grid = paper_grid()
        assert len(grid) == 5 * 2 * 3 * 3 * 3 * 2 == 540
        assert set(grid.num_instances) == {1, 2, 4, 8, 16}
        assert set(grid.block_sizes) == {64 * MB, 256 * MB, 1024 * MB}
        assert set(grid.io_sort_factors) == {10, 50, 100}
        assert set(grid.reduce_tasks_factors) == {1.0, 1.5, 2.0}

    def test_paper_grid_input_sizes(self):
        sizes = {excite_dataset(factor).size_bytes for factor in paper_grid().concat_factors}
        assert any(abs(size - 1.3 * GB) < 0.05 * GB for size in sizes)
        assert any(abs(size - 2.6 * GB) < 0.05 * GB for size in sizes)

    def test_points_enumeration(self):
        grid = tiny_grid()
        points = grid.points()
        assert len(points) == len(grid)
        assert len({tuple(vars(p).values()) for p in points}) == len(points)

    def test_grid_point_reducer_count_follows_paper_rule(self):
        point = GridPoint(8, 30, 64 * MB, 1.5, 10, "simple-groupby.pig")
        assert point.num_reduce_tasks() == 12

    def test_grid_point_config(self):
        point = GridPoint(4, 30, 256 * MB, 2.0, 50, "simple-groupby.pig")
        config = point.config()
        assert config.dfs_block_size == 256 * MB
        assert config.num_reduce_tasks == 8
        assert config.io_sort_factor == 50

    def test_unknown_script_rejected(self):
        with pytest.raises(WorkloadError):
            ParameterGrid((1,), (1,), (64 * MB,), (1.0,), (10,), ("nope.pig",))

    def test_empty_dimension_rejected(self):
        with pytest.raises(WorkloadError):
            ParameterGrid((), (1,), (64 * MB,), (1.0,), (10,), ("simple-filter.pig",))


class TestBuildExperimentLog:
    def test_tiny_log_covers_grid(self, tiny_log):
        assert tiny_log.num_jobs == len(tiny_grid())
        assert tiny_log.num_tasks > tiny_log.num_jobs

    def test_job_ids_unique(self, tiny_log):
        ids = [job.job_id for job in tiny_log.jobs]
        assert len(ids) == len(set(ids))

    def test_all_grid_scripts_present(self, tiny_log):
        scripts = {job.features["pig_script"] for job in tiny_log.jobs}
        assert scripts == {"simple-filter.pig", "simple-groupby.pig"}

    def test_durations_vary_across_configurations(self, tiny_log):
        durations = [job.duration for job in tiny_log.jobs]
        assert max(durations) > 2 * min(durations)

    def test_without_tasks(self):
        log = build_experiment_log(tiny_grid(), seed=3, include_tasks=False)
        assert log.num_tasks == 0
        assert log.num_jobs == len(tiny_grid())

    def test_repetitions_multiply_jobs(self):
        grid = ParameterGrid((2,), (2,), (64 * MB,), (1.0,), (10,),
                             ("simple-filter.pig",))
        log = build_experiment_log(grid, seed=1, repetitions=3, include_tasks=False)
        assert log.num_jobs == 3

    def test_invalid_repetitions(self):
        with pytest.raises(WorkloadError):
            build_experiment_log(tiny_grid(), repetitions=0)

    def test_submit_times_increase(self, tiny_log):
        submits = [job.features["submit_time"] for job in tiny_log.jobs]
        assert all(b > a for a, b in zip(submits, submits[1:]))

    def test_returns_execution_log(self, tiny_log):
        assert isinstance(tiny_log, ExecutionLog)


class TestEngineSelectionAndProvenance:
    def test_reference_engine_builds_identical_log(self, monkeypatch):
        event = build_experiment_log(tiny_grid(), seed=3)
        monkeypatch.setattr(
            "repro.workloads.runner.SimulationEngine", ReferenceSimulationEngine
        )
        reference = build_experiment_log(tiny_grid(), seed=3)
        assert event.jobs == reference.jobs
        assert event.tasks == reference.tasks

    def test_engine_seed_stamped_on_all_records(self, tiny_log):
        assert all("engine_seed" in job.features for job in tiny_log.jobs)
        assert all("engine_seed" in task.features for task in tiny_log.tasks)

    def test_engine_seed_replays_the_run(self):
        config = MapReduceConfig(dfs_block_size=64 * MB, num_reduce_tasks=2)
        run = run_workload(SIMPLE_FILTER, excite_dataset(3), config, 2, seed=77)
        seed = run.job_record.features["engine_seed"]
        assert seed == run.simulation.engine_seed == 77
        replay = run_workload(SIMPLE_FILTER, excite_dataset(3), config, 2, seed=seed)
        assert replay.job_record.duration == run.job_record.duration
        assert [t.duration for t in replay.task_records] == [
            t.duration for t in run.task_records
        ]

    def test_scenario_stamp_only_when_set(self):
        config = MapReduceConfig(dfs_block_size=64 * MB, num_reduce_tasks=2)
        plain = run_workload(SIMPLE_FILTER, excite_dataset(3), config, 2)
        tagged = run_workload(SIMPLE_FILTER, excite_dataset(3), config, 2,
                              scenario="data-skew")
        assert "scenario" not in plain.job_record.features
        assert tagged.job_record.features["scenario"] == "data-skew"
        assert all(t.features["scenario"] == "data-skew" for t in tagged.task_records)

    def test_provenance_excluded_from_schema(self, tiny_log):
        from repro.core.features import infer_schema

        schema = infer_schema(tiny_log.jobs)
        assert "engine_seed" not in schema
        assert "scenario" not in schema

    def test_cluster_spec_override(self):
        from repro.cluster.cluster import ClusterSpec

        config = MapReduceConfig(dfs_block_size=64 * MB, num_reduce_tasks=2)
        run = run_workload(
            SIMPLE_FILTER, excite_dataset(3), config, 2, seed=4,
            cluster_spec=ClusterSpec(num_instances=2, instance_type="m1.small"),
        )
        assert run.job_record.features["instance_type"] == "m1.small"
        with pytest.raises(WorkloadError):
            run_workload(
                SIMPLE_FILTER, excite_dataset(3), config, 4, seed=4,
                cluster_spec=ClusterSpec(num_instances=2),
            )

    def test_locality_misses_slow_the_job_via_network_reads(self):
        config = MapReduceConfig(dfs_block_size=64 * MB, num_reduce_tasks=1)
        local = run_workload(SIMPLE_FILTER, excite_dataset(6), config, 2, seed=5,
                             sampling_period=0.5)
        remote = run_workload(SIMPLE_FILTER, excite_dataset(6), config, 2, seed=5,
                              sampling_period=0.5, locality_miss_fraction=1.0)
        assert remote.job_record.duration > local.job_record.duration
        # Remote reads show up as network traffic on a map-only job.
        assert (remote.job_record.features["avg_bytes_in"]
                > local.job_record.features["avg_bytes_in"])
        with pytest.raises(WorkloadError):
            run_workload(SIMPLE_FILTER, excite_dataset(3), config, 2,
                         locality_miss_fraction=1.5)


class TestParallelSweep:
    def test_parallel_log_identical_to_sequential(self):
        sequential = build_experiment_log(tiny_grid(), seed=11)
        parallel = build_experiment_log(tiny_grid(), seed=11, workers=2)
        assert parallel.jobs == sequential.jobs
        assert parallel.tasks == sequential.tasks

    def test_invalid_workers_rejected(self):
        with pytest.raises(WorkloadError):
            build_experiment_log(tiny_grid(), workers=0)

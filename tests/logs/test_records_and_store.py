"""Tests for execution records and the ExecutionLog store."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import DuplicateRecordError, LogFormatError, UnknownFeatureError
from repro.logs.records import JobRecord, TaskRecord, record_from_dict, record_to_dict
from repro.logs.store import ExecutionLog


def make_job(job_id="job_1", duration=100.0, **features):
    defaults = {"pig_script": "simple-filter.pig", "numinstances": 4, "inputsize": 1000}
    defaults.update(features)
    return JobRecord(job_id=job_id, features=defaults, duration=duration)


def make_task(task_id="task_1", job_id="job_1", duration=10.0, **features):
    defaults = {"task_type": "MAP", "hostname": "host-0"}
    defaults.update(features)
    return TaskRecord(task_id=task_id, job_id=job_id, features=defaults, duration=duration)


class TestRecords:
    def test_get_known_feature(self):
        assert make_job().get("numinstances") == 4

    def test_get_unknown_feature_raises(self):
        with pytest.raises(UnknownFeatureError):
            make_job().get("no_such_feature")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_job(duration=-1.0)

    def test_empty_job_id_rejected(self):
        with pytest.raises(ValueError):
            JobRecord(job_id="", features={}, duration=1.0)

    def test_invalid_feature_value_rejected(self):
        with pytest.raises(ValueError):
            JobRecord(job_id="j", features={"x": object()}, duration=1.0)

    def test_feature_names_sorted(self):
        job = make_job(zeta=1, alpha=2)
        names = job.feature_names()
        assert names == sorted(names)

    def test_roundtrip_dict(self):
        job = make_job()
        assert record_from_dict(record_to_dict(job)) == job
        task = make_task()
        assert record_from_dict(record_to_dict(task)) == task

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"kind": "mystery"})

    def test_entity_ids(self):
        assert make_job().entity_id == "job_1"
        assert make_task().entity_id == "task_1"


class TestExecutionLog:
    def _log(self, num_jobs=6, tasks_per_job=2):
        log = ExecutionLog()
        for j in range(num_jobs):
            script = "simple-filter.pig" if j % 2 == 0 else "simple-groupby.pig"
            job = make_job(f"job_{j}", duration=50.0 + j, pig_script=script)
            tasks = [
                make_task(f"task_{j}_{t}", f"job_{j}") for t in range(tasks_per_job)
            ]
            log.add_job(job, tasks)
        return log

    def test_counts(self):
        log = self._log()
        assert log.num_jobs == 6
        assert log.num_tasks == 12

    def test_duplicate_job_rejected(self):
        log = self._log()
        with pytest.raises(DuplicateRecordError) as excinfo:
            log.add_job(make_job("job_0"))
        assert excinfo.value.kind == "job"
        assert excinfo.value.record_id == "job_0"

    def test_duplicate_task_rejected(self):
        log = self._log()
        with pytest.raises(DuplicateRecordError) as excinfo:
            log.add_task(make_task("task_0_0", "job_0"))
        assert excinfo.value.kind == "task"
        assert excinfo.value.record_id == "task_0_0"

    def test_find_job_and_task(self):
        log = self._log()
        assert log.find_job("job_3").job_id == "job_3"
        assert log.find_job("nope") is None
        assert log.find_task("task_2_1").task_id == "task_2_1"
        assert log.find_task("nope") is None

    def test_tasks_of_job(self):
        log = self._log()
        assert {t.task_id for t in log.tasks_of_job("job_1")} == {"task_1_0", "task_1_1"}

    def test_filter_by_feature_keeps_tasks(self):
        log = self._log()
        filtered = log.filter_by_feature("pig_script", "simple-filter.pig")
        assert filtered.num_jobs == 3
        assert filtered.num_tasks == 6

    def test_filter_jobs_without_tasks(self):
        log = self._log()
        filtered = log.filter_jobs(lambda job: True, keep_tasks=False)
        assert filtered.num_jobs == 6
        assert filtered.num_tasks == 0

    def test_merge_deduplicates(self):
        log = self._log()
        merged = log.merge(self._log())
        assert merged.num_jobs == log.num_jobs
        assert merged.num_tasks == log.num_tasks

    def test_split_partitions_jobs(self):
        log = self._log(num_jobs=30)
        train, test = log.split_train_test(0.5, rng=random.Random(0))
        assert train.num_jobs + test.num_jobs == 30
        assert train.num_jobs > 0 and test.num_jobs > 0
        train_ids = {job.job_id for job in train.jobs}
        test_ids = {job.job_id for job in test.jobs}
        assert not train_ids & test_ids

    def test_split_forced_jobs_on_both_sides(self):
        log = self._log(num_jobs=10)
        train, test = log.split_train_test(0.5, rng=random.Random(1),
                                           always_include_job_ids=["job_0"])
        assert train.find_job("job_0") is not None
        assert test.find_job("job_0") is not None

    def test_split_carries_tasks_with_jobs(self):
        log = self._log(num_jobs=10)
        train, test = log.split_train_test(0.5, rng=random.Random(2))
        for part in (train, test):
            for job in part.jobs:
                assert len(part.tasks_of_job(job.job_id)) == 2

    def test_split_invalid_fraction(self):
        with pytest.raises(ValueError):
            self._log().split_train_test(1.5)

    def test_sample_jobs_fraction(self):
        log = self._log(num_jobs=40)
        sampled = log.sample_jobs(0.25, rng=random.Random(3))
        assert 0 < sampled.num_jobs < 40

    def test_sample_jobs_forced_included(self):
        log = self._log(num_jobs=40)
        sampled = log.sample_jobs(0.01, rng=random.Random(3),
                                  always_include_job_ids=["job_39"])
        assert sampled.find_job("job_39") is not None

    def test_json_roundtrip(self, tmp_path):
        log = self._log()
        path = tmp_path / "log.json"
        log.save(path)
        loaded = ExecutionLog.load(path)
        assert loaded.num_jobs == log.num_jobs
        assert loaded.num_tasks == log.num_tasks
        assert loaded.find_job("job_0") == log.find_job("job_0")

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[]",
            '{"jobs": {}}',
            '{"jobs": [5], "tasks": []}',
            '{"jobs": [{"kind": "job"}]}',
            '{"jobs": [{"kind": "meta"}]}',
            '{"tasks": [{"kind": "job", "job_id": "j", "features": {}, '
            '"duration": 1}]}',
        ],
    )
    def test_invalid_json_raises(self, text):
        with pytest.raises(LogFormatError):
            ExecutionLog.from_json(text)

    def test_duplicate_id_raises_like_jsonl(self, tmp_path):
        import json

        job = record_to_dict(make_job("job_dup"))
        text = json.dumps({"jobs": [job, job], "tasks": []})
        with pytest.raises(DuplicateRecordError) as excinfo:
            ExecutionLog.from_json(text)
        assert excinfo.value.record_id == "job_dup"
        path = tmp_path / "dupes.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DuplicateRecordError) as excinfo:
            ExecutionLog.load(path)
        assert str(path) in str(excinfo.value)

    def test_job_feature_values(self):
        log = self._log()
        values = log.job_feature_values("pig_script")
        assert len(values) == 6
        assert set(values) == {"simple-filter.pig", "simple-groupby.pig"}

    @given(fraction=st.floats(min_value=0.05, max_value=0.95), seed=st.integers(0, 100))
    def test_split_never_loses_or_duplicates_jobs(self, fraction, seed):
        log = self._log(num_jobs=20)
        train, test = log.split_train_test(fraction, rng=random.Random(seed))
        train_ids = {job.job_id for job in train.jobs}
        test_ids = {job.job_id for job in test.jobs}
        assert train_ids | test_ids == {f"job_{i}" for i in range(20)}
        assert not train_ids & test_ids


class TestIdIndexes:
    """The lazy id indexes behind find_job/find_task/tasks_of_job."""

    def _log(self, n_jobs=20, tasks_per_job=3):
        log = ExecutionLog()
        for j in range(n_jobs):
            job = make_job(job_id=f"job_{j}")
            tasks = [
                make_task(task_id=f"task_{j}_{t}", job_id=f"job_{j}")
                for t in range(tasks_per_job)
            ]
            log.add_job(job, tasks)
        return log

    def test_find_after_direct_list_append(self):
        """Direct list mutation (from_json style) is picked up lazily."""
        log = self._log()
        log.jobs.append(make_job(job_id="job_direct"))
        log.tasks.append(make_task(task_id="task_direct", job_id="job_direct"))
        assert log.find_job("job_direct") is not None
        assert log.find_task("task_direct") is not None
        assert log.find_job("job_0") is not None

    def test_add_after_find_keeps_index_fresh(self):
        log = self._log()
        assert log.find_job("job_5") is not None  # builds the index
        log.add_job(make_job(job_id="job_new"))
        assert log.find_job("job_new") is not None
        with pytest.raises(DuplicateRecordError):
            log.add_job(make_job(job_id="job_new"))

    def test_tasks_of_job_grouping_matches_linear_scan(self):
        log = self._log()
        for job in log.jobs:
            expected = [task for task in log.tasks if task.job_id == job.job_id]
            assert log.tasks_of_job(job.job_id) == expected
        assert log.tasks_of_job("missing") == []

    def test_tasks_of_job_sees_new_tasks(self):
        log = self._log()
        before = log.tasks_of_job("job_0")
        log.add_task(make_task(task_id="task_late", job_id="job_0"))
        assert len(log.tasks_of_job("job_0")) == len(before) + 1

    def test_returned_task_list_is_a_copy(self):
        log = self._log()
        log.tasks_of_job("job_0").append("garbage")
        assert all(isinstance(t, TaskRecord) for t in log.tasks_of_job("job_0"))


class TestRecordBlock:
    def test_block_is_cached_per_schema_and_count(self):
        from repro.core.features import infer_schema

        log = ExecutionLog()
        for j in range(5):
            log.add_job(make_job(job_id=f"job_{j}", inputsize=100 * j))
        schema = infer_schema(log.jobs)
        block = log.record_block(schema, kind="job")
        assert log.record_block(schema, kind="job") is block
        # Same contents, different schema object: still one build.
        assert log.record_block(infer_schema(log.jobs), kind="job") is block
        # Appending a record extends the cached block in place: same
        # object, grown to cover the new row.
        log.add_job(make_job(job_id="job_extra", inputsize=999))
        extended = log.record_block(schema, kind="job")
        assert extended is block
        assert len(extended) == 6
        assert extended.ids[-1] == "job_extra"
        assert extended.column("inputsize").raw[-1] == 999

    def test_block_rejects_unknown_kind(self):
        from repro.core.features import infer_schema

        log = ExecutionLog(jobs=[make_job()])
        with pytest.raises(ValueError):
            log.record_block(infer_schema(log.jobs), kind="stage")

    def test_column_encoding_roundtrip(self):
        from repro.core.features import FeatureKind, FeatureSchema

        log = ExecutionLog()
        values = [3.5, None, 3.5, 0.0, True, "x"]
        for index, value in enumerate(values):
            log.add_job(
                JobRecord(job_id=f"job_{index}", features={"f": value},
                          duration=float(index))
            )
        schema = FeatureSchema()
        schema.add("f", FeatureKind.NUMERIC)
        schema.add("duration", FeatureKind.NUMERIC)
        block = log.record_block(schema, kind="job")
        column = block.column("f")
        rows = range(len(values))
        assert column.raw == values
        # Missing -> code -1; equal values share a code.
        codes = column.gather("codes", rows)
        assert codes[0] == codes[2]
        assert codes[1] == -1
        assert bytes(column.gather("selfeq", rows)) == bytes([1, 0, 1, 1, 1, 1])
        # Only genuinely numeric values are float-eligible (bool is not).
        assert bytes(column.gather("num_ok", rows)) == bytes([1, 0, 1, 1, 0, 0])
        assert not column.all_numeric
        assert column.gather("floats", rows)[0] == 3.5
        # duration reads the performance metric off the record.
        duration = block.column("duration")
        assert duration.raw == [float(i) for i in range(6)]
        assert duration.all_numeric

    def test_ids_align_with_records(self):
        from repro.core.features import infer_schema

        log = ExecutionLog()
        for j in range(4):
            log.add_job(make_job(job_id=f"job_{j}"), [
                make_task(task_id=f"task_{j}", job_id=f"job_{j}")
            ])
        block = log.record_block(infer_schema(log.tasks), kind="task")
        assert block.ids == [task.task_id for task in log.tasks]
        assert block.id_bytes == [task.task_id.encode() for task in log.tasks]
        assert len(block) == len(log.tasks)


class TestMutationVersioning:
    """The mutation version counter behind every cached view (PR 4)."""

    def _schema(self, log):
        from repro.core.features import infer_schema

        return infer_schema(log.jobs)

    def test_replace_job_updates_find_job(self):
        log = ExecutionLog()
        log.add_job(make_job("job_1", numinstances=4))
        log.replace_job(make_job("job_1", numinstances=16))
        assert log.find_job("job_1").features["numinstances"] == 16

    def test_replace_job_invalidates_record_block(self):
        # Regression: same-length in-place replacement used to keep serving
        # the stale block because the cache was keyed on record count only.
        log = ExecutionLog()
        log.add_job(make_job("job_1", numinstances=4))
        log.add_job(make_job("job_2", numinstances=8))
        schema = self._schema(log)
        before = log.record_block(schema, kind="job")
        assert before.column("numinstances").raw == [4, 8]
        log.replace_job(make_job("job_2", numinstances=2))
        after = log.record_block(schema, kind="job")
        assert after is not before
        assert after.column("numinstances").raw == [4, 2]

    def test_replace_task_invalidates_block_and_groups(self):
        from repro.core.features import infer_schema

        log = ExecutionLog()
        log.add_job(make_job("job_1"), [make_task("task_1", hostname="host-0")])
        schema = infer_schema(log.tasks)
        before = log.record_block(schema, kind="task")
        log.replace_task(make_task("task_1", hostname="host-9"))
        after = log.record_block(schema, kind="task")
        assert after is not before
        assert after.column("hostname").raw == ["host-9"]
        assert log.find_task("task_1").features["hostname"] == "host-9"
        assert log.tasks_of_job("job_1")[0].features["hostname"] == "host-9"

    def test_replace_missing_record_raises(self):
        log = ExecutionLog()
        log.add_job(make_job("job_1"))
        with pytest.raises(ValueError):
            log.replace_job(make_job("job_x"))
        with pytest.raises(ValueError):
            log.replace_task(make_task("task_x"))

    def test_extend_bulk_appends_and_checks_duplicates(self):
        log = ExecutionLog()
        log.extend(jobs=[make_job("job_1"), make_job("job_2")],
                   tasks=[make_task("task_1")])
        assert log.num_jobs == 2 and log.num_tasks == 1
        assert log.find_job("job_2") is log.jobs[1]
        with pytest.raises(DuplicateRecordError):
            log.extend(jobs=[make_job("job_1")])
        with pytest.raises(DuplicateRecordError):
            log.extend(tasks=[make_task("task_1")])
        with pytest.raises(DuplicateRecordError):
            log.extend(jobs=[make_job("job_3"), make_job("job_3")])

    def test_extend_is_atomic_on_duplicates(self):
        log = ExecutionLog()
        log.add_job(make_job("job_1"))
        log.add_task(make_task("task_1"))
        with pytest.raises(DuplicateRecordError):
            log.extend(jobs=[make_job("job_2")], tasks=[make_task("task_1")])
        # The failing batch left no partial state behind...
        assert log.num_jobs == 1 and log.num_tasks == 1
        assert log.find_job("job_2") is None
        # ...so a corrected retry goes through cleanly.
        log.extend(jobs=[make_job("job_2")], tasks=[make_task("task_2")])
        assert log.num_jobs == 2 and log.num_tasks == 2

    def test_merge_result_serves_fresh_blocks(self):
        first = ExecutionLog()
        first.add_job(make_job("job_1", numinstances=1))
        schema = self._schema(first)
        stale = first.record_block(schema, kind="job")
        second = ExecutionLog()
        second.add_job(make_job("job_2", numinstances=2))
        merged = first.merge(second)
        block = merged.record_block(schema, kind="job")
        assert block is not stale
        assert block.column("numinstances").raw == [1, 2]
        # The source log's cache is untouched and still valid.
        assert first.record_block(schema, kind="job") is stale

    def test_invalidate_caches_after_direct_mutation(self):
        log = ExecutionLog()
        log.add_job(make_job("job_1", numinstances=4))
        schema = self._schema(log)
        log.record_block(schema, kind="job")
        log.jobs[0] = make_job("job_1", numinstances=32)  # out-of-band
        log.invalidate_caches()
        assert log.record_block(schema, kind="job").column("numinstances").raw == [32]
        assert log.find_job("job_1").features["numinstances"] == 32

    def test_direct_appends_still_invalidate_by_length(self):
        log = ExecutionLog()
        log.add_job(make_job("job_1"))
        schema = self._schema(log)
        log.record_block(schema, kind="job")
        log.jobs.append(make_job("job_2"))  # legacy direct append
        assert len(log.record_block(schema, kind="job")) == 2
        assert log.find_job("job_2") is log.jobs[1]


class TestLoadDuplicateIds:
    """Regression: duplicate record ids in a ``.jsonl(.gz)`` file must
    surface as a :class:`LogFormatError` naming the path and the id, not
    leak the bare ``ValueError`` from :meth:`ExecutionLog.extend`."""

    def _write_duplicate_tasks(self, path):
        from repro.logs.writer import write_records_jsonl

        task = make_task(task_id="task_dup")
        clone = make_task(task_id="task_dup", duration=99.0)
        write_records_jsonl(path, [make_job()], [task, clone])

    def test_duplicate_task_id_raises_log_format_error(self, tmp_path):
        target = tmp_path / "dupes.jsonl"
        self._write_duplicate_tasks(target)
        with pytest.raises(LogFormatError) as excinfo:
            ExecutionLog.load(target)
        message = str(excinfo.value)
        assert str(target) in message
        assert "task_dup" in message

    def test_duplicate_task_id_raises_for_gzip(self, tmp_path):
        target = tmp_path / "dupes.jsonl.gz"
        self._write_duplicate_tasks(target)
        with pytest.raises(LogFormatError) as excinfo:
            ExecutionLog.load(target)
        assert "task_dup" in str(excinfo.value)

    def test_duplicate_job_id_raises_log_format_error(self, tmp_path):
        from repro.logs.writer import write_records_jsonl

        target = tmp_path / "dupes.jsonl"
        write_records_jsonl(
            target, [make_job("job_dup"), make_job("job_dup", duration=2.0)], []
        )
        with pytest.raises(LogFormatError) as excinfo:
            ExecutionLog.load(target)
        message = str(excinfo.value)
        assert str(target) in message and "job_dup" in message

    def test_clean_jsonl_still_loads(self, tmp_path):
        from repro.logs.writer import write_records_jsonl

        target = tmp_path / "clean.jsonl"
        write_records_jsonl(target, [make_job()], [make_task()])
        log = ExecutionLog.load(target)
        assert log.num_jobs == 1 and log.num_tasks == 1


class TestBlockCacheBounds:
    """Regression: the per-``(kind, schema)`` block cache must not grow
    without bound under evolving schemas, and must report its counters."""

    @staticmethod
    def _schema_with_extras(log, count):
        from repro.core.features import FeatureKind, infer_schema

        schema = infer_schema(log.jobs)
        for index in range(count):
            schema.add(f"synthetic_{index}", FeatureKind.NOMINAL)
        return schema

    def test_stale_schema_entries_are_evicted(self):
        from repro.logs.store import MAX_BLOCKS_PER_KIND

        log = ExecutionLog(jobs=[make_job()])
        for count in range(3 * MAX_BLOCKS_PER_KIND):
            log.record_block(self._schema_with_extras(log, count), kind="job")
        stats = log.block_cache_stats()
        assert stats["size"] <= MAX_BLOCKS_PER_KIND
        assert stats["evictions"] >= 2 * MAX_BLOCKS_PER_KIND
        assert stats["misses"] == 3 * MAX_BLOCKS_PER_KIND

    def test_newest_schemas_survive_eviction(self):
        from repro.logs.store import MAX_BLOCKS_PER_KIND

        log = ExecutionLog(jobs=[make_job()])
        schemas = [
            self._schema_with_extras(log, count)
            for count in range(MAX_BLOCKS_PER_KIND + 2)
        ]
        blocks = [log.record_block(schema, kind="job") for schema in schemas]
        # The most recent MAX_BLOCKS_PER_KIND schemas are still cache hits.
        hits_before = log.block_cache_stats()["hits"]
        for schema, block in zip(schemas[2:], blocks[2:]):
            assert log.record_block(schema, kind="job") is block
        assert log.block_cache_stats()["hits"] == hits_before + MAX_BLOCKS_PER_KIND

    def test_mutation_drops_stale_blocks_of_kind(self):
        from repro.core.features import infer_schema

        log = ExecutionLog(jobs=[make_job("job_1")])
        schema = infer_schema(log.jobs)
        log.record_block(schema, kind="job")
        log.add_job(make_job("job_2"))
        block = log.record_block(schema, kind="job")
        # The pre-mutation snapshot was replaced in place, not stranded.
        assert log.block_cache_stats()["size"] == 1
        assert log.record_block(schema, kind="job") is block

    def test_kinds_are_bounded_independently(self):
        from repro.logs.store import MAX_BLOCKS_PER_KIND

        log = ExecutionLog(jobs=[make_job()], tasks=[make_task()])
        for count in range(MAX_BLOCKS_PER_KIND + 3):
            schema = self._schema_with_extras(log, count)
            log.record_block(schema, kind="job")
            log.record_block(schema, kind="task")
        stats = log.block_cache_stats()
        assert stats["size"] <= 2 * MAX_BLOCKS_PER_KIND
        assert stats["capacity"] == 2 * MAX_BLOCKS_PER_KIND

    def test_session_cache_stats_reports_record_blocks(self):
        from repro.core.api import PerfXplainSession

        log = ExecutionLog(jobs=[make_job()])
        session = PerfXplainSession(log)
        stats = session.cache_stats()
        assert "record_blocks" in stats
        assert stats["record_blocks"].size == 0
        assert stats["record_blocks"].to_dict()["capacity"] == 8


class TestCanonicalNanCode:
    """Regression: ``BlockColumn.from_values`` must give every NaN object
    one canonical code — ``set`` dedups NaN by identity, so distinct NaN
    objects used to get distinct codes."""

    def test_distinct_nan_objects_share_one_code(self):
        from repro.logs.chunkstore import BlockColumn

        column = BlockColumn.from_values(
            "mem", [float("nan"), 1.0, float("nan"), None], numeric=True
        )
        assert column.codes[0] == column.codes[2]
        assert column.codes[0] not in (-1, column.codes[1])
        assert column.codes[3] == -1
        # selfeq still masks NaN out of every kernel equality.
        assert list(column.selfeq) == [0, 1, 0, 0]

    def test_nan_code_is_canonical_in_nominal_columns_too(self):
        from repro.logs.chunkstore import BlockColumn

        nan = float("nan")
        column = BlockColumn.from_values(
            "tag", ["a", nan, float("nan"), "a"], numeric=False
        )
        assert column.codes[1] == column.codes[2]
        assert column.codes[0] == column.codes[3] != column.codes[1]

    def test_non_nan_codes_still_follow_dict_equality(self):
        from repro.logs.chunkstore import BlockColumn

        column = BlockColumn.from_values("size", [1, 1.0, True, 2], numeric=True)
        # 1 == 1.0 under dict equality; True == 1 as well.
        assert column.codes[0] == column.codes[1] == column.codes[2]
        assert column.codes[3] != column.codes[0]

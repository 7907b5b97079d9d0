"""Differential suite for the O(delta) append pipeline.

Every test grows a log incrementally — through the block-level
``extend_from`` path that :meth:`ExecutionLog.record_block` drives — and
pins the incrementally-maintained structures against a fresh build over
the same final record list.  Code *numbering* is the one thing allowed to
differ (kernels only compare codes for equality), so code arrays are
compared after first-occurrence renumbering; everything else — raw
values, masks, float images, blocking groups, ids — must match exactly.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.features import infer_schema
from repro.core.pairkernel import blocking_group_indices
from repro.logs.records import JobRecord, TaskRecord
from repro.logs.chunkstore import BlockColumn, RecordBlock
from repro.logs.store import DEFAULT_CHUNK_ROWS, ExecutionLog

FEATURES = ("pig_script", "numinstances", "ratio", "flag", "mixed")
BLOCKING = ("pig_script", "numinstances")


def make_job(rng, index):
    """One randomized job over a fixed feature pool.

    Kinds are stable (every feature sees its full value range from any
    reasonably-sized sample) so schemas inferred before and after appends
    agree; values cover missing, NaN, bools and mixed types.
    """
    features = {
        "pig_script": rng.choice(["a.pig", "b.pig", "c.pig", None]),
        "numinstances": rng.choice([1, 2, 4, 8]),
        "ratio": rng.choice([0.25, 0.5, float("nan"), None, 1.0]),
        "flag": rng.choice([True, False, None]),
        "mixed": rng.choice([1, "one", 2.0, None]),
    }
    return JobRecord(
        job_id=f"job_{index}", features=features, duration=float(rng.randint(1, 50))
    )


def normalized(codes):
    """Codes renumbered by first occurrence (the observable content)."""
    mapping = {}
    return [
        -1 if code < 0 else mapping.setdefault(code, len(mapping)) for code in codes
    ]


def column_state(block, name):
    """Every kernel-observable array of one column, via the gather path."""
    rows = range(len(block))
    column = block.column(name)
    state = {
        "raw": column.gather("raw", rows),
        "codes": normalized(column.gather("codes", rows)),
        "selfeq": list(column.gather("selfeq", rows)),
        "all_numeric": column.all_numeric,
    }
    if column.numeric:
        state["floats"] = column.gather("floats", rows)
        state["num_ok"] = list(column.gather("num_ok", rows))
    return state


def assert_blocks_equivalent(grown, fresh):
    assert len(grown) == len(fresh)
    assert grown.ids == fresh.ids
    assert grown.id_bytes == fresh.id_bytes
    for name in FEATURES + ("duration",):
        left = column_state(grown, name)
        right = column_state(fresh, name)
        # NaN != NaN breaks plain equality on raw/floats: compare elementwise.
        for key in left:
            if key in ("raw", "floats"):
                assert len(left[key]) == len(right[key]), name
                for a, b in zip(left[key], right[key]):
                    assert a == b or (
                        isinstance(a, float) and isinstance(b, float)
                        and math.isnan(a) and math.isnan(b)
                    ), name
            else:
                assert left[key] == right[key], (name, key)
    assert blocking_group_indices(grown, BLOCKING) == blocking_group_indices(
        fresh, BLOCKING
    )
    assert blocking_group_indices(grown, ("ratio",)) == blocking_group_indices(
        fresh, ("ratio",)
    )


def build_block(records, schema, chunk_rows):
    return RecordBlock(records, schema, chunk_rows=chunk_rows)


class TestDifferentialAppend:
    """Randomized logs x chunk sizes x append batch sizes."""

    @pytest.mark.parametrize("initial", [12, 0])
    @pytest.mark.parametrize("chunk_rows", [None, 4, 7, 16])
    @pytest.mark.parametrize("batch_size", [1, 3, 10])
    def test_extend_matches_fresh_build_at_every_boundary(
        self, chunk_rows, batch_size, initial
    ):
        rng = random.Random(hash((chunk_rows, batch_size)) & 0xFFFF)
        records = [make_job(rng, index) for index in range(60)]
        schema = infer_schema(records)
        grown = build_block(records[:initial], schema, chunk_rows)
        # Touch every column and the group caches so appends must
        # maintain them rather than build lazily from scratch (from zero
        # rows, the first append opens each column's chunk 0).
        for name in FEATURES + ("duration",):
            grown.column(name)
        grown.blocking_groups(BLOCKING)
        grown.blocking_groups(("ratio",))
        position = initial
        while position < len(records):
            batch = records[position : position + batch_size]
            position += len(batch)
            grown.extend_from(batch)
            fresh = build_block(records[:position], schema, chunk_rows)
            assert_blocks_equivalent(grown, fresh)

    def test_chunk_boundary_appends(self):
        """Appends that exactly fill, straddle and open chunks."""
        rng = random.Random(7)
        records = [make_job(rng, index) for index in range(40)]
        schema = infer_schema(records)
        grown = RecordBlock(records[:6], schema, chunk_rows=4)
        for name in FEATURES:
            grown.column(name)
        grown.blocking_groups(BLOCKING)
        # 6 rows in 4-row chunks: tail holds 2.  Fill it exactly (+2),
        # then straddle a boundary (+5), then append whole chunks (+8).
        for count in (2, 5, 8, 19):
            start = len(grown)
            grown.extend_from(records[start : start + count])
            fresh = RecordBlock(records[: len(grown)], schema, chunk_rows=4)
            assert_blocks_equivalent(grown, fresh)
        assert len(grown) == 40
        assert grown.num_chunks == 10

    def test_nan_code_appends(self):
        """NaN first appears in an append; more NaN follows; None mixes in."""
        values = [1.0, 2.0, None, 2.0]
        batches = [[float("nan")], [3.0, float("nan"), None], [float("nan")]]
        grown = BlockColumn.from_values("ratio", values, numeric=True)
        total = list(values)
        for batch in batches:
            grown.extend_values(batch)
            total.extend(batch)
            fresh = BlockColumn.from_values("ratio", total, numeric=True)
            assert normalized(grown.codes) == normalized(fresh.codes)
            assert grown.selfeq == fresh.selfeq
            assert grown.num_ok == fresh.num_ok
            assert grown.all_numeric == fresh.all_numeric
            # All NaN rows share one canonical code.
            nan_codes = {
                code
                for code, value in zip(grown.codes, grown.raw)
                if isinstance(value, float) and math.isnan(value)
            }
            assert len(nan_codes) == 1

    def test_new_distinct_value_appends(self):
        """Unseen values get fresh codes without renumbering history."""
        grown = BlockColumn.from_values("pig_script", ["a", "b", "a"], numeric=False)
        before = list(grown.codes)
        grown.extend_values(["c", "a", "d", "c"])
        # History is untouched: the first three codes did not move.
        assert grown.codes[:3] == before
        fresh = BlockColumn.from_values(
            "pig_script", ["a", "b", "a", "c", "a", "d", "c"], numeric=False
        )
        assert normalized(grown.codes) == normalized(fresh.codes)
        assert grown.code_of["c"] != grown.code_of["d"]

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=-3, max_value=3),
                st.booleans(),
                st.sampled_from(["x", "y"]),
                st.just(float("nan")),
                st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            ),
            max_size=12,
        ),
        appended=st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=-3, max_value=3),
                st.booleans(),
                st.sampled_from(["x", "y"]),
                st.just(float("nan")),
                st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            ),
            max_size=12,
        ),
        numeric=st.booleans(),
    )
    def test_column_extension_matches_fresh_build(self, initial, appended, numeric):
        grown = BlockColumn.from_values("f", initial, numeric)
        grown.extend_values(appended)
        fresh = BlockColumn.from_values("f", initial + appended, numeric)
        assert normalized(grown.codes) == normalized(fresh.codes)
        assert grown.selfeq == fresh.selfeq
        assert grown.floats == fresh.floats
        assert grown.num_ok == fresh.num_ok
        assert grown.all_numeric == fresh.all_numeric
        assert len(grown.raw) == len(fresh.raw)


class TestLogAppendPath:
    """The ExecutionLog cache machinery driving block extension."""

    def _log(self, count=20, seed=3):
        rng = random.Random(seed)
        log = ExecutionLog()
        for index in range(count):
            log.add_job(make_job(rng, index))
        return log

    def test_record_block_extends_in_place_and_counts(self):
        log = self._log()
        schema = infer_schema(log.jobs)
        block = log.record_block(schema, kind="job")
        block.column("numinstances")
        block.blocking_groups(BLOCKING)
        rng = random.Random(99)
        log.extend(jobs=[make_job(rng, 100 + index) for index in range(5)])
        extended = log.record_block(schema, kind="job")
        assert extended is block
        assert len(extended) == 25
        assert log.append_stats()["block_extends"] == 1
        fresh = RecordBlock(log.jobs, schema)
        assert_blocks_equivalent(extended, fresh)

    def test_replace_forces_rebuild(self):
        log = self._log()
        schema = infer_schema(log.jobs)
        block = log.record_block(schema, kind="job")
        replacement = JobRecord(
            job_id="job_0", features=dict(log.jobs[0].features), duration=999.0
        )
        log.replace_job(replacement)
        rebuilt = log.record_block(schema, kind="job")
        assert rebuilt is not block
        assert rebuilt.column("duration").raw[0] == 999.0
        assert log.append_stats()["block_extends"] == 0

    def test_configure_blocks_flushes_pending_appends(self):
        """Regression: extend-then-configure must not keep a stale tail."""
        log = self._log(count=10)
        log.configure_blocks(chunk_rows=4)
        schema = infer_schema(log.jobs)
        block = log.record_block(schema, kind="job")
        block.column("numinstances")
        assert len(block) == 10
        rng = random.Random(5)
        log.extend(jobs=[make_job(rng, 200 + index) for index in range(7)])
        # Re-applying the same policy keeps the cached block but folds the
        # pending appends in first — the kept block never serves 10 rows.
        log.configure_blocks(chunk_rows=4)
        assert len(block) == 17
        assert log.append_stats()["block_extends"] == 1
        served = log.record_block(schema, kind="job")
        assert served is block
        assert_blocks_equivalent(served, RecordBlock(log.jobs, schema, 4))

    def test_configure_blocks_layout_change_drops_blocks(self):
        log = self._log(count=10)
        log.configure_blocks(chunk_rows=4)
        schema = infer_schema(log.jobs)
        block = log.record_block(schema, kind="job")
        log.configure_blocks(chunk_rows=5)
        rebuilt = log.record_block(schema, kind="job")
        assert rebuilt is not block
        assert rebuilt.chunk_rows == 5

    def test_flush_appends_returns_refreshed_count(self):
        log = self._log(count=8)
        schema = infer_schema(log.jobs)
        log.record_block(schema, kind="job")
        assert log.flush_appends() == 0  # nothing pending
        rng = random.Random(11)
        log.extend(jobs=[make_job(rng, 300)])
        assert log.flush_appends() == 1
        assert len(log.record_block(schema, kind="job")) == 9

    def test_crossing_auto_chunk_threshold_rebuilds(self, monkeypatch):
        """An append that crosses the chunking threshold changes layout."""
        monkeypatch.setattr("repro.logs.store.AUTO_CHUNK_THRESHOLD", 10)
        log = self._log(count=6)
        schema = infer_schema(log.jobs)
        block = log.record_block(schema, kind="job")
        assert block.chunk_rows is None
        rng = random.Random(13)
        log.extend(jobs=[make_job(rng, 400 + index) for index in range(6)])
        rebuilt = log.record_block(schema, kind="job")
        assert rebuilt is not block
        assert rebuilt.chunk_rows == DEFAULT_CHUNK_ROWS
        assert_blocks_equivalent(
            rebuilt, RecordBlock(log.jobs, schema)
        )

    def test_task_append_does_not_touch_job_block(self):
        log = self._log(count=6)
        for index in range(4):
            log.add_task(
                TaskRecord(
                    task_id=f"task_{index}",
                    job_id="job_0",
                    features={"task_type": "MAP"},
                    duration=1.0,
                )
            )
        job_schema = infer_schema(log.jobs)
        task_schema = infer_schema(log.tasks)
        job_block = log.record_block(job_schema, kind="job")
        task_block = log.record_block(task_schema, kind="task")
        log.add_task(
            TaskRecord(
                task_id="task_late",
                job_id="job_1",
                features={"task_type": "REDUCE"},
                duration=2.0,
            )
        )
        assert log.record_block(job_schema, kind="job") is job_block
        assert len(job_block) == 6
        grown_tasks = log.record_block(task_schema, kind="task")
        assert grown_tasks is task_block
        assert len(grown_tasks) == 5

    def test_tasks_of_job_folds_appends_in_place(self):
        log = self._log(count=3)
        for index in range(6):
            log.add_task(
                TaskRecord(
                    task_id=f"task_{index}",
                    job_id=f"job_{index % 3}",
                    features={},
                    duration=1.0,
                )
            )
        assert len(log.tasks_of_job("job_0")) == 2  # builds the index
        log.extend(
            tasks=[
                TaskRecord(task_id="task_x", job_id="job_0", features={}, duration=2.0),
                TaskRecord(task_id="task_y", job_id="job_9", features={}, duration=2.0),
            ]
        )
        assert [task.task_id for task in log.tasks_of_job("job_0")] == [
            "task_0",
            "task_3",
            "task_x",
        ]
        assert [task.task_id for task in log.tasks_of_job("job_9")] == ["task_y"]
        # Epoch-moving mutation rebuilds rather than folds.
        log.replace_task(
            TaskRecord(task_id="task_x", job_id="job_0", features={}, duration=9.0)
        )
        assert log.tasks_of_job("job_0")[-1].duration == 9.0

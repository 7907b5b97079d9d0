"""Tests for chunked record blocks and the spill-to-disk chunk store."""

import os
import random

import pytest

from repro.core.api import PerfXplainSession
from repro.core.features import FeatureKind, FeatureSchema, infer_schema
from repro.logs.chunkstore import BlockColumn, ChunkStore, RecordBlock
from repro.logs.records import JobRecord
from repro.logs.store import DEFAULT_CHUNK_ROWS, ExecutionLog


def make_jobs(values, feature="tag", duration=1.0):
    return [
        JobRecord(
            job_id=f"job_{index}",
            features={feature: value},
            duration=duration + index,
        )
        for index, value in enumerate(values)
    ]


def schema_of(name, kind):
    schema = FeatureSchema()
    schema.add(name, kind)
    return schema


class TestChunkStore:
    def test_unbounded_store_never_touches_disk(self):
        store = ChunkStore(max_resident=None)
        for index in range(10):
            store.put(("c", index), BlockColumn.from_values("c", [index], False))
        assert len(store) == 10
        assert store.stats()["spills"] == 0
        assert store.stats()["evictions"] == 0

    def test_eviction_spills_and_reload_restores(self, tmp_path):
        store = ChunkStore(max_resident=2, directory=tmp_path)
        chunks = {
            index: BlockColumn.from_values("c", [f"v{index}", None], False)
            for index in range(5)
        }
        for index, chunk in chunks.items():
            store.put(("c", index), chunk)
        stats = store.stats()
        assert stats["resident"] == 2
        assert stats["evictions"] == 3
        assert stats["spills"] == 3
        # Reloaded chunks carry the full encoding.
        reloaded = store.get(("c", 0))
        assert reloaded.raw == ["v0", None]
        assert reloaded.codes == chunks[0].codes
        assert bytes(reloaded.selfeq) == bytes(chunks[0].selfeq)
        assert store.stats()["loads"] == 1

    def test_spill_files_live_under_the_given_directory(self, tmp_path):
        store = ChunkStore(max_resident=1, directory=tmp_path)
        store.put(("c", 0), BlockColumn.from_values("c", ["a"], False))
        store.put(("c", 1), BlockColumn.from_values("c", ["b"], False))
        spill_dirs = list(tmp_path.glob("repro-chunks-*"))
        assert len(spill_dirs) == 1
        assert any(spill_dirs[0].iterdir())

    def test_spill_directory_removed_when_store_dropped(self, tmp_path):
        store = ChunkStore(max_resident=1, directory=tmp_path)
        store.put(("c", 0), BlockColumn.from_values("c", ["a"], False))
        store.put(("c", 1), BlockColumn.from_values("c", ["b"], False))
        spill_dir = next(tmp_path.glob("repro-chunks-*"))
        del store
        assert not spill_dir.exists()

    def test_get_unknown_chunk_raises(self):
        with pytest.raises(KeyError):
            ChunkStore().get(("ghost", 0))

    def test_lru_order_keeps_recently_used_chunks(self, tmp_path):
        store = ChunkStore(max_resident=2, directory=tmp_path)
        store.put(("c", 0), BlockColumn.from_values("c", ["a"], False))
        store.put(("c", 1), BlockColumn.from_values("c", ["b"], False))
        store.get(("c", 0))  # refresh: 1 is now the LRU entry
        store.put(("c", 2), BlockColumn.from_values("c", ["c"], False))
        assert store.stats()["evictions"] == 1
        # Chunk 0 is still resident (no disk load needed).
        loads_before = store.stats()["loads"]
        store.get(("c", 0))
        assert store.stats()["loads"] == loads_before


class TestChunkedColumn:
    def _columns(self, values, kind=FeatureKind.NOMINAL, chunk_rows=3,
                 max_resident=None):
        name = "tag"
        records = make_jobs(values, feature=name)
        schema = schema_of(name, kind)
        monolithic = RecordBlock(records, schema).column(name)
        chunked_block = RecordBlock(
            records, schema, chunk_rows=chunk_rows,
            max_resident_chunks=max_resident,
        )
        return monolithic, chunked_block.column(name)

    def test_gather_matches_monolithic_for_every_source(self):
        values = ["a", "b", None, "a", "c", "b", None, "a"]
        monolithic, chunked = self._columns(values)
        indices = [7, 0, 3, 3, 5, 1, 6, 2, 4]
        for source in ("raw", "selfeq"):
            assert chunked.gather(source, indices) == monolithic.gather(
                source, indices
            )

    def test_codes_are_globally_consistent_across_chunks(self):
        values = ["a", "b", "c", "a", "c", "b", "a"]  # chunks of 3 split "a"
        monolithic, chunked = self._columns(values, chunk_rows=3)
        mono_codes = monolithic.gather("codes", range(len(values)))
        chunk_codes = chunked.gather("codes", range(len(values)))
        # Numbering is arbitrary; the induced equality partition is not.
        assert [
            [left == right for right in mono_codes] for left in mono_codes
        ] == [[left == right for right in chunk_codes] for left in chunk_codes]
        assert chunked.code_of["a"] == chunk_codes[0] == chunk_codes[3]

    def test_nan_shares_one_canonical_code_across_chunks(self):
        values = [float("nan"), "x", float("nan"), "x", float("nan")]
        _, chunked = self._columns(values, chunk_rows=2)
        codes = chunked.gather("codes", range(len(values)))
        assert codes[0] == codes[2] == codes[4]
        assert codes[0] != codes[1]
        # ... and selfeq still masks NaN rows out of kernel equalities.
        assert chunked.gather("selfeq", range(len(values))) == [0, 1, 0, 1, 0]

    def test_numeric_floats_and_all_numeric_match(self):
        values = [1, 2.5, None, 4, 17.5, -3.0, 0.0]
        monolithic, chunked = self._columns(
            values, kind=FeatureKind.NUMERIC, chunk_rows=2
        )
        indices = list(range(len(values)))
        assert chunked.gather("floats", indices) == monolithic.gather(
            "floats", indices
        )
        assert chunked.gather("num_ok", indices) == monolithic.gather(
            "num_ok", indices
        )
        assert chunked.all_numeric == monolithic.all_numeric is True

    def test_mixed_column_all_numeric_false_like_monolithic(self):
        values = [1, "high", 2.0, True]
        monolithic, chunked = self._columns(
            values, kind=FeatureKind.NUMERIC, chunk_rows=2
        )
        assert chunked.all_numeric == monolithic.all_numeric is False

    def test_spilled_chunks_round_trip_global_codes(self, tmp_path):
        name = "tag"
        values = ["a", "b", "a", "c", "b", "a", "d", "a"]
        records = make_jobs(values, feature=name)
        block = RecordBlock(
            records, schema_of(name, FeatureKind.NOMINAL),
            chunk_rows=2, max_resident_chunks=1, spill_directory=tmp_path,
        )
        column = block.column(name)
        assert block.store.stats()["spills"] > 0
        codes = column.gather("codes", range(len(values)))
        for index, value in enumerate(values):
            assert codes[index] == column.code_of[value]


class TestChunkedRecordBlock:
    def test_block_surface_matches_record_block(self):
        records = make_jobs(["a", "b", "c", "a"])
        schema = schema_of("tag", FeatureKind.NOMINAL)
        monolithic = RecordBlock(records, schema)
        chunked = RecordBlock(records, schema, chunk_rows=3)
        assert len(chunked) == len(monolithic)
        assert chunked.ids == monolithic.ids
        assert chunked.id_bytes == monolithic.id_bytes
        assert chunked.records == monolithic.records
        assert chunked.num_chunks == 2

    def test_duration_pseudo_feature_reads_the_metric(self):
        records = make_jobs(["a", "b", "c"])
        schema = FeatureSchema()
        schema.add("tag", FeatureKind.NOMINAL)
        schema.add("duration", FeatureKind.NUMERIC)
        chunked = RecordBlock(records, schema, chunk_rows=2)
        assert chunked.column("duration").gather("floats", [0, 1, 2]) == [
            record.duration for record in records
        ]

    def test_columns_are_cached(self):
        chunked = RecordBlock(
            make_jobs(["a", "b"]), schema_of("tag", FeatureKind.NOMINAL),
            chunk_rows=1,
        )
        assert chunked.column("tag") is chunked.column("tag")

    def test_key_chunks_cover_all_rows_in_order(self):
        records = make_jobs(["a", "b", None, "a", "c"])
        schema = schema_of("tag", FeatureKind.NOMINAL)
        chunked = RecordBlock(records, schema, chunk_rows=2)
        starts, total = [], 0
        for start, code_slices, selfeq_slices in chunked.key_chunks(["tag"]):
            starts.append(start)
            assert len(code_slices[0]) == len(selfeq_slices[0])
            total += len(code_slices[0])
        assert starts == [0, 2, 4]
        assert total == len(records)

    def test_rejects_nonpositive_chunk_rows(self):
        with pytest.raises(ValueError):
            RecordBlock(
                [], schema_of("tag", FeatureKind.NOMINAL), chunk_rows=0
            )


class TestRecordBlockDispatch:
    """``ExecutionLog.record_block`` picks the layout transparently."""

    def test_small_logs_stay_monolithic_by_default(self):
        log = ExecutionLog(jobs=make_jobs(["a", "b"]))
        block = log.record_block(schema_of("tag", FeatureKind.NOMINAL))
        assert block.chunk_rows is None

    def test_configured_log_builds_chunked_blocks(self):
        log = ExecutionLog(jobs=make_jobs(["a", "b", "c"]))
        log.configure_blocks(chunk_rows=2, max_resident_chunks=4)
        block = log.record_block(schema_of("tag", FeatureKind.NOMINAL))
        assert block.chunk_rows == 2

    def test_auto_chunk_threshold_triggers_chunking(self, monkeypatch):
        monkeypatch.setattr("repro.logs.store.AUTO_CHUNK_THRESHOLD", 10)
        log = ExecutionLog(jobs=make_jobs(["a"] * 12))
        block = log.record_block(schema_of("tag", FeatureKind.NOMINAL))
        assert block.chunk_rows == DEFAULT_CHUNK_ROWS

    def test_reconfiguring_drops_cached_blocks(self):
        log = ExecutionLog(jobs=make_jobs(["a", "b"]))
        schema = schema_of("tag", FeatureKind.NOMINAL)
        first = log.record_block(schema)
        log.configure_blocks(chunk_rows=1)
        second = log.record_block(schema)
        assert second is not first
        assert second.chunk_rows == 1

    def test_configure_blocks_validates_arguments(self):
        log = ExecutionLog()
        with pytest.raises(ValueError):
            log.configure_blocks(chunk_rows=0)
        with pytest.raises(ValueError):
            log.configure_blocks(max_resident_chunks=0)

    def test_worker_pid_tags_keep_spill_names_distinct(self, tmp_path):
        store = ChunkStore(max_resident=1, directory=tmp_path)
        store.put(("c", 0), BlockColumn.from_values("c", ["a"], False))
        store.put(("c", 1), BlockColumn.from_values("c", ["b"], False))
        spill_dir = next(tmp_path.glob("repro-chunks-*"))
        names = [path.name for path in spill_dir.iterdir()]
        assert all(f"-{os.getpid()}-" in name for name in names)


class TestWorkingSetBound:
    """``max_resident_chunks`` bounds every block, one chunk per column or
    many."""

    QUERY = """
        FOR JOBS ?, ?
        DESPITE pig_script_isSame = T
        OBSERVED duration_compare = GT
        EXPECTED duration_compare = SIM
    """

    @staticmethod
    def _log():
        rng = random.Random(5)
        jobs = []
        for index in range(50):
            instances = rng.choice([2, 4, 8])
            block_size = rng.choice([64, 128])
            slowdown = 1.5 if block_size == 64 else 1.0
            jobs.append(
                JobRecord(
                    job_id=f"job_{index:02d}",
                    features={
                        "pig_script": rng.choice(["a.pig", "b.pig"]),
                        "numinstances": instances,
                        "blocksize": block_size,
                        "load": rng.choice([0.5, 1.0, 2.0, None]),
                    },
                    duration=800.0 / instances * slowdown + rng.random(),
                )
            )
        return ExecutionLog(jobs=jobs)

    def test_unchunked_log_spills_and_answers_identically(self, tmp_path):
        plain = self._log()
        bounded = self._log()
        bounded.configure_blocks(max_resident_chunks=1, spill_directory=tmp_path)
        answers = [
            PerfXplainSession(log, seed=0).explain(self.QUERY, width=2).to_json()
            for log in (plain, bounded)
        ]
        assert answers[1] == answers[0]
        block = bounded.record_block(infer_schema(bounded.jobs), kind="job")
        assert block.chunk_rows is None
        assert block.store.max_resident == 1
        assert block.store.stats()["spills"] > 0

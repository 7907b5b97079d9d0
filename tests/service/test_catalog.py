"""Tests for the log catalog: registration, lazy loading, session reuse."""

import pytest

from repro.core.api import PerfXplainSession
from repro.exceptions import CatalogError
from repro.service import ErrorCode, LogCatalog

DUPLICATE_JOB = (
    '{"kind": "job", "job_id": "job_dup", "features": {}, "duration": 1.0}'
)

WHY_SLOWER_LOOSE = """
    FOR JOBS ?, ?
    DESPITE pig_script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


class TestRegistration:
    def test_register_and_names(self, tiny_log):
        catalog = LogCatalog()
        catalog.register("b", tiny_log)
        catalog.register("a", tiny_log)
        assert catalog.names() == ("a", "b")
        assert "a" in catalog and len(catalog) == 2
        assert list(catalog) == ["a", "b"]

    def test_duplicate_name_rejected(self, tiny_log):
        catalog = LogCatalog()
        catalog.register("dup", tiny_log)
        with pytest.raises(CatalogError) as excinfo:
            catalog.register_path("dup", "anywhere.json")
        assert excinfo.value.code == ErrorCode.INVALID_REQUEST

    def test_empty_name_rejected(self, tiny_log):
        catalog = LogCatalog()
        with pytest.raises(CatalogError):
            catalog.register("   ", tiny_log)

    def test_unknown_log_lists_registered(self, tiny_log):
        catalog = LogCatalog()
        catalog.register("known", tiny_log)
        with pytest.raises(CatalogError, match="known") as excinfo:
            catalog.log("absent")
        assert excinfo.value.code == ErrorCode.UNKNOWN_LOG

    def test_unregister(self, tiny_log):
        catalog = LogCatalog()
        catalog.register("gone", tiny_log)
        catalog.unregister("gone")
        assert "gone" not in catalog
        with pytest.raises(CatalogError):
            catalog.unregister("gone")


class TestLazyLoading:
    @pytest.mark.parametrize("filename", ["log.json", "log.jsonl", "log.jsonl.gz"])
    def test_path_loaded_on_first_use(self, tiny_log, tmp_path, filename):
        path = tmp_path / filename
        tiny_log.save(path)
        catalog = LogCatalog()
        catalog.register_path("lazy", path)
        assert not catalog.is_loaded("lazy")
        assert catalog.log("lazy").num_jobs == tiny_log.num_jobs
        assert catalog.is_loaded("lazy")

    def test_registration_accepts_missing_file_until_first_use(self, tmp_path):
        catalog = LogCatalog()
        catalog.register_path("late", tmp_path / "not_yet.json")
        with pytest.raises(CatalogError) as excinfo:
            catalog.log("late")
        assert excinfo.value.code == ErrorCode.LOG_LOAD_FAILED

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"jobs": [5], "tasks": []}',
            '{"jobs": [{"kind": "job"}]}',
            '{"jobs": [' + ", ".join([DUPLICATE_JOB] * 2) + '], "tasks": []}',
        ],
    )
    def test_malformed_file_reports_load_failure(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text, encoding="utf-8")
        catalog = LogCatalog()
        catalog.register_path("broken", path)
        with pytest.raises(CatalogError) as excinfo:
            catalog.session("broken")
        assert excinfo.value.code == ErrorCode.LOG_LOAD_FAILED

    def test_describe_never_triggers_a_load(self, tiny_log, tmp_path):
        path = tmp_path / "log.json"
        tiny_log.save(path)
        catalog = LogCatalog()
        catalog.register_path("lazy", path)
        snapshot = catalog.describe()
        assert snapshot["lazy"]["loaded"] is False
        assert snapshot["lazy"]["num_jobs"] is None
        assert not catalog.is_loaded("lazy")


class TestSessionReuse:
    def test_one_session_per_log(self, tiny_log):
        catalog = LogCatalog()
        catalog.register("tiny", tiny_log)
        first = catalog.session("tiny")
        second = catalog.session("tiny")
        assert first is second
        assert isinstance(first, PerfXplainSession)

    def test_session_caches_shared_across_traffic(self, tiny_log):
        catalog = LogCatalog()
        catalog.register("tiny", tiny_log)
        catalog.session("tiny").explain(WHY_SLOWER_LOOSE, width=2)
        catalog.session("tiny").explain(WHY_SLOWER_LOOSE, width=2)
        stats = catalog.session("tiny").cache_stats()
        assert stats["explanations"].hits == 1

    def test_describe_exposes_cache_stats(self, tiny_log):
        catalog = LogCatalog()
        catalog.register("tiny", tiny_log)
        catalog.session("tiny").explain(WHY_SLOWER_LOOSE, width=2)
        snapshot = catalog.describe()
        assert snapshot["tiny"]["loaded"] is True
        assert snapshot["tiny"]["num_jobs"] == tiny_log.num_jobs
        stats = snapshot["tiny"]["cache_stats"]
        assert stats["explanations"]["misses"] == 1

    def test_cache_capacity_forwarded(self, tiny_log):
        catalog = LogCatalog(cache_capacity=7)
        catalog.register("tiny", tiny_log)
        stats = catalog.session("tiny").cache_stats()
        assert stats["explanations"].capacity == 7


class TestCatalogIsolation:
    """Regression: two catalogs must never share mutable session state."""

    def test_sessions_are_distinct_objects(self, tiny_log):
        first = LogCatalog()
        second = LogCatalog()
        first.register("shared", tiny_log)
        second.register("shared", tiny_log)
        assert first.session("shared") is not second.session("shared")

    def test_traffic_on_one_catalog_leaves_the_other_cold(self, tiny_log):
        hot = LogCatalog()
        cold = LogCatalog()
        hot.register("shared", tiny_log)
        cold.register("shared", tiny_log)
        hot.session("shared").explain(WHY_SLOWER_LOOSE, width=2)
        cold_stats = cold.session("shared").cache_stats()
        # ``record_blocks`` is the log's own cache — both catalogs register
        # the same log object, so sharing it is the design, not a leak.
        cold_stats.pop("record_blocks")
        assert all(s.size == 0 for s in cold_stats.values())
        assert all(s.lookups == 0 for s in cold_stats.values())

    def test_locks_are_per_catalog(self, tiny_log):
        first = LogCatalog()
        second = LogCatalog()
        first.register("shared", tiny_log)
        second.register("shared", tiny_log)
        assert first.lock("shared") is not second.lock("shared")

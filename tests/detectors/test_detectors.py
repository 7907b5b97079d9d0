"""Unit tests for the rule-based detectors on hand-built logs."""

from pathlib import Path

import pytest

from repro.core.api import PerfXplain
from repro.core.registry import create_explainer, registered_explainers
from repro.detectors import DETECTOR_TECHNIQUES, merge_passes
from repro.exceptions import ExplanationError
from repro.ingest import ingest_path
from repro.logs.records import JobRecord
from repro.logs.store import ExecutionLog

JHIST_FIXTURE = (
    Path(__file__).resolve().parent.parent / "logs" / "fixtures"
    / "job_201207121733_0001.jhist"
)

TASK_QUERY = """
    FOR TASKS ?, ?
    DESPITE job_id_isSame = T AND task_type_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""

JOB_QUERY = """
    FOR JOBS ?, ?
    DESPITE pig_script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


def _job_log(features_by_job: dict[str, tuple[float, dict]]) -> ExecutionLog:
    log = ExecutionLog()
    log.extend(jobs=[
        JobRecord(job_id=job_id, duration=duration,
                  features={"pig_script": "grep.pig", **features})
        for job_id, (duration, features) in features_by_job.items()
    ])
    return log


@pytest.fixture(scope="module")
def real_log() -> ExecutionLog:
    return ingest_path(JHIST_FIXTURE).log


class TestRegistry:
    def test_all_detectors_are_registered_techniques(self):
        names = registered_explainers()
        for name in DETECTOR_TECHNIQUES:
            assert name in names

    def test_explanations_carry_the_detector_name(self, real_log):
        explanation = PerfXplain(real_log, seed=0).explain(
            TASK_QUERY, technique="detect-skew"
        )
        assert explanation.technique == "detect-skew"

    def test_an_empty_training_set_scores_zero_metrics(self, real_log):
        """``examples=[]`` skips the training matrix: the rule's evidence
        stays and the three metrics read zero."""
        px = PerfXplain(real_log, seed=0)
        query = px.resolve(TASK_QUERY)
        detector = create_explainer("detect-skew")
        metrics = detector.explain(
            real_log, query, px.schema_for(query), examples=[]
        ).metrics
        assert (metrics.relevance, metrics.precision, metrics.generality) == (0, 0, 0)
        assert metrics.support == 0
        assert dict(metrics.evidence)["skew_threshold"] == 2.0

    def test_unbound_query_without_pair_raises(self):
        detector = create_explainer("detect-skew")
        log = _job_log({"a": (10.0, {}), "b": (20.0, {})})
        from repro.core.pxql.parser import parse_query

        with pytest.raises(ExplanationError):
            detector.explain(log, parse_query(JOB_QUERY))


class TestDataSkewDetector:
    def test_fires_on_the_skewed_fixture(self, real_log):
        explanation = PerfXplain(real_log, seed=0).explain(
            TASK_QUERY, technique="detect-skew"
        )
        features = [atom.feature for atom in explanation.because.atoms]
        assert "input_records_compare" in features or \
            "inputsize_compare" in features
        evidence = dict(explanation.metrics.evidence)
        assert evidence["skew_threshold"] == 2.0
        assert evidence["skew_ratio"] >= 2.0

    def test_width_caps_the_because_clause(self, real_log):
        explanation = PerfXplain(real_log, seed=0).explain(
            TASK_QUERY, technique="detect-skew", width=1
        )
        assert len(explanation.because.atoms) == 1

    def test_job_entity_queries_do_not_fire(self, real_log):
        with pytest.raises(ExplanationError, match="no rule fired|satisfies"):
            PerfXplain(real_log, seed=0).explain(
                JOB_QUERY, technique="detect-skew"
            )


class TestStragglerDetector:
    def test_cites_placement_for_task_pairs(self, real_log):
        explanation = PerfXplain(real_log, seed=0).explain(
            TASK_QUERY, technique="detect-straggler"
        )
        features = {atom.feature for atom in explanation.because.atoms}
        assert "hostname_isSame" in features
        evidence = dict(explanation.metrics.evidence)
        assert evidence["straggler_threshold"] == 1.5
        assert evidence["pair_ratio"] >= 1.5 or evidence["median_ratio"] >= 1.5

    def test_gate_blocks_non_straggling_pairs(self):
        # 20% slower is a real difference but not a straggler.
        log = _job_log({
            "a": (12.0, {"avg_load_one": 9.0}),
            "b": (10.0, {"avg_load_one": 1.0}),
        })
        with pytest.raises(ExplanationError):
            PerfXplain(log, seed=0).explain(JOB_QUERY, technique="detect-straggler")

    def test_fires_on_contended_jobs(self):
        log = _job_log({
            "a": (30.0, {"avg_load_one": 9.0, "avg_cpu_idle": 5.0}),
            "b": (10.0, {"avg_load_one": 1.0, "avg_cpu_idle": 80.0}),
        })
        explanation = PerfXplain(log, seed=0).explain(
            JOB_QUERY, technique="detect-straggler"
        )
        features = {atom.feature for atom in explanation.because.atoms}
        assert "avg_load_one_compare" in features
        assert "avg_cpu_idle_compare" in features


class TestMisconfigurationDetector:
    def test_merge_passes_model(self):
        assert merge_passes(1, 10) == 0
        assert merge_passes(0, 10) == 0
        assert merge_passes(None, 10) is None
        assert merge_passes(500, None) is None
        assert merge_passes(500, 1) is None  # degenerate sort factor
        assert merge_passes(500, 10) == 3  # ceil(log10 500) = 3
        assert merge_passes(500, 100) == 2
        assert merge_passes(10, 100) == 1  # at least one pass

    def test_fires_on_a_small_sort_factor(self):
        log = _job_log({
            "a": (100.0, {"iosortfactor": 10, "iosortmb": 100,
                          "num_map_tasks": 500, "spilled_records": 9_000_000}),
            "b": (50.0, {"iosortfactor": 100, "iosortmb": 200,
                         "num_map_tasks": 500, "spilled_records": 1_000_000}),
        })
        explanation = PerfXplain(log, seed=0).explain(
            JOB_QUERY, technique="detect-misconfig"
        )
        features = {atom.feature for atom in explanation.because.atoms}
        assert "iosortfactor_compare" in features
        evidence = dict(explanation.metrics.evidence)
        assert evidence["merge_passes_slower"] == 3.0
        assert evidence["merge_passes_faster"] == 2.0

    def test_fires_on_reducer_starvation(self):
        log = _job_log({
            "a": (100.0, {"iosortfactor": 100, "num_map_tasks": 100,
                          "num_reduce_tasks": 4}),
            "b": (50.0, {"iosortfactor": 100, "num_map_tasks": 100,
                         "num_reduce_tasks": 64}),
        })
        explanation = PerfXplain(log, seed=0).explain(
            JOB_QUERY, technique="detect-misconfig"
        )
        features = {atom.feature for atom in explanation.because.atoms}
        assert "num_reduce_tasks_compare" in features
        evidence = dict(explanation.metrics.evidence)
        assert evidence["reduce_tasks_slower"] == 4
        assert evidence["reduce_tasks_faster"] == 64

    def test_aligned_configuration_does_not_fire(self):
        # The slower job has the BIGGER sort factor: not this detector's story.
        log = _job_log({
            "a": (100.0, {"iosortfactor": 100, "num_map_tasks": 500,
                          "num_reduce_tasks": 8}),
            "b": (50.0, {"iosortfactor": 10, "num_map_tasks": 500,
                         "num_reduce_tasks": 8}),
        })
        with pytest.raises(ExplanationError):
            PerfXplain(log, seed=0).explain(JOB_QUERY, technique="detect-misconfig")


class TestClusterUnderuseDetector:
    UNDERUSE_QUERY = """
        FOR JOBS ?, ?
        DESPITE pig_script_isSame = T AND inputsize_isSame = F
        OBSERVED duration_compare = SIM
        EXPECTED duration_compare = GT
    """

    def test_fires_when_both_inputs_fit_one_wave(self):
        log = _job_log({
            "a": (100.0, {"inputsize": 10 << 30, "map_waves": 1,
                          "num_map_tasks": 40, "blocksize": 256,
                          "cluster_map_slots": 100}),
            "b": (102.0, {"inputsize": 1 << 30, "map_waves": 1,
                          "num_map_tasks": 4, "blocksize": 256,
                          "cluster_map_slots": 100}),
        })
        explanation = PerfXplain(log, seed=0).explain(
            self.UNDERUSE_QUERY, technique="detect-underuse"
        )
        features = {atom.feature for atom in explanation.because.atoms}
        assert "map_waves_isSame" in features
        evidence = dict(explanation.metrics.evidence)
        assert evidence["map_waves"] == 1

    def test_fires_when_input_growth_adds_waves(self):
        log = _job_log({
            "a": (300.0, {"inputsize": 10 << 30, "map_waves": 4,
                          "num_map_tasks": 400}),
            "b": (100.0, {"inputsize": 1 << 30, "map_waves": 1,
                          "num_map_tasks": 40}),
        })
        explanation = PerfXplain(log, seed=0).explain(
            JOB_QUERY, technique="detect-underuse"
        )
        features = {atom.feature for atom in explanation.because.atoms}
        assert "inputsize_compare" in features or "map_waves_compare" in features

    def test_multi_wave_similar_jobs_do_not_fire(self):
        log = _job_log({
            "a": (100.0, {"inputsize": 10 << 30, "map_waves": 4,
                          "num_map_tasks": 400}),
            "b": (101.0, {"inputsize": 1 << 30, "map_waves": 4,
                          "num_map_tasks": 40}),
        })
        with pytest.raises(ExplanationError):
            PerfXplain(log, seed=0).explain(
                self.UNDERUSE_QUERY, technique="detect-underuse"
            )


class TestDeterminism:
    @pytest.mark.parametrize("technique", ["detect-skew", "detect-straggler"])
    def test_fresh_sessions_yield_bit_identical_output(self, real_log, technique):
        first = PerfXplain(real_log, seed=0).explain(TASK_QUERY, technique=technique)
        second = PerfXplain(real_log, seed=0).explain(TASK_QUERY, technique=technique)
        assert first.to_json() == second.to_json()

    def test_repeated_calls_on_one_session_are_identical(self, real_log):
        facade = PerfXplain(real_log, seed=0)
        resolved = facade.resolve(TASK_QUERY)
        first = facade.explain(resolved, technique="detect-skew")
        second = facade.explain(resolved, technique="detect-skew")
        assert first.to_json() == second.to_json()

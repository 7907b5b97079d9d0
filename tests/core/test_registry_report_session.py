"""Tests for the explainer registry, structured results and the batch session."""

import gc
import inspect
import json
import random
import weakref

import pytest

from repro.core.api import PerfXplain, PerfXplainSession
from repro.core.explanation import Explanation, ExplanationMetrics
from repro.core.pxql.ast import Comparison, Operator, Predicate, TRUE_PREDICATE
from repro.core.pxql.query import BoundQuery
from repro.core.queries import find_pair_of_interest
from repro.core.registry import (
    call_explainer,
    create_explainer,
    is_registered,
    register_explainer,
    registered_explainers,
    unregister_explainer,
)
from repro.core.report import Report, ReportEntry
from repro.exceptions import ExplanationError, PXQLValidationError
from repro.logs.records import JobRecord
from repro.logs.store import ExecutionLog

JOB_QUERY_TEXT = """
    FOR JOBS ?, ?
    DESPITE numinstances_isSame = T AND pig_script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


class _ConstantExplainer:
    """A minimal custom technique: always blames the blocksize."""

    name = "Constant"

    def explain(self, log, query, schema=None, width=None):
        because = Predicate.of(Comparison("blocksize_isSame", Operator.EQ, "F"))
        return Explanation(because=because, technique=self.name)


@pytest.fixture
def constant_technique():
    """Register the constant technique for one test, then clean up."""
    register_explainer("constant", _ConstantExplainer)
    yield "constant"
    unregister_explainer("constant")


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_explainers()
        assert {"perfxplain", "ruleofthumb", "simbutdiff"} <= set(names)

    def test_create_builtin(self):
        explainer = create_explainer("perfxplain")
        assert explainer.name == "PerfXplain"

    def test_names_case_insensitive(self, constant_technique):
        assert is_registered("Constant")
        assert create_explainer("CONSTANT").name == "Constant"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ExplanationError, match="perfxplain"):
            create_explainer("no-such-technique")

    def test_duplicate_rejected_without_override(self, constant_technique):
        with pytest.raises(ExplanationError, match="already registered"):
            register_explainer("constant", _ConstantExplainer)

    def test_override_replaces(self, constant_technique):
        class Other(_ConstantExplainer):
            name = "Other"

        register_explainer("constant", Other, override=True)
        assert create_explainer("constant").name == "Other"

    def test_unregister_unknown_is_noop(self):
        unregister_explainer("never-registered")

    def test_custom_explainer_through_facade(self, small_log, job_query, constant_technique):
        px = PerfXplain(small_log)
        explanation = px.explain(job_query, technique="constant")
        assert explanation.technique == "Constant"
        assert explanation.because.features() == ["blocksize_isSame"]
        assert "constant" in px.techniques()

    def test_auto_despite_rejected_for_minimal_explainer(
        self, small_log, job_query, constant_technique
    ):
        px = PerfXplain(small_log)
        with pytest.raises(ExplanationError, match="auto_despite"):
            px.explain(job_query, technique="constant", auto_despite=True)

    def test_call_explainer_drops_unsupported_examples(self, small_log, job_query):
        explanation = call_explainer(
            _ConstantExplainer(), small_log, job_query,
            schema=None, width=1, examples=["not", "used"],
        )
        assert explanation.technique == "Constant"

    def test_explain_keywords_are_inspected_once_per_function(self, small_log, monkeypatch):
        """Repeated requests, and a second session's instances, reuse each
        ``explain`` function's keywords; no instance is kept alive for it."""

        class Plain(_ConstantExplainer):
            def explain(self, log, query, schema=None, width=None):
                return super().explain(log, query, schema=schema, width=width)

        class Shared(_ConstantExplainer):
            def explain(self, log, query, schema=None, width=None, examples=None):
                assert examples is not None
                return super().explain(log, query, schema=schema, width=width)

        functions = {Plain.explain, Shared.explain}
        inspected = []
        signature = inspect.signature

        def counting(target, *args, **kwargs):
            function = getattr(target, "__func__", target)
            if function in functions:
                inspected.append(function)
            return signature(target, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting)
        register_explainer("plain", Plain)
        register_explainer("shared", Shared)
        try:
            sessions = [PerfXplainSession(small_log), PerfXplainSession(small_log)]
            for session in sessions:
                for width in (1, 2, 3):
                    for technique in ("plain", "shared"):
                        session.explain(JOB_QUERY_TEXT, width=width, technique=technique)
            assert sorted(map(id, inspected)) == sorted(map(id, functions))
            instance = weakref.ref(sessions[0].technique("shared"))
            del sessions, session
            gc.collect()
            assert instance() is None
        finally:
            unregister_explainer("plain")
            unregister_explainer("shared")


class TestStructuredResults:
    def _explanation(self):
        because = Predicate.of(
            Comparison("blocksize_compare", Operator.EQ, "GT"),
            Comparison("avg_cpu_idle_diff", Operator.LE, 0.25),
        )
        despite = Predicate.of(
            Comparison("numinstances_isSame", Operator.EQ, "T"),
            Comparison("inputsize", Operator.GE, 1 << 30),
        )
        metrics = ExplanationMetrics(
            relevance=0.4, precision=0.9, generality=0.25, support=321
        )
        return Explanation(
            because=because, despite=despite, technique="PerfXplain", metrics=metrics
        )

    def test_explanation_round_trip(self):
        explanation = self._explanation()
        rebuilt = Explanation.from_dict(explanation.to_dict())
        assert rebuilt == explanation
        assert rebuilt.because == explanation.because
        assert rebuilt.despite == explanation.despite
        assert rebuilt.metrics == explanation.metrics

    def test_explanation_json_round_trip(self):
        explanation = self._explanation()
        assert Explanation.from_json(explanation.to_json()) == explanation

    def test_predicates_serialize_symbolically(self):
        data = self._explanation().to_dict()
        assert data["because"][0] == {
            "feature": "blocksize_compare", "op": "=", "value": "GT",
        }
        assert data["because"][1]["op"] == "<="
        assert data["despite"][1]["value"] == 1 << 30  # int survives, not str()

    def test_empty_despite_and_missing_metrics(self):
        explanation = Explanation(
            because=Predicate.of(Comparison("a_isSame", Operator.EQ, "F"))
        )
        rebuilt = Explanation.from_dict(explanation.to_dict())
        assert rebuilt.despite is not None and rebuilt.despite.is_true
        assert rebuilt.metrics is None
        assert rebuilt == explanation

    def test_report_round_trip(self, tmp_path):
        report = Report()
        report.add(ReportEntry(
            query="FOR JOBS 'a', 'b'\nOBSERVED duration_compare = GT\n"
                  "EXPECTED duration_compare = SIM",
            first_id="a", second_id="b", explanation=self._explanation(),
        ))
        report.add(ReportEntry(query="FOR JOBS ?, ?", error="no such pair"))
        rebuilt = Report.from_json(report.to_json())
        assert rebuilt.to_dict() == report.to_dict()
        assert len(rebuilt) == 2
        assert rebuilt[0].ok and not rebuilt[1].ok
        assert len(rebuilt.explanations) == 1
        assert len(rebuilt.failures) == 1

        path = report.save(tmp_path / "report.json")
        assert Report.from_json(path.read_text(encoding="utf-8")).to_dict() == report.to_dict()

    def test_report_format_mentions_errors(self):
        report = Report(entries=[ReportEntry(query="FOR JOBS ?, ?", error="boom")])
        assert "boom" in report.format()

    def test_report_format_survives_empty_query_text(self):
        report = Report(entries=[ReportEntry(query="", error="empty")])
        rendered = report.format()
        assert "empty" in rendered
        assert "<empty query>" in rendered


class TestBoundQuery:
    def test_resolve_returns_bound_query(self, perfxplain):
        resolved = perfxplain.resolve(JOB_QUERY_TEXT)
        assert isinstance(resolved, BoundQuery)
        assert resolved.first_id and resolved.second_id

    def test_bound_raises_on_unbound(self, perfxplain):
        query = perfxplain.parse(JOB_QUERY_TEXT)
        with pytest.raises(PXQLValidationError):
            query.bound()

    def test_with_pair_returns_bound(self, perfxplain):
        query = perfxplain.parse(JOB_QUERY_TEXT).with_pair("j1", "j2")
        assert isinstance(query, BoundQuery)
        assert query.bound() is not None

    def test_bound_query_requires_ids(self, perfxplain):
        query = perfxplain.parse(JOB_QUERY_TEXT)
        with pytest.raises(PXQLValidationError):
            BoundQuery(
                entity=query.entity, observed=query.observed,
                expected=query.expected, despite=query.despite,
            )


class TestSession:
    def test_clause_signature_is_structural_not_rendered(self):
        from repro.core.pxql.query import EntityKind, PXQLQuery

        def query_with_value(value):
            return PXQLQuery(
                entity=EntityKind.JOB,
                despite=Predicate.of(Comparison("numinstances", Operator.EQ, value)),
                observed=Predicate.of(Comparison("duration_compare", Operator.EQ, "GT")),
                expected=Predicate.of(Comparison("duration_compare", Operator.EQ, "SIM")),
            )

        int_sig = PerfXplainSession._clause_signature(query_with_value(2))
        str_sig = PerfXplainSession._clause_signature(query_with_value("2"))
        assert int_sig != str_sig  # str(predicate) would render both as "= 2"
        assert int_sig == PerfXplainSession._clause_signature(query_with_value(2))

    def test_examples_cached_per_clause_signature(self, small_log, job_query):
        session = PerfXplainSession(small_log)
        first = session.training_matrix(job_query)
        second = session.training_matrix(JOB_QUERY_TEXT)
        assert first is second  # same clause signature -> one construction
        assert len(session._matrix_cache) == 1

    def test_find_pair_cached(self, small_log):
        session = PerfXplainSession(small_log)
        assert session.find_pair(JOB_QUERY_TEXT) == session.find_pair(JOB_QUERY_TEXT)
        # The pick lives with the clause signature's matrix: one entry,
        # built once and then read.
        assert len(session._matrix_cache) == 1
        stats = session.cache_stats()["matrices"]
        assert (stats.misses, stats.hits) == (1, 1)
        query = session.parse(JOB_QUERY_TEXT)
        assert session.find_pair(query) == find_pair_of_interest(
            small_log, query, schema=session.schema_for(query),
            config=session.config.pair_config, rng=random.Random(0),
        )

    def test_session_explanations_match_quality(self, small_log, job_query):
        session = PerfXplainSession(small_log)
        explanation = session.explain(job_query, width=2)
        assert explanation.width >= 1
        assert explanation.metrics is not None

    def test_explain_batch_returns_report(self, small_log):
        session = PerfXplainSession(small_log)
        report = session.explain_batch([JOB_QUERY_TEXT, JOB_QUERY_TEXT], width=2)
        assert len(report) == 2
        assert all(entry.ok for entry in report)
        assert len(session._matrix_cache) == 1
        parsed = json.loads(report.to_json())
        assert len(parsed["entries"]) == 2

    def test_explain_batch_collects_errors(self, small_log):
        bad = """
            FOR JOBS 'job_missing_1', 'job_missing_2'
            OBSERVED duration_compare = GT
            EXPECTED duration_compare = SIM
        """
        session = PerfXplainSession(small_log)
        report = session.explain_batch([JOB_QUERY_TEXT, bad], width=2)
        assert report[0].ok
        assert not report[1].ok
        assert report[1].error

    def test_explain_batch_raises_without_collect(self, small_log):
        bad = """
            FOR JOBS 'job_missing_1', 'job_missing_2'
            OBSERVED duration_compare = GT
            EXPECTED duration_compare = SIM
        """
        session = PerfXplainSession(small_log)
        with pytest.raises(ExplanationError):
            session.explain_batch([bad], collect_errors=False)

    def test_session_on_empty_log_reports_error(self):
        session = PerfXplainSession(ExecutionLog())
        report = session.explain_batch([JOB_QUERY_TEXT])
        assert len(report.failures) == 1

    def test_examples_not_built_for_techniques_that_ignore_them(
        self, small_log, job_query, constant_technique
    ):
        session = PerfXplainSession(small_log)
        session.explain(job_query, technique="constant")
        assert len(session._matrix_cache) == 0  # construction deferred and skipped


class TestSessionCacheBounds:
    """The session's caches are bounded LRUs with observable counters."""

    def test_cache_stats_names_every_cache(self):
        # A log of its own: ``record_blocks`` is the log's block cache,
        # which a session-scoped fixture shares with every earlier test.
        log = ExecutionLog(jobs=[
            JobRecord(job_id=f"j{index}", features={"pig_script": "a.pig"},
                      duration=1.0 + index)
            for index in range(3)
        ])
        session = PerfXplainSession(log)
        stats = session.cache_stats()
        assert set(stats) == {"explanations", "matrices", "record_blocks"}
        assert all(s.size == 0 for s in stats.values())

    def test_repeated_explain_hits_the_explanation_cache(self, tiny_log):
        session = PerfXplainSession(tiny_log)
        first = session.explain(JOB_QUERY_TEXT, width=2)
        second = session.explain(JOB_QUERY_TEXT, width=2)
        assert first is second
        stats = session.cache_stats()
        assert stats["explanations"].hits == 1
        assert stats["explanations"].misses == 1

    def test_capacity_none_is_unbounded(self, tiny_log):
        session = PerfXplainSession(tiny_log, cache_capacity=None)
        session.explain(JOB_QUERY_TEXT, width=2)
        assert session.cache_stats()["explanations"].capacity is None

    def test_eviction_only_costs_recomputation(self, tiny_log):
        bounded = PerfXplainSession(tiny_log, cache_capacity=1)
        reference = PerfXplainSession(tiny_log)
        widths = [1, 2, 3]
        first_round = [bounded.explain(JOB_QUERY_TEXT, width=w) for w in widths]
        # Capacity 1 means earlier widths were evicted; re-asking recomputes
        # the identical explanation (determinism is seed-derived, not cached).
        second_round = [bounded.explain(JOB_QUERY_TEXT, width=w) for w in widths]
        expected = [reference.explain(JOB_QUERY_TEXT, width=w) for w in widths]
        for recomputed, once, oracle in zip(second_round, first_round, expected):
            assert recomputed.to_dict() == once.to_dict() == oracle.to_dict()
        assert bounded.cache_stats()["explanations"].evictions >= 2

    def test_default_capacity_is_generous_but_finite(self, tiny_log):
        from repro.core.api import DEFAULT_CACHE_CAPACITY

        session = PerfXplainSession(tiny_log)
        assert session.cache_stats()["explanations"].capacity == DEFAULT_CACHE_CAPACITY
        assert DEFAULT_CACHE_CAPACITY >= 256


class TestReportEntrySelfDescription:
    """ReportEntry JSON carries technique/width/elapsed_ms (satellite)."""

    def _explanation(self):
        because = Predicate.of(Comparison("blocksize_compare", Operator.EQ, "GT"))
        return Explanation(because=because, technique="PerfXplain")

    def test_to_dict_carries_new_fields(self):
        entry = ReportEntry(
            query="FOR JOBS 'a', 'b'\nOBSERVED duration_compare = GT\n"
                  "EXPECTED duration_compare = SIM",
            first_id="a", second_id="b", explanation=self._explanation(),
            technique="PerfXplain", width=1, elapsed_ms=12.5,
        )
        payload = entry.to_dict()
        assert payload["technique"] == "PerfXplain"
        assert payload["width"] == 1
        assert payload["elapsed_ms"] == 12.5
        rebuilt = ReportEntry.from_dict(payload)
        assert rebuilt.to_dict() == payload

    def test_to_dict_derives_fields_from_explanation(self):
        entry = ReportEntry(query="FOR JOBS ?, ?", explanation=self._explanation())
        payload = entry.to_dict()
        assert payload["technique"] == "PerfXplain"
        assert payload["width"] == 1
        assert payload["elapsed_ms"] is None

    def test_from_dict_accepts_old_payloads(self):
        # A pre-1.2 payload: no technique/width/elapsed_ms keys at all.
        old = {
            "query": "FOR JOBS 'a', 'b'\nOBSERVED duration_compare = GT\n"
                     "EXPECTED duration_compare = SIM",
            "pair": ["a", "b"],
            "explanation": self._explanation().to_dict(),
            "error": None,
        }
        entry = ReportEntry.from_dict(old)
        assert entry.ok
        assert entry.technique == "PerfXplain"  # recovered from the explanation
        assert entry.width == 1
        assert entry.elapsed_ms is None

    def test_from_dict_accepts_old_error_payloads(self):
        old = {"query": "FOR JOBS ?, ?", "error": "no such pair"}
        entry = ReportEntry.from_dict(old)
        assert not entry.ok
        assert entry.technique is None and entry.width is None

    def test_batch_entries_record_elapsed_time(self, tiny_log):
        session = PerfXplainSession(tiny_log)
        report = session.explain_batch([JOB_QUERY_TEXT], width=2)
        entry = report[0]
        assert entry.ok
        assert entry.technique == "PerfXplain"
        assert entry.width is not None and entry.width >= 1
        assert entry.elapsed_ms is not None and entry.elapsed_ms > 0.0

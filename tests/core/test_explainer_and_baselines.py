"""Tests for Algorithm 1 (PerfXplainExplainer) and the two baselines."""

import random

import pytest

from repro.core.baselines import RuleOfThumbExplainer, SimButDiffExplainer
from repro.core.examples import construct_training_matrix
from repro.core.explainer import PerfXplainConfig, PerfXplainExplainer
from repro.core.explanation import Explanation, evaluate_explanation
from repro.core.features import PERFORMANCE_METRIC, FeatureLevel
from repro.core.pairs import IS_SAME_SUFFIX, compute_pair_features, raw_feature_of
from repro.core.pxql.ast import TRUE_PREDICATE
from repro.core.pxql.parser import parse_predicate
from repro.core.queries import why_slower_despite_same_num_instances
from repro.exceptions import ConfigurationError, ExplanationError
from repro.ml.matrix import FeatureColumn
from repro.ml.splits import CandidatePredicate


class TestPerfXplainConfig:
    def test_defaults_match_paper(self):
        config = PerfXplainConfig()
        assert config.width == 3
        assert config.score_weight == pytest.approx(0.8)
        assert config.sample_size == 2000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PerfXplainConfig(width=-1)
        with pytest.raises(ConfigurationError):
            PerfXplainConfig(score_weight=1.5)
        with pytest.raises(ConfigurationError):
            PerfXplainConfig(sample_size=0)


class TestPerfXplainExplainer:
    def test_requires_bound_pair(self, small_log):
        explainer = PerfXplainExplainer()
        with pytest.raises(ExplanationError):
            explainer.explain(small_log, why_slower_despite_same_num_instances())

    def test_explanation_has_requested_width(self, small_log, job_schema, job_query):
        explainer = PerfXplainExplainer()
        explanation = explainer.explain(small_log, job_query, schema=job_schema, width=2)
        assert 1 <= explanation.width <= 2

    def test_width_zero_gives_empty_because(self, small_log, job_schema, job_query):
        explanation = PerfXplainExplainer().explain(
            small_log, job_query, schema=job_schema, width=0
        )
        assert explanation.because.is_true

    def test_explanation_applicable_to_pair_of_interest(self, small_log, job_schema, job_query):
        explainer = PerfXplainExplainer()
        explanation = explainer.explain(small_log, job_query, schema=job_schema, width=3)
        first = small_log.find_job(job_query.first_id)
        second = small_log.find_job(job_query.second_id)
        pair_values = compute_pair_features(first, second, job_schema)
        assert explanation.is_applicable(pair_values)

    def test_explanation_never_mentions_duration(self, small_log, job_schema, job_query):
        explanation = PerfXplainExplainer().explain(
            small_log, job_query, schema=job_schema, width=4
        )
        for feature in explanation.because.features():
            assert raw_feature_of(feature) != PERFORMANCE_METRIC

    def test_explanation_improves_precision_over_empty(self, small_log, job_schema, job_query):
        explainer = PerfXplainExplainer()
        explanation = explainer.explain(small_log, job_query, schema=job_schema, width=3)
        matrix = construct_training_matrix(
            small_log, job_query, job_schema, rng=random.Random(5)
        )
        base_rate = sum(matrix.observed) / len(matrix)
        metrics = evaluate_explanation(explanation, matrix)
        assert metrics.precision > base_rate

    def test_task_level_explanation(self, small_log, task_schema, task_query):
        explanation = PerfXplainExplainer().explain(
            small_log, task_query, schema=task_schema, width=3
        )
        assert explanation.width >= 1
        assert explanation.metrics is not None

    def test_level1_restricts_features_to_is_same(self, small_log, job_schema, job_query):
        config = PerfXplainConfig(feature_level=FeatureLevel.IS_SAME_ONLY)
        explanation = PerfXplainExplainer(config).explain(
            small_log, job_query, schema=job_schema, width=3
        )
        assert all(name.endswith(IS_SAME_SUFFIX) for name in explanation.because.features())

    def test_generate_despite_improves_relevance(self, small_log, job_schema, job_query):
        explainer = PerfXplainExplainer()
        stripped = job_query.without_despite()
        despite = explainer.generate_despite(small_log, stripped, schema=job_schema, width=3)
        assert 1 <= despite.width <= 3
        matrix = construct_training_matrix(
            small_log, stripped, job_schema, rng=random.Random(6)
        )

        def relevance(predicate):
            explanation = Explanation(because=TRUE_PREDICATE, despite=predicate)
            return evaluate_explanation(explanation, matrix).relevance

        assert relevance(despite) > relevance(TRUE_PREDICATE)

    def test_auto_despite_produces_combined_explanation(self, small_log, job_schema, job_query):
        explainer = PerfXplainExplainer()
        explanation = explainer.explain(
            small_log, job_query.without_despite(), schema=job_schema, width=2,
            auto_despite=True, despite_width=2,
        )
        assert not explanation.despite.is_true

    def test_wrong_pair_rejected(self, small_log, job_schema):
        # A pair that does not satisfy the observed clause must be refused.
        jobs = sorted(small_log.jobs, key=lambda job: job.duration)
        fast, slow = jobs[0], jobs[-1]
        query = why_slower_despite_same_num_instances(fast.job_id, slow.job_id)
        query = query.without_despite()
        with pytest.raises(Exception):
            PerfXplainExplainer().explain(small_log, query, schema=job_schema)

    def test_deterministic_with_same_seed(self, small_log, job_schema, job_query):
        first = PerfXplainExplainer(rng=random.Random(3)).explain(
            small_log, job_query, schema=job_schema, width=3
        )
        second = PerfXplainExplainer(rng=random.Random(3)).explain(
            small_log, job_query, schema=job_schema, width=3
        )
        assert str(first.because) == str(second.because)

    def test_threshold_recount_matches_satisfied_by_beyond_2_53(self):
        # 2**53 + 1 rounds onto 2**53's float image, so a threshold between
        # the images must not be recounted over them.
        values = [2**53, 2**53 + 1, 2**53 + 2, 2**53 + 4, 2**53 + 1, 2**53]
        column = FeatureColumn.from_values("big", values, numeric=True)
        rows = list(range(len(values)))
        for threshold in (9007199254740992.0, 9007199254740993.0, 9007199254740994.5):
            for operator in ("<=", ">"):
                candidate = CandidatePredicate("big", operator, threshold, 0.0)
                flags = PerfXplainExplainer._satisfied_flags(candidate, column, rows)
                if flags is not None:
                    assert [int(flag) for flag in flags] == [
                        int(candidate.satisfied_by(value)) for value in values
                    ]


class TestRuleOfThumb:
    def test_explanation_uses_is_same_false_atoms(self, small_log, job_schema, job_query):
        explanation = RuleOfThumbExplainer().explain(
            small_log, job_query, schema=job_schema, width=3
        )
        assert explanation.technique == "RuleOfThumb"
        assert 1 <= explanation.width <= 3
        for atom in explanation.because.atoms:
            assert atom.feature.endswith(IS_SAME_SUFFIX)
            assert atom.value == "F"

    def test_ranking_is_cached_per_log(self, small_log, job_schema, job_query):
        explainer = RuleOfThumbExplainer()
        first = explainer.rank_features(small_log, job_query, job_schema)
        second = explainer.rank_features(small_log, job_query, job_schema)
        assert first == second

    def test_ranking_excludes_duration(self, small_log, job_schema, job_query):
        ranked = RuleOfThumbExplainer().rank_features(small_log, job_query, job_schema)
        assert all(name != PERFORMANCE_METRIC for name, _ in ranked)

    def test_requires_bound_pair(self, small_log):
        with pytest.raises(ExplanationError):
            RuleOfThumbExplainer().explain(small_log, why_slower_despite_same_num_instances())


class TestSimButDiff:
    def test_explanation_uses_only_is_same_features(self, small_log, job_schema, job_query):
        explanation = SimButDiffExplainer().explain(
            small_log, job_query, schema=job_schema, width=3
        )
        assert explanation.technique == "SimButDiff"
        for atom in explanation.because.atoms:
            assert atom.feature.endswith(IS_SAME_SUFFIX)
            assert raw_feature_of(atom.feature) != PERFORMANCE_METRIC

    def test_explanation_applicable_to_pair(self, small_log, job_schema, job_query):
        explanation = SimButDiffExplainer().explain(
            small_log, job_query, schema=job_schema, width=3
        )
        first = small_log.find_job(job_query.first_id)
        second = small_log.find_job(job_query.second_id)
        pair_values = compute_pair_features(first, second, job_schema)
        assert explanation.because.evaluate(pair_values)

    def test_similarity_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            SimButDiffExplainer(similarity_threshold=0.0)

    def test_width_respected(self, small_log, job_schema, job_query):
        explanation = SimButDiffExplainer().explain(
            small_log, job_query, schema=job_schema, width=2
        )
        assert explanation.width <= 2

"""Tests for explanations, metrics, training examples and sampling.

``TestBitsetCounts`` also checks the row-bitset counts behind the metrics
and behind SimButDiff against the row-walking references in
:mod:`tests.oracles.metricref`.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baselines import SimButDiffExplainer
from repro.core.examples import (
    Label,
    TrainingExample,
    TrainingMatrix,
    construct_training_matrix,
    find_record,
    iter_related_pairs,
    observed_flags,
    records_for_query,
)
from repro.core.explanation import (
    Explanation,
    ExplanationMetrics,
    _tally,
    evaluate_explanation,
)
from repro.core.pairs import IS_SAME_SUFFIX, compute_pair_features
from repro.core.pxql.ast import Comparison, Operator, Predicate, TRUE_PREDICATE
from repro.core.pxql.parser import parse_predicate
from repro.core.queries import why_last_task_faster, why_slower_despite_same_num_instances
from repro.core.sampling import stratified_keep_indices
from repro.exceptions import ExplanationError
from repro.ml.matrix import bits_to_flags

from tests.oracles.metricref import (
    feature_scores_reference,
    satisfied_reference,
    similar_examples_reference,
    tally_reference,
)
from tests.oracles.pairref import (
    balanced_sample,
    class_counts,
    listed_matrix,
    stratified_keep_indices_reference,
)


def example(label: Label, **values) -> TrainingExample:
    return TrainingExample(first_id="a", second_id="b", values=values, label=label)


def synthetic_examples():
    """20 examples where `cause = yes` implies OBSERVED with precision 0.8."""
    examples = []
    for index in range(10):
        examples.append(example(Label.OBSERVED if index < 8 else Label.EXPECTED,
                                cause="yes", other=index))
    for index in range(10):
        examples.append(example(Label.EXPECTED if index < 9 else Label.OBSERVED,
                                cause="no", other=index))
    return examples


class TestExplanationObject:
    def test_applicability_requires_both_clauses(self):
        explanation = Explanation(
            because=parse_predicate("cause = yes"),
            despite=parse_predicate("context = here"),
        )
        assert explanation.is_applicable({"cause": "yes", "context": "here"})
        assert not explanation.is_applicable({"cause": "yes", "context": "elsewhere"})
        assert not explanation.is_applicable({"cause": "no", "context": "here"})

    def test_width_counts_because_atoms(self):
        explanation = Explanation(because=parse_predicate("a = 1 AND b = 2"))
        assert explanation.width == 2

    def test_format_mentions_clauses_and_metrics(self):
        explanation = Explanation(
            because=parse_predicate("cause = yes"),
            despite=parse_predicate("context = here"),
            metrics=ExplanationMetrics(relevance=0.9, precision=0.8, generality=0.4, support=10),
        )
        text = explanation.format()
        assert "DESPITE context = here" in text
        assert "BECAUSE cause = yes" in text
        assert "precision=0.80" in text

    def test_metrics_as_dict(self):
        metrics = ExplanationMetrics(0.1, 0.2, 0.3, 4)
        assert metrics.as_dict() == {
            "relevance": 0.1, "precision": 0.2, "generality": 0.3, "support": 4.0,
        }


class TestMetricEstimation:
    def test_precision_of_cause(self):
        explanation = Explanation(because=parse_predicate("cause = yes"))
        metrics = evaluate_explanation(explanation, listed_matrix(synthetic_examples()))
        assert metrics.precision == pytest.approx(0.8)

    def test_generality_of_cause(self):
        explanation = Explanation(because=parse_predicate("cause = yes"))
        metrics = evaluate_explanation(explanation, listed_matrix(synthetic_examples()))
        assert metrics.generality == pytest.approx(0.5)

    def test_relevance_counts_expected(self):
        explanation = Explanation(
            because=TRUE_PREDICATE, despite=parse_predicate("cause = no")
        )
        metrics = evaluate_explanation(explanation, listed_matrix(synthetic_examples()))
        assert metrics.relevance == pytest.approx(0.9)

    def test_empty_match_gives_zero(self):
        explanation = Explanation(because=parse_predicate("cause = maybe"))
        metrics = evaluate_explanation(explanation, listed_matrix(synthetic_examples()))
        assert metrics.precision == 0.0
        assert metrics.generality == 0.0

    def test_evaluate_explanation_combines_all(self):
        explanation = Explanation(because=parse_predicate("cause = yes"))
        metrics = evaluate_explanation(explanation, listed_matrix(synthetic_examples()))
        assert metrics.precision == pytest.approx(0.8)
        assert metrics.generality == pytest.approx(0.5)
        assert metrics.support == 20

    def test_empty_because_precision_equals_base_rate(self):
        examples = synthetic_examples()
        explanation = Explanation(because=TRUE_PREDICATE)
        metrics = evaluate_explanation(explanation, listed_matrix(examples))
        observed = sum(1 for ex in examples if ex.is_observed)
        assert metrics.precision == pytest.approx(observed / len(examples))
        assert metrics.generality == pytest.approx(1.0)


#: One NaN object shared by every row that draws it (so the column's code
#: table holds it as a key), beside a fresh NaN constant in some atoms.
NAN = float("nan")
#: ``isSame``-style values, missing ones included.
SAME_POOL = ["T", "F", "F", None]
#: A numeric column mixing floats, ints, bools, NaN and a string.
MIXED_POOL = [0.5, 2.0, 2.0, 1, True, False, NAN, "2.0", None]
#: ``1``, ``1.0`` and ``True`` are one dict-equality class.
ONES_POOL = [1, 1.0, True, "1", "2", None]
#: Similarity thresholds; ``0.7 * 10`` is ``7.000000000000001`` in floating
#: point, so a row then needs 8 agreements of 10.
SIMILARITY_THRESHOLDS = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
SAME_FEATURES = [f"s{index}{IS_SAME_SUFFIX}" for index in range(10)]
#: A clean numeric column: ints beyond 2**53 that equal their float image,
#: ``-0.0`` beside ``0.5`` and ``2.0``.
WIDE_POOL = [2**53, 2**60, -(2**55), 3, 0.5, -0.0, 2.0, None]
#: Not clean: ``2**53 + 1`` has no exact float image.
INEXACT_POOL = [2**53, 2**53 + 1, 7, 1.5, None]
#: Threshold constants: ints, floats, beyond 2**53, NaN, bools, a string
#: and ``None``.
THRESHOLD_CONSTANTS = [
    1, 2.0, 0.75, 0, -0.0, 2**53, 2**53 + 1, -(2**60), float("nan"),
    float("inf"), True, False, "2.0", None,
]


def count_examples(seed: int) -> tuple[list[TrainingExample], dict[str, bool]]:
    """Random labeled examples and the catalog they are encoded under.

    ``outside`` is carried by the examples but is not in the catalog;
    ``absent`` appears in atoms only.  ``wide`` and ``inexact`` are drawn
    from a generator of their own, so the other columns keep their data.
    """
    rng = random.Random(seed)
    extra = random.Random(f"threshold:{seed}")
    examples = []
    for _ in range(rng.randint(1, 70)):
        values = {feature: rng.choice(SAME_POOL) for feature in SAME_FEATURES}
        values.update(
            mixed=rng.choice(MIXED_POOL),
            ones=rng.choice(ONES_POOL),
            clean=rng.choice([1.0, 2.5, 4, 4.0, None]),
            outside=rng.choice(["x", "y", 3, None]),
            wide=extra.choice(WIDE_POOL),
            inexact=extra.choice(INEXACT_POOL),
        )
        examples.append(example(rng.choice([Label.OBSERVED, Label.EXPECTED]), **values))
    catalog = {feature: False for feature in SAME_FEATURES}
    catalog.update(mixed=True, ones=False, clean=True, wide=True, inexact=True)
    return examples, catalog


def count_atoms(examples: list[TrainingExample]) -> list[Comparison]:
    """Equality atoms on every stored value and on values no row stores,
    and threshold and inequality atoms, on every feature."""
    features = SAME_FEATURES + ["mixed", "ones", "clean", "outside", "absent"]
    atoms = []
    for feature in features:
        stored = {id(value): value for ex in examples
                  if (value := ex.values.get(feature)) is not None}
        for value in [*stored.values(), None, float("nan"), "never", [1]]:
            atoms.append(Comparison(feature, Operator.EQ, value))
        for value in ["F", 2.0, 1]:
            atoms.append(Comparison(feature, Operator.NE, value))
        for operator in (Operator.LE, Operator.GT, Operator.LT, Operator.GE):
            for value in (1, 2.0, 0.75, "2.0"):
                atoms.append(Comparison(feature, operator, value))
    return atoms


class TestBitsetCounts:
    """Row bitsets count exactly what the row-walking references count."""

    @staticmethod
    def matrices(seed: int) -> tuple[list[TrainingExample], list[TrainingMatrix]]:
        """Random examples, read without and with a catalog."""
        examples, catalog = count_examples(seed)
        return examples, [listed_matrix(examples), listed_matrix(examples, catalog)]

    @pytest.mark.parametrize("seed", range(30))
    def test_satisfied_and_tally_match_the_row_walk(self, seed):
        rng = random.Random(seed + 100)
        examples, matrices = self.matrices(seed)
        for matrix in matrices:
            atoms = count_atoms(examples)
            predicates = [Predicate.of(atom) for atom in atoms] + [
                Predicate.conjunction(rng.sample(atoms, rng.randint(2, 3)))
                for _ in range(40)
            ]
            for predicate in predicates:
                assert bits_to_flags(matrix.satisfied(predicate), len(matrix)) == bytes(
                    satisfied_reference(matrix, predicate)
                ), predicate
            for _ in range(40):
                despite = rng.choice(predicates + [TRUE_PREDICATE])
                because = rng.choice(predicates + [TRUE_PREDICATE])
                assert _tally(despite, because, matrix) == tally_reference(
                    despite, because, matrix
                )

    @pytest.mark.parametrize("seed", range(30))
    def test_threshold_atoms_match_the_row_walk(self, seed):
        """Threshold atoms on clean numeric catalog columns compare float
        images; every other column and constant maps the atom over the
        values.  Both must count what the row walk counts."""
        rng = random.Random(seed + 300)
        features = ["clean", "wide", "inexact", "mixed", "ones", SAME_FEATURES[0],
                    "outside", "absent"]
        operators = [Operator.LT, Operator.LE, Operator.GT, Operator.GE]
        examples, matrices = self.matrices(seed)
        for matrix in matrices:
            if matrix.matrix.catalog:
                assert matrix.matrix.column("clean").clean
                assert matrix.matrix.column("wide").clean
                inexact = 2**53 + 1 in matrix.values("inexact")
                assert matrix.matrix.column("inexact").clean is not inexact
            atoms = [
                Comparison(feature, operator, constant)
                for feature in features
                for operator in operators
                for constant in THRESHOLD_CONSTANTS
            ]
            stored = [Comparison(feature, Operator.EQ, value)
                      for example in examples
                      for feature, value in example.values.items()
                      if value is not None]
            predicates = [Predicate.of(atom) for atom in atoms] + [
                Predicate.conjunction(rng.sample(atoms, 2) + rng.sample(stored, 1))
                for _ in range(40)
            ]
            for predicate in predicates:
                assert bits_to_flags(matrix.satisfied(predicate), len(matrix)) == bytes(
                    satisfied_reference(matrix, predicate)
                ), predicate

    @pytest.mark.parametrize("seed", range(30))
    def test_similarity_and_scores_match_the_row_walk(self, seed):
        rng = random.Random(seed + 200)
        for matrix in self.matrices(seed)[1]:
            for threshold in SIMILARITY_THRESHOLDS:
                explainer = SimButDiffExplainer(similarity_threshold=threshold)
                for k in range(len(SAME_FEATURES) + 1):
                    features = sorted(rng.sample(SAME_FEATURES, k))
                    pair_values = {feature: rng.choice(["T", "F", None])
                                   for feature in SAME_FEATURES}
                    similar = explainer._similar_examples(matrix, pair_values, features)
                    rows = similar_examples_reference(threshold, matrix, pair_values, features)
                    flags = bits_to_flags(similar, len(matrix))
                    assert [row for row, flag in enumerate(flags) if flag] == rows
                    assert explainer._feature_scores(
                        matrix, similar, pair_values, features
                    ) == feature_scores_reference(matrix, rows, pair_values, features)

    def test_kernel_matrix_counts_match_the_row_walk(self, small_log, job_schema, job_query):
        matrix = construct_training_matrix(
            small_log, job_query, job_schema, sample_size=300, rng=random.Random(0)
        )
        first = small_log.find_job(job_query.first_id)
        second = small_log.find_job(job_query.second_id)
        pair_values = compute_pair_features(first, second, job_schema)
        features = sorted(name for name in pair_values if name.endswith(IS_SAME_SUFFIX))
        for feature in features + ["blocksize", "numinstances_compare"]:
            for value in set(matrix.values(feature)) | {pair_values.get(feature)}:
                predicate = Predicate.of(Comparison(feature, Operator.EQ, value))
                assert bits_to_flags(matrix.satisfied(predicate), len(matrix)) == bytes(
                    satisfied_reference(matrix, predicate)
                )
        for threshold in SIMILARITY_THRESHOLDS:
            explainer = SimButDiffExplainer(similarity_threshold=threshold)
            similar = explainer._similar_examples(matrix, pair_values, features)
            rows = similar_examples_reference(threshold, matrix, pair_values, features)
            flags = bits_to_flags(similar, len(matrix))
            assert [row for row, flag in enumerate(flags) if flag] == rows
            assert explainer._feature_scores(
                matrix, similar, pair_values, features
            ) == feature_scores_reference(matrix, rows, pair_values, features)


class TestBalancedSampling:
    def _items(self, observed, expected):
        return (
            [example(Label.OBSERVED, index=i) for i in range(observed)]
            + [example(Label.EXPECTED, index=i) for i in range(expected)]
        )

    def test_small_input_returned_unchanged(self):
        items = self._items(5, 5)
        assert balanced_sample(items, 100, random.Random(0)) == items

    def test_balances_skewed_classes(self):
        items = self._items(2000, 100)
        sampled = balanced_sample(items, 400, random.Random(1))
        counts = class_counts(sampled)
        # The minority class is kept whole (its target is not reached) and
        # the majority class is cut to exactly half the sample size; the
        # slack is never redistributed (the capped-probability expectation).
        assert counts[Label.EXPECTED] == 100
        assert counts[Label.OBSERVED] == 200

    def test_exact_sample_size_when_classes_large(self):
        items = self._items(5000, 5000)
        sampled = balanced_sample(items, 1000, random.Random(2))
        assert len(sampled) == 1000
        counts = class_counts(sampled)
        assert counts[Label.OBSERVED] == 500
        assert counts[Label.EXPECTED] == 500

    def test_odd_sample_size_gives_observed_the_remainder(self):
        items = self._items(500, 500)
        sampled = balanced_sample(items, 101, random.Random(3))
        counts = class_counts(sampled)
        assert counts[Label.OBSERVED] == 51
        assert counts[Label.EXPECTED] == 50

    def test_deterministic_for_a_seed_and_order_preserving(self):
        items = self._items(300, 300)
        first = balanced_sample(items, 100, random.Random(7))
        second = balanced_sample(items, 100, random.Random(7))
        assert first == second
        positions = [items.index(item) for item in first]
        assert positions == sorted(positions)

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            balanced_sample(self._items(1, 1), 0)

    @settings(max_examples=200, deadline=None)
    @given(
        labels=st.lists(st.sampled_from([Label.OBSERVED, Label.EXPECTED]), max_size=300),
        sample_size=st.integers(1, 320),
        seed=st.integers(0, 2**32),
    )
    def test_flag_split_keeps_the_label_loop_indices(self, labels, sample_size, seed):
        """Splitting the classes with ``compress`` over the observed flags
        keeps exactly the indices the label-hashing loop kept, drawing the
        same randomness."""
        rng, reference_rng = random.Random(seed), random.Random(seed)
        kept = stratified_keep_indices(observed_flags(labels), sample_size, rng)
        assert kept == stratified_keep_indices_reference(labels, sample_size, reference_rng)
        assert rng.getstate() == reference_rng.getstate()

    @settings(max_examples=20, deadline=None)
    @given(observed=st.integers(0, 500), expected=st.integers(0, 500),
           seed=st.integers(0, 100))
    def test_sample_is_subset_with_both_classes_represented(self, observed, expected, seed):
        items = self._items(observed, expected)
        sampled = balanced_sample(items, 50, random.Random(seed))
        assert len(sampled) <= len(items)
        counts = class_counts(sampled)
        if observed > 0 and expected > 0 and len(items) > 50:
            # Balancing never drops an entire minority class of size >= 25.
            if min(observed, expected) >= 25:
                assert counts[Label.OBSERVED] > 0
                assert counts[Label.EXPECTED] > 0


class TestRelatedPairs:
    def test_records_for_query_selects_entity(self, small_log):
        job_query = why_slower_despite_same_num_instances()
        task_query = why_last_task_faster()
        assert records_for_query(small_log, job_query) == small_log.jobs
        assert records_for_query(small_log, task_query) == small_log.tasks

    def test_find_record_raises_for_unknown_id(self, small_log):
        query = why_slower_despite_same_num_instances("job_does_not_exist", "also_missing")
        with pytest.raises(ExplanationError):
            find_record(small_log, query, "job_does_not_exist")

    def test_related_pairs_satisfy_despite_and_labels(self, small_log, job_schema):
        query = why_slower_despite_same_num_instances()
        pairs = list(iter_related_pairs(small_log, query, job_schema))
        assert pairs, "expected at least one related pair in the small log"
        durations = {job.job_id: job.duration for job in small_log.jobs}
        for first, second, label in pairs[:200]:
            assert first.features["numinstances"] == second.features["numinstances"]
            assert first.features["pig_script"] == second.features["pig_script"]
            if label is Label.OBSERVED:
                assert durations[first.job_id] > durations[second.job_id]

    def test_unknown_query_feature_raises(self, small_log, job_schema):
        query = why_slower_despite_same_num_instances().with_despite(
            parse_predicate("nonexistent_isSame = T")
        )
        with pytest.raises(ExplanationError):
            list(iter_related_pairs(small_log, query, job_schema))

    def test_max_candidate_pairs_limits_enumeration(self, small_log, job_schema):
        query = why_slower_despite_same_num_instances()
        limited = list(
            iter_related_pairs(small_log, query, job_schema, max_candidate_pairs=200,
                               rng=random.Random(0))
        )
        full = list(iter_related_pairs(small_log, query, job_schema))
        assert len(limited) < len(full)

    def test_subsample_independent_of_record_order(self, small_log, job_schema):
        """Regression: the capped subset must not depend on enumeration order.

        Keep decisions hash the pair ids with a seed-derived salt instead of
        consuming a shared rng stream, so reordering the log's records (and
        therefore the blocking groups and candidate sequence) must keep the
        exact same subset.
        """
        query = why_slower_despite_same_num_instances()
        reordered_log = type(small_log)(
            jobs=list(reversed(small_log.jobs)), tasks=list(small_log.tasks)
        )

        def kept(log):
            return {
                (first.entity_id, second.entity_id, label)
                for first, second, label in iter_related_pairs(
                    log, query, job_schema, max_candidate_pairs=200,
                    rng=random.Random(0),
                )
            }

        original = kept(small_log)
        reordered = kept(reordered_log)
        assert original, "the cap should still keep a non-empty subset"
        assert original == reordered


class TestConstructTrainingExamples:
    def test_examples_have_full_vectors_and_labels(self, small_log, job_schema, job_query):
        examples = construct_training_matrix(
            small_log, job_query, job_schema, sample_size=300, rng=random.Random(0)
        ).examples
        assert examples
        assert {ex.label for ex in examples} == {Label.OBSERVED, Label.EXPECTED}
        sample = examples[0]
        assert "duration_compare" in sample.values
        assert "numinstances_isSame" in sample.values
        assert "blocksize" in sample.values

    def test_sample_size_respected(self, small_log, job_schema, job_query):
        examples = construct_training_matrix(
            small_log, job_query, job_schema, sample_size=100, rng=random.Random(1)
        )
        unsampled = construct_training_matrix(
            small_log, job_query, job_schema, sample_size=None, rng=random.Random(1)
        )
        assert len(examples) <= len(unsampled)

    def test_task_query_examples_blocked_by_job_and_host(self, small_log, task_schema, task_query):
        examples = construct_training_matrix(
            small_log, task_query, task_schema, sample_size=200, rng=random.Random(2)
        ).examples
        assert examples
        for ex in examples[:50]:
            first = small_log.find_task(ex.first_id)
            second = small_log.find_task(ex.second_id)
            assert first.job_id == second.job_id
            assert first.features["hostname"] == second.features["hostname"]

"""Differential suite: columnar pair pipeline vs the dict reference path.

The kernel pipeline (`RecordBlock` -> `PairKernel` -> `TrainingMatrix`) must
be a pure re-layout of the pair-at-a-time dict algorithm preserved in
:mod:`tests.oracles.pairref`: on any log and query it must produce **identical**
related pairs (ids, labels *and order*), identical training examples
(feature vectors included) and an identical encoded training matrix.  This
file checks that on 48 randomized logs mixing nominal/numeric/bool/int
columns, missing values, duplicated values, NaN, blocking clauses and every
atom family (isSame/compare/diff/base, EQ/NE/ordering), plus capped
candidate subsampling and the three feature levels.  It also pins the
scalar one-pair vector (:func:`~repro.core.pairs.compute_pair_features`,
which techniques use for the pair of interest) to a one-pair kernel
context at every feature level.  A case whose despite atoms never block
checks the despite clause's atom-by-atom pruning against the reference.
"""

from __future__ import annotations

import random

import pytest

from repro.core.examples import (
    Label,
    _blocked_raw,
    _blocking_features,
    construct_training_matrix,
    encode_training_examples,
    iter_related_pairs,
    pair_kernel_for,
)
from repro.core.features import (
    FeatureKind,
    FeatureLevel,
    FeatureSchema,
    infer_schema,
)
from repro.core.pairs import PairFeatureConfig, compute_pair_features
from repro.core.explanation import Explanation, ExplanationMetrics, evaluate_explanation
from repro.core.evaluation import measure_on_log
from repro.core.pairkernel import PairContext
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.logs.records import JobRecord
from repro.logs.store import ExecutionLog

from tests.oracles.pairref import (
    construct_training_examples_reference,
    iter_related_pairs_reference,
    listed_matrix,
)

#: Randomized log/query seeds exercised by every differential test.
DATASET_SEEDS = list(range(48))

SCRIPTS = ["wordcount.pig", "join.pig", "filter.pig", None]
HOSTS = ["host-a", "host-b", "host-c", "host-d", None]
MEM_POOL = [0.5, 0.5, 2.0, 2.0, 8.0, 17.5, -3.25, 0.0, None, None]
SIZE_POOL = [64, 64, 128, 256, 1024, None]
FLAG_POOL = [True, False, False, None]
DURATION_POOL = [1.0, 2.0, 2.0, 5.0, 5.5, 30.0, 120.0]


def random_log(seed: int) -> ExecutionLog:
    """A randomized job log with missing values, duplicates and NaN."""
    rng = random.Random(seed)
    nan = float("nan")
    log = ExecutionLog()
    for index in range(rng.randint(10, 60)):
        features = {
            "script": rng.choice(SCRIPTS),
            "host": rng.choice(HOSTS),
            "mem": nan if rng.random() < 0.05 else rng.choice(MEM_POOL),
            "size": rng.choice(SIZE_POOL),
            "flag": rng.choice(FLAG_POOL),
        }
        duration = rng.choice(DURATION_POOL) * rng.choice([1.0, 1.0, 1.0, 1.09, 3.0])
        log.add_job(JobRecord(job_id=f"job_{seed}_{index}", features=features,
                              duration=duration))
    return log


#: Despite-atom pool: every kernel mask family (vector paths and fallbacks).
def _despite_pool() -> list[Comparison]:
    return [
        Comparison("script_isSame", Operator.EQ, "T"),      # nominal isSame (blocking)
        Comparison("host_isSame", Operator.EQ, "T"),        # nominal isSame (blocking)
        Comparison("host_isSame", Operator.EQ, "F"),        # isSame EQ F
        Comparison("flag_isSame", Operator.EQ, "T"),        # bool nominal isSame
        Comparison("mem_isSame", Operator.EQ, "T"),         # numeric tolerance isSame
        Comparison("size_isSame", Operator.NE, "F"),        # NE on isSame
        Comparison("mem_compare", Operator.EQ, "SIM"),      # compare EQ SIM
        Comparison("size_compare", Operator.EQ, "GT"),      # compare EQ GT
        Comparison("size_compare", Operator.NE, "LT"),      # compare NE
        Comparison("script", Operator.EQ, "join.pig"),      # base EQ (nominal)
        Comparison("size", Operator.EQ, 64),                # base EQ (numeric)
        Comparison("mem", Operator.LE, 4.0),                # base ordering (fallback)
        Comparison("script_diff", Operator.NE, "(a, b)"),   # diff NE (fallback)
        Comparison("host_isSame", Operator.LT, "U"),        # ordering on isSame (fallback)
    ]


def random_query(seed: int) -> PXQLQuery:
    rng = random.Random(seed * 31 + 7)
    despite = Predicate.conjunction(
        rng.sample(_despite_pool(), rng.randint(0, 3))
    )
    observed = Predicate.of(Comparison("duration_compare", Operator.EQ, "GT"))
    expected = Predicate.of(Comparison("duration_compare", Operator.EQ, "SIM"))
    return PXQLQuery(
        entity=EntityKind.JOB,
        despite=despite,
        observed=observed,
        expected=expected,
        name=f"differential-{seed}",
    )


def pair_ids(pairs):
    return [(first.entity_id, second.entity_id, label) for first, second, label in pairs]


class TestRelatedPairEquivalence:
    @pytest.mark.parametrize("seed", DATASET_SEEDS)
    def test_related_pairs_identical(self, seed):
        log = random_log(seed)
        query = random_query(seed)
        schema = infer_schema(log.jobs)
        kernel = pair_ids(iter_related_pairs(log, query, schema,
                                             rng=random.Random(seed)))
        reference = pair_ids(iter_related_pairs_reference(log, query, schema,
                                                          rng=random.Random(seed)))
        assert kernel == reference

    @pytest.mark.parametrize("seed", DATASET_SEEDS[:12])
    @pytest.mark.parametrize("level", list(FeatureLevel))
    def test_related_pairs_identical_per_level(self, seed, level):
        log = random_log(seed)
        query = random_query(seed)
        schema = infer_schema(log.jobs)
        config = PairFeatureConfig(level=level)
        kernel = pair_ids(iter_related_pairs(log, query, schema, config,
                                             rng=random.Random(seed)))
        reference = pair_ids(iter_related_pairs_reference(log, query, schema, config,
                                                          rng=random.Random(seed)))
        assert kernel == reference

        # The one-pair path: a random pair's scalar vector is a one-pair
        # kernel context's at this level, under the inferred schema and
        # under one forcing numeric kind onto the mixed-type column.
        mixed = mixed_type_log(colliding_log(seed), seed)
        rng = random.Random(seed + 77)
        for schema in (infer_schema(mixed.jobs), forced_numeric_schema()):
            pair_kernel = pair_kernel_for(mixed, query, schema, config)
            for _ in range(20):
                first, second = rng.choice(mixed.jobs), rng.choice(mixed.jobs)
                assert _vectors_equal(
                    compute_pair_features(first, second, schema, config),
                    one_pair_vector(pair_kernel, first.job_id, second.job_id, level),
                ), (first.job_id, second.job_id)

    @pytest.mark.parametrize("seed", DATASET_SEEDS[:16])
    def test_capped_subsampling_identical(self, seed):
        log = random_log(seed)
        query = random_query(seed)
        schema = infer_schema(log.jobs)
        kernel = pair_ids(iter_related_pairs(log, query, schema,
                                             max_candidate_pairs=50,
                                             rng=random.Random(seed)))
        reference = pair_ids(iter_related_pairs_reference(log, query, schema,
                                                          max_candidate_pairs=50,
                                                          rng=random.Random(seed)))
        assert kernel == reference

    @pytest.mark.parametrize("seed", DATASET_SEEDS[:24])
    def test_non_blocking_despite_atoms_prune_one_at_a_time(self, seed):
        """2-5 despite atoms, none of which blocks, so the kernel evaluates
        every one, each over the pairs the atoms before it kept."""
        log = random_log(seed)
        schema = infer_schema(log.jobs)
        rng = random.Random(seed * 13 + 5)
        pool = [atom for atom in _despite_pool() if _blocked_raw(atom, schema) is None]
        query = PXQLQuery(
            entity=EntityKind.JOB,
            despite=Predicate.conjunction(rng.sample(pool, rng.randint(2, 5))),
            observed=Predicate.of(Comparison("duration_compare", Operator.EQ, "GT")),
            expected=Predicate.of(Comparison("duration_compare", Operator.EQ, "SIM")),
            name=f"unblocked-{seed}",
        )
        assert not _blocking_features(query, schema)
        kernel = pair_ids(iter_related_pairs(log, query, schema,
                                             rng=random.Random(seed)))
        reference = pair_ids(iter_related_pairs_reference(log, query, schema,
                                                          rng=random.Random(seed)))
        assert kernel == reference

    @pytest.mark.parametrize("seed", DATASET_SEEDS[:8])
    def test_mixed_type_numeric_column_identical(self, seed):
        """A schema forcing numeric kind onto a mixed-type column."""
        log = mixed_type_log(random_log(seed), seed)
        schema = FeatureSchema()
        for name in ("script", "host", "flag"):
            schema.add(name, FeatureKind.NOMINAL)
        for name in ("mem", "size", "duration"):
            schema.add(name, FeatureKind.NUMERIC)
        query = random_query(seed)
        kernel = pair_ids(iter_related_pairs(log, query, schema,
                                             rng=random.Random(seed)))
        reference = pair_ids(iter_related_pairs_reference(log, query, schema,
                                                          rng=random.Random(seed)))
        assert kernel == reference


def mixed_type_log(log: ExecutionLog, seed: int) -> ExecutionLog:
    """``log`` with strings and bools among the ``mem`` column's numbers."""
    rng = random.Random(seed + 999)
    for job in log.jobs:
        if rng.random() < 0.3:
            job.features["mem"] = rng.choice(["low", "high", True])
    return log


def forced_numeric_schema() -> FeatureSchema:
    """The columns of :func:`colliding_log`, with ``mem`` forced numeric."""
    schema = FeatureSchema()
    for name in ("script", "host", "flag", "host_diff"):
        schema.add(name, FeatureKind.NOMINAL)
    for name in ("mem", "size", "duration", "mem_compare"):
        schema.add(name, FeatureKind.NUMERIC)
    return schema


def one_pair_vector(kernel, first_id: str, second_id: str, level: FeatureLevel) -> dict:
    """One pair's feature vector through a one-pair kernel context: every
    raw feature's derived columns at ``level``, later emissions winning."""
    ids = kernel.block.ids
    ctx = PairContext([ids.index(first_id)], [ids.index(second_id)])
    vector = {}
    for raw in kernel.schema.names():
        for name, values in kernel.derived_columns(ctx, raw, level):
            vector[name] = values[0]
    return vector


class TestTrainingExampleEquivalence:
    @pytest.mark.parametrize("seed", DATASET_SEEDS)
    def test_examples_identical(self, seed):
        log = random_log(seed)
        query = random_query(seed)
        schema = infer_schema(log.jobs)
        sample_size = random.Random(seed + 5).choice([None, 20, 75, 2000])
        kernel = construct_training_matrix(
            log, query, schema, sample_size=sample_size, rng=random.Random(seed)
        ).examples
        reference = construct_training_examples_reference(
            log, query, schema, sample_size=sample_size, rng=random.Random(seed)
        )
        assert len(kernel) == len(reference)
        for kernel_example, reference_example in zip(kernel, reference):
            assert kernel_example.first_id == reference_example.first_id
            assert kernel_example.second_id == reference_example.second_id
            assert kernel_example.label == reference_example.label
            assert _vectors_equal(kernel_example.values, reference_example.values)


def _vectors_equal(kernel_values: dict, reference_values: dict) -> bool:
    """Dict equality that distinguishes NaN-valued from differing entries."""
    if list(kernel_values) != list(reference_values):
        return False
    for key, reference_value in reference_values.items():
        kernel_value = kernel_values[key]
        if kernel_value != reference_value and not (
            kernel_value != kernel_value and reference_value != reference_value
        ):
            return False
    return True


class TestTrainingMatrixEquivalence:
    @pytest.mark.parametrize("seed", DATASET_SEEDS)
    def test_matrix_identical_to_encoded_reference(self, seed):
        log = random_log(seed)
        query = random_query(seed)
        schema = infer_schema(log.jobs)
        level = random.Random(seed + 17).choice(list(FeatureLevel))
        kernel_matrix = construct_training_matrix(
            log, query, schema, sample_size=60, rng=random.Random(seed),
            feature_level=level,
        )
        reference_examples = construct_training_examples_reference(
            log, query, schema, sample_size=60, rng=random.Random(seed)
        )
        reference_matrix = encode_training_examples(
            listed_matrix(reference_examples), schema, feature_level=level
        )
        assert kernel_matrix.encoding == reference_matrix.encoding
        assert kernel_matrix.matrix.features == reference_matrix.matrix.features
        assert bytes(kernel_matrix.observed) == bytes(reference_matrix.observed)
        for feature in kernel_matrix.matrix.features:
            kernel_column = kernel_matrix.matrix.column(feature)
            reference_column = reference_matrix.matrix.column(feature)
            assert kernel_column.numeric == reference_column.numeric, feature
            assert _columns_equal(kernel_column.raw, reference_column.raw), feature


def _columns_equal(kernel_column: list, reference_column: list) -> bool:
    if len(kernel_column) != len(reference_column):
        return False
    for kernel_value, reference_value in zip(kernel_column, reference_column):
        if kernel_value != reference_value and not (
            kernel_value != kernel_value and reference_value != reference_value
        ):
            return False
    return True


class TestMeasureOnLogEquivalence:
    """The kernelized metric estimation matches a dict-path recount."""

    @pytest.mark.parametrize("seed", DATASET_SEEDS[:12])
    def test_metrics_match_dict_recount(self, seed):
        log = random_log(seed)
        query = random_query(seed)
        schema = infer_schema(log.jobs)
        rng = random.Random(seed + 3)
        explanation = Explanation(
            because=Predicate.conjunction(rng.sample(_despite_pool(), 2)),
            despite=Predicate.conjunction(rng.sample(_despite_pool(), 1)),
        )
        metrics = measure_on_log(explanation, query, log, schema=schema,
                                 rng=random.Random(seed))

        in_context = in_context_expected = 0
        matching = matching_observed = 0
        for first, second, label in iter_related_pairs_reference(
            log, query, schema, rng=random.Random(seed)
        ):
            values = compute_pair_features(first, second, schema)
            if not explanation.despite.evaluate(values):
                continue
            in_context += 1
            if label is Label.EXPECTED:
                in_context_expected += 1
            if explanation.because.evaluate(values):
                matching += 1
                if label is Label.OBSERVED:
                    matching_observed += 1
        assert metrics.support == in_context
        if in_context:
            assert metrics.relevance == in_context_expected / in_context
            assert metrics.generality == matching / in_context
        if matching:
            assert metrics.precision == matching_observed / matching


def colliding_log(seed: int) -> ExecutionLog:
    """A randomized log whose raw features include two named like another
    raw feature's derived columns: ``host_diff`` and ``mem_compare`` are
    each emitted twice per pair, and the later (base-copy) emission wins."""
    log = random_log(seed)
    rng = random.Random(seed + 4242)
    for job in log.jobs:
        job.features["host_diff"] = rng.choice(["x", "y", None])
        job.features["mem_compare"] = rng.choice([1.0, 2.0, 2.0, 9.5, None])
    return log


def _explanation_pool() -> list[Comparison]:
    return _despite_pool() + [
        Comparison("host_diff", Operator.EQ, "x"),
        Comparison("mem_compare", Operator.GT, 1.5),
        Comparison("mem_compare_isSame", Operator.EQ, "T"),
        Comparison("duration_compare", Operator.EQ, "GT"),
        Comparison("no_such_feature", Operator.NE, "T"),
    ]


class TestOnDemandMatrixEquivalence:
    """The on-demand matrix against the eager dict reference, column by
    column, in whatever order techniques happen to read them."""

    @pytest.mark.parametrize("seed", DATASET_SEEDS)
    def test_columns_examples_and_metrics_match_the_reference(self, seed):
        log = colliding_log(seed)
        query = random_query(seed)
        schema = infer_schema(log.jobs)
        rng = random.Random(seed + 23)
        level = rng.choice(list(FeatureLevel))
        matrix = construct_training_matrix(
            log, query, schema, sample_size=60, rng=random.Random(seed),
            feature_level=level,
        )
        reference_examples = construct_training_examples_reference(
            log, query, schema, sample_size=60, rng=random.Random(seed)
        )
        reference = encode_training_examples(
            listed_matrix(reference_examples), schema, feature_level=level
        )

        # Metrics first, on a cold matrix: only the clauses' features derive.
        explanation = Explanation(
            because=Predicate.conjunction(rng.sample(_explanation_pool(), 2)),
            despite=Predicate.conjunction(rng.sample(_explanation_pool(), rng.randint(0, 1))),
        )
        metrics = evaluate_explanation(explanation, matrix)
        assert metrics == _dict_recount(explanation, reference_examples)

        features = list(matrix.matrix.features)
        assert features == list(reference.matrix.features)
        rng.shuffle(features)
        for feature in features:
            column = matrix.matrix.column(feature)
            reference_column = reference.matrix.column(feature)
            assert column.numeric == reference_column.numeric, feature
            assert _columns_equal(column.raw, reference_column.raw), feature

        examples = matrix.examples
        assert len(examples) == len(reference_examples) == len(matrix)
        for example, reference_example in zip(examples, reference_examples):
            assert example.first_id == reference_example.first_id
            assert example.second_id == reference_example.second_id
            assert example.label == reference_example.label
            assert _vectors_equal(example.values, reference_example.values)

    def test_the_later_emission_wins_a_name_collision(self):
        log = colliding_log(3)
        query = random_query(3)
        schema = infer_schema(log.jobs)
        matrix = construct_training_matrix(log, query, schema, rng=random.Random(3))
        assert len(matrix) > 0
        by_id = {job.entity_id: job for job in log.jobs}
        for example, value in zip(matrix.examples, matrix.values("host_diff")):
            first = by_id[example.first_id].features["host_diff"]
            second = by_id[example.second_id].features["host_diff"]
            # The base copy of raw ``host_diff``, not raw ``host``'s diff.
            assert value == (first if first is not None and first == second else None)
        assert matrix.matrix.column("mem_compare").numeric


def _dict_recount(explanation: Explanation, examples) -> ExplanationMetrics:
    """The three metrics recounted one example dict at a time."""
    in_context = [ex for ex in examples if explanation.despite.evaluate(ex.values)]
    matching = [ex for ex in in_context if explanation.because.evaluate(ex.values)]
    observed = sum(1 for ex in matching if ex.label is Label.OBSERVED)
    expected = sum(1 for ex in in_context if ex.label is Label.EXPECTED)
    return ExplanationMetrics(
        relevance=expected / len(in_context) if in_context else 0.0,
        precision=observed / len(matching) if matching else 0.0,
        generality=len(matching) / len(in_context) if in_context else 0.0,
        support=len(in_context),
    )

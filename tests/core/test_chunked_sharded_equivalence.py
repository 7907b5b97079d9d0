"""Differential suite: chunked blocks + process-sharded kernels vs plain path.

The chunked ``RecordBlock`` layout (``repro.logs.chunkstore``) and the
process-sharded candidate evaluation (``repro.core.pairshard``) are pure
re-layouts of the serial in-memory pipeline: on any log and query they must
produce **bit-identical** related pairs, training examples (feature vectors
included), encoded training matrices, and explanation metrics — including
under capped CRC32 candidate subsampling, spill-to-disk chunk eviction, and
any worker count.  This file proves that across randomized logs (mixed
nominal/numeric/bool columns, missing values, NaN, blocking clauses), chunk
sizes from 1 row upward, and 1-3 worker processes.
"""

from __future__ import annotations

import random

import pytest

# Shared randomized-log fixtures and NaN-aware comparators from the
# kernel-vs-reference differential suite (same directory).
from test_pair_pipeline_equivalence import (
    _columns_equal,
    _despite_pool,
    _vectors_equal,
    pair_ids,
    random_log,
    random_query,
)

from repro.core.api import PerfXplainConfig, PerfXplainSession
from repro.core.evaluation import measure_on_log
from repro.core.examples import construct_training_matrix, iter_related_pairs
from repro.core.explanation import Explanation
from repro.core.features import infer_schema
from repro.core.pxql.ast import Predicate
from repro.exceptions import ExplanationError

SEEDS = list(range(12))
CHUNK_ROWS = [1, 3, 7, 16]
WORKER_COUNTS = [2, 3]

JOB_QUERY_TEXT = """
    FOR JOBS ?, ?
    DESPITE script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


def chunked_log(seed, chunk_rows, max_resident_chunks=2):
    """The seed's random log re-layouted into spilling chunked blocks."""
    log = random_log(seed)
    log.configure_blocks(
        chunk_rows=chunk_rows, max_resident_chunks=max_resident_chunks
    )
    return log


def _examples_equal(left, right):
    assert len(left) == len(right)
    for left_example, right_example in zip(left, right):
        assert left_example.first_id == right_example.first_id
        assert left_example.second_id == right_example.second_id
        assert left_example.label == right_example.label
        assert _vectors_equal(left_example.values, right_example.values)


def _matrices_equal(left, right):
    assert left.encoding == right.encoding
    assert left.matrix.features == right.matrix.features
    assert bytes(left.observed) == bytes(right.observed)
    for feature in left.matrix.features:
        left_column = left.matrix.column(feature)
        right_column = right.matrix.column(feature)
        assert left_column.numeric == right_column.numeric, feature
        assert _columns_equal(left_column.raw, right_column.raw), feature


class TestChunkedEquivalence:
    """Chunked (and spilling) blocks change nothing observable."""

    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_related_pairs_identical(self, seed, chunk_rows):
        plain_log = random_log(seed)
        query = random_query(seed)
        schema = infer_schema(plain_log.jobs)
        plain = pair_ids(
            iter_related_pairs(plain_log, query, schema, rng=random.Random(seed))
        )
        chunked = pair_ids(
            iter_related_pairs(
                chunked_log(seed, chunk_rows), query, schema,
                rng=random.Random(seed),
            )
        )
        assert chunked == plain

    @pytest.mark.parametrize("seed", SEEDS)
    def test_examples_identical(self, seed):
        query = random_query(seed)
        plain_log = random_log(seed)
        schema = infer_schema(plain_log.jobs)
        plain = construct_training_matrix(
            plain_log, query, schema, sample_size=60, rng=random.Random(seed)
        ).examples
        chunked = construct_training_matrix(
            chunked_log(seed, chunk_rows=7), query, schema, sample_size=60,
            rng=random.Random(seed),
        ).examples
        _examples_equal(chunked, plain)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_capped_subsampling_identical(self, seed):
        """CRC32 subsampling sees the same candidate universe either way."""
        query = random_query(seed)
        plain_log = random_log(seed)
        schema = infer_schema(plain_log.jobs)
        plain = pair_ids(
            iter_related_pairs(plain_log, query, schema, max_candidate_pairs=50,
                               rng=random.Random(seed))
        )
        chunked = pair_ids(
            iter_related_pairs(chunked_log(seed, chunk_rows=3), query, schema,
                               max_candidate_pairs=50, rng=random.Random(seed))
        )
        assert chunked == plain

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_matrix_identical(self, seed):
        query = random_query(seed)
        plain_log = random_log(seed)
        schema = infer_schema(plain_log.jobs)
        plain = construct_training_matrix(
            plain_log, query, schema, sample_size=60, rng=random.Random(seed)
        )
        chunked = construct_training_matrix(
            chunked_log(seed, chunk_rows=5), query, schema, sample_size=60,
            rng=random.Random(seed),
        )
        _matrices_equal(chunked, plain)

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_metrics_identical(self, seed):
        query = random_query(seed)
        plain_log = random_log(seed)
        schema = infer_schema(plain_log.jobs)
        rng = random.Random(seed + 3)
        explanation = Explanation(
            because=Predicate.conjunction(rng.sample(_despite_pool(), 2)),
            despite=Predicate.conjunction(rng.sample(_despite_pool(), 1)),
        )
        plain = measure_on_log(explanation, query, plain_log, schema=schema,
                               rng=random.Random(seed))
        chunked = measure_on_log(explanation, query, chunked_log(seed, 4),
                                 schema=schema, rng=random.Random(seed))
        assert chunked == plain


class TestShardedEquivalence:
    """Worker pools shard the work, never the answer."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_examples_identical(self, seed, workers):
        query = random_query(seed)
        log = random_log(seed)
        schema = infer_schema(log.jobs)
        plain = construct_training_matrix(
            log, query, schema, sample_size=60, rng=random.Random(seed)
        ).examples
        sharded = construct_training_matrix(
            log, query, schema, sample_size=60, rng=random.Random(seed),
            workers=workers,
        ).examples
        _examples_equal(sharded, plain)

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_capped_subsampling_identical(self, seed):
        query = random_query(seed)
        log = random_log(seed)
        schema = infer_schema(log.jobs)
        plain = pair_ids(
            iter_related_pairs(log, query, schema, max_candidate_pairs=50,
                               rng=random.Random(seed))
        )
        sharded = pair_ids(
            iter_related_pairs(log, query, schema, max_candidate_pairs=50,
                               rng=random.Random(seed), workers=2)
        )
        assert sharded == plain

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_matrix_identical(self, seed):
        query = random_query(seed)
        log = random_log(seed)
        schema = infer_schema(log.jobs)
        plain = construct_training_matrix(
            log, query, schema, sample_size=60, rng=random.Random(seed)
        )
        sharded = construct_training_matrix(
            log, query, schema, sample_size=60, rng=random.Random(seed),
            workers=2,
        )
        _matrices_equal(sharded, plain)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_metrics_identical(self, seed):
        query = random_query(seed)
        log = random_log(seed)
        schema = infer_schema(log.jobs)
        rng = random.Random(seed + 3)
        explanation = Explanation(
            because=Predicate.conjunction(rng.sample(_despite_pool(), 2)),
            despite=Predicate.conjunction(rng.sample(_despite_pool(), 1)),
        )
        plain = measure_on_log(explanation, query, log, schema=schema,
                               rng=random.Random(seed))
        sharded = measure_on_log(explanation, query, log, schema=schema,
                                 rng=random.Random(seed), workers=2)
        assert sharded == plain


class TestChunkedAndSharded:
    """Spilling chunked blocks *and* worker pools composed together."""

    @pytest.mark.parametrize("chunk_rows", [1, 5])
    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_examples_identical(self, seed, chunk_rows):
        query = random_query(seed)
        plain_log = random_log(seed)
        schema = infer_schema(plain_log.jobs)
        plain = construct_training_matrix(
            plain_log, query, schema, sample_size=60, rng=random.Random(seed)
        ).examples
        combined = construct_training_matrix(
            chunked_log(seed, chunk_rows), query, schema, sample_size=60,
            rng=random.Random(seed), workers=2,
        ).examples
        _examples_equal(combined, plain)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_matrix_identical(self, seed):
        query = random_query(seed)
        plain_log = random_log(seed)
        schema = infer_schema(plain_log.jobs)
        plain = construct_training_matrix(
            plain_log, query, schema, sample_size=60, rng=random.Random(seed)
        )
        combined = construct_training_matrix(
            chunked_log(seed, chunk_rows=3), query, schema, sample_size=60,
            rng=random.Random(seed), workers=3,
        )
        _matrices_equal(combined, plain)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_session_explanations_identical(self, seed):
        """End-to-end: a sharded session on a chunked log answers the same."""
        plain_session = PerfXplainSession(random_log(seed), seed=seed)
        combined_session = PerfXplainSession(
            chunked_log(seed, chunk_rows=5),
            config=PerfXplainConfig(pair_workers=2),
            seed=seed,
        )
        try:
            plain = plain_session.explain(JOB_QUERY_TEXT, width=2)
        except ExplanationError:
            with pytest.raises(ExplanationError):
                combined_session.explain(JOB_QUERY_TEXT, width=2)
            return
        combined = combined_session.explain(JOB_QUERY_TEXT, width=2)
        assert combined.because == plain.because
        assert combined.despite == plain.despite
        assert combined.metrics == plain.metrics

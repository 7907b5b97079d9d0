"""Boundary tests for batched candidate enumeration and CRC32 subsampling.

``iter_candidate_batches`` must flatten to the reference's exact candidate
sequence — every ordered pair of distinct records within each blocking
group, group order then row-major order — no matter where batch boundaries
or chunk edges fall, and no matter which ``max_candidate_pairs`` cap drives
the keep limit.  These tests pin that against a brute-force enumeration.
"""

from __future__ import annotations

import random

import pytest

from repro.core.examples import iter_related_pairs
from repro.core.features import FeatureKind, FeatureSchema, infer_schema
from repro.core.pairkernel import (
    CANDIDATE_BATCH,
    blocking_group_indices,
    iter_candidate_batches,
    keep_limit,
    pair_is_kept,
)
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.logs.records import JobRecord
from repro.logs.store import ExecutionLog

from tests.oracles.pairref import iter_related_pairs_reference

#: Group sizes chosen to straddle every interesting boundary: singletons
#: (no pairs), a pair, and groups whose pair counts cross small batch sizes.
GROUP_SIZES = [1, 2, 3, 1, 5, 4, 1, 2]


def boundary_log():
    """A log whose ``bucket`` feature yields GROUP_SIZES-shaped groups."""
    log = ExecutionLog()
    counter = 0
    for bucket, size in enumerate(GROUP_SIZES):
        for _ in range(size):
            log.add_job(
                JobRecord(
                    job_id=f"job_{counter}",
                    features={"bucket": f"b{bucket}", "noise": counter % 3},
                    duration=1.0 + counter * 0.5,
                )
            )
            counter += 1
    return log


def boundary_schema():
    schema = FeatureSchema()
    schema.add("bucket", FeatureKind.NOMINAL)
    schema.add("noise", FeatureKind.NUMERIC)
    schema.add("duration", FeatureKind.NUMERIC)
    return schema


def reference_candidates(block, groups, salt=None, limit=0):
    """Brute-force twin of ``iter_candidate_batches``: one pair at a time."""
    ids = block.ids
    for group in groups:
        for row in group:
            for second in group:
                if second == row:
                    continue
                if salt is not None and not pair_is_kept(
                    ids[row], ids[second], salt, limit
                ):
                    continue
                yield row, second


def flatten(batches):
    pairs = []
    for firsts, seconds in batches:
        assert len(firsts) == len(seconds)
        pairs.extend(zip(firsts, seconds))
    return pairs


@pytest.fixture
def block_and_groups():
    log = boundary_log()
    block = log.record_block(boundary_schema(), kind="job")
    groups = blocking_group_indices(block, ["bucket"])
    assert [len(group) for group in groups] == GROUP_SIZES
    return block, groups


class TestBatchBoundaries:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 64, CANDIDATE_BATCH])
    def test_flattened_sequence_invariant_under_batch_size(
        self, block_and_groups, batch_size
    ):
        block, groups = block_and_groups
        batches = list(
            iter_candidate_batches(block, groups, batch_size=batch_size)
        )
        assert flatten(batches) == list(reference_candidates(block, groups))
        # Every batch except the last respects the bound's flush rule: a
        # batch is emitted as soon as it reaches batch_size, so only the
        # final row's extension can overshoot within one group row.
        for firsts, _ in batches[:-1]:
            assert len(firsts) >= batch_size

    def test_no_self_pairs_and_no_cross_group_pairs(self, block_and_groups):
        block, groups = block_and_groups
        group_of = {
            row: index for index, group in enumerate(groups) for row in group
        }
        for row, second in flatten(iter_candidate_batches(block, groups)):
            assert row != second
            assert group_of[row] == group_of[second]

    def test_singleton_and_empty_groups_yield_nothing(self, block_and_groups):
        block, _ = block_and_groups
        assert list(iter_candidate_batches(block, [[0], [], [5]])) == []

    def test_chunked_block_enumerates_identically(self):
        log = boundary_log()
        schema = boundary_schema()
        plain_block = log.record_block(schema, kind="job")
        plain_groups = blocking_group_indices(plain_block, ["bucket"])
        log.configure_blocks(chunk_rows=4, max_resident_chunks=2)
        chunked_block = log.record_block(schema, kind="job")
        chunked_groups = blocking_group_indices(chunked_block, ["bucket"])
        assert chunked_groups == plain_groups
        for batch_size in (2, 7, CANDIDATE_BATCH):
            assert flatten(
                iter_candidate_batches(
                    chunked_block, chunked_groups, batch_size=batch_size
                )
            ) == flatten(
                iter_candidate_batches(
                    plain_block, plain_groups, batch_size=batch_size
                )
            )


class TestSubsamplingCaps:
    @pytest.mark.parametrize("cap", [1, 5, 13, 50, 10**9])
    @pytest.mark.parametrize("salt_seed", [0, 1, 2])
    def test_capped_enumeration_matches_pairwise_rule(
        self, block_and_groups, cap, salt_seed
    ):
        block, groups = block_and_groups
        total = sum(len(group) * (len(group) - 1) for group in groups)
        salt = random.Random(salt_seed).getrandbits(32)
        limit = keep_limit(cap, total)
        kept = flatten(
            iter_candidate_batches(block, groups, salt=salt, limit=limit,
                                   batch_size=3)
        )
        assert kept == list(
            reference_candidates(block, groups, salt=salt, limit=limit)
        )
        # The kept set is a sub-sequence of the uncapped enumeration.
        uncapped = list(reference_candidates(block, groups))
        iterator = iter(uncapped)
        assert all(pair in iterator for pair in kept)

    def test_huge_cap_keeps_everything(self, block_and_groups):
        block, groups = block_and_groups
        total = sum(len(group) * (len(group) - 1) for group in groups)
        limit = keep_limit(2**40, total)
        kept = flatten(
            iter_candidate_batches(block, groups, salt=7, limit=limit)
        )
        assert kept == list(reference_candidates(block, groups))

    def test_no_salt_means_no_subsampling(self, block_and_groups):
        block, groups = block_and_groups
        assert flatten(iter_candidate_batches(block, groups)) == list(
            reference_candidates(block, groups)
        )


class TestRelatedPairsUnderCaps:
    """End-to-end: kernel and dict reference agree for every cap."""

    @pytest.mark.parametrize(
        "max_candidate_pairs", [None, 1, 5, 50, 10**9]
    )
    def test_boundary_log_pairs_identical(self, max_candidate_pairs):
        log = boundary_log()
        schema = infer_schema(log.jobs)
        query = PXQLQuery(
            entity=EntityKind.JOB,
            despite=Predicate.of(Comparison("bucket_isSame", Operator.EQ, "T")),
            observed=Predicate.of(
                Comparison("duration_compare", Operator.EQ, "GT")
            ),
            expected=Predicate.of(
                Comparison("duration_compare", Operator.EQ, "SIM")
            ),
        )
        kernel = [
            (first.entity_id, second.entity_id, label)
            for first, second, label in iter_related_pairs(
                log, query, schema, max_candidate_pairs=max_candidate_pairs,
                rng=random.Random(11),
            )
        ]
        reference = [
            (first.entity_id, second.entity_id, label)
            for first, second, label in iter_related_pairs_reference(
                log, query, schema, max_candidate_pairs=max_candidate_pairs,
                rng=random.Random(11),
            )
        ]
        assert kernel == reference
        if max_candidate_pairs == 1:
            total = sum(size * (size - 1) for size in GROUP_SIZES)
            assert len(kernel) <= total

"""Reference pair-generation path: one feature dict per candidate pair.

This module preserves the pre-columnar Section-4 pipeline exactly as it ran
before the pair kernels existed (mirroring how ``rowpath.py`` beside it
freezes the pre-columnar tree fitting): candidate pairs are enumerated
within blocking groups, each candidate gets a lazily-restricted pair-feature
*dict* via :func:`repro.core.pairs.compute_pair_features`, and the query's
clauses are evaluated per pair with
:meth:`repro.core.pxql.ast.Predicate.evaluate`.

It exists for two reasons:

* the differential suite (``tests/core/test_pair_pipeline_equivalence.py``)
  proves the kernel path in :mod:`repro.core.examples` yields identical
  labeled pairs, feature vectors and training matrices on randomized logs;
* the pair-pipeline throughput benchmark measures the kernel path's speedup
  against it.

It also keeps the pair-of-interest searches as they ran before the pick
moved into one C-level helper (:func:`repro.core.examples.highest_contrast`):
:func:`find_pair_of_interest_reference` and :func:`find_cross_pair_reference`
walk the related pairs one at a time, and
``tests/core/test_pair_of_interest.py`` checks the search, the diff and the
training matrix's pick against them.  Both loops rank a zero duration ratio
(a finite duration over an infinite one) infinite, as the helper does,
where ``math.log`` used to raise.  :func:`stratified_keep_indices_reference`
keeps the label-hashing class split the sampler replaced with ``compress``
over observed flags.

Two deliberate behaviours are *shared* with the live path rather than
frozen, because they changed in the same refactor: the order-independent
hash-based candidate subsampling (:func:`repro.core.pairkernel.pair_is_kept`)
and the exact-size stratified balanced sampling
(:func:`repro.core.sampling.stratified_keep_indices`, applied to labeled
items by :func:`balanced_sample`).  Both paths therefore sample identical
subsets, and the differential comparison isolates exactly the columnar
re-layout.

:func:`listed_matrix` wraps dict examples — these, or synthetic ones a
unit test writes — in a :class:`~repro.core.examples.TrainingMatrix` whose
columns are read from the dicts, so the matrix's counts and searches run
on columns no log could produce.
"""

from __future__ import annotations

import math
import random
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.core.examples import (
    Label,
    TrainingExample,
    TrainingMatrix,
    _blocking_features,
    _PairFeatureMatrix,
    iter_related_pairs,
    observed_flags,
    pair_kernel_for,
    related_index_batches,
    validate_query_features,
    records_for_query,
)
from repro.core.features import FeatureLevel, FeatureSchema, infer_schema
from repro.core.pairkernel import keep_limit, pair_is_kept, sampling_salt
from repro.core.pairs import PairFeatureConfig, compute_pair_features
from repro.core.pxql.query import PXQLQuery
from repro.core.sampling import stratified_keep_indices
from repro.diff.view import AFTER_RUN
from repro.exceptions import ExplanationError
from repro.logs.records import ExecutionRecord
from repro.logs.store import ExecutionLog


def group_records_reference(
    records: Sequence[ExecutionRecord], blocking: Sequence[str]
) -> list[list[ExecutionRecord]]:
    """Reference record grouping (value-keyed; kept for the dict path)."""
    if not blocking:
        return [list(records)]
    groups: dict[tuple, list[ExecutionRecord]] = {}
    for record in records:
        key = tuple(record.features.get(feature) for feature in blocking)
        if any(value is None or value != value for value in key):
            # A missing or NaN blocked value can never satisfy
            # ``isSame = T`` (NaN equals nothing, itself included).
            continue
        groups.setdefault(key, []).append(record)
    return list(groups.values())


def iter_related_pairs_reference(
    log: ExecutionLog,
    query: PXQLQuery,
    schema: FeatureSchema,
    config: PairFeatureConfig | None = None,
    max_candidate_pairs: int | None = 2_000_000,
    rng: random.Random | None = None,
) -> Iterator[tuple[ExecutionRecord, ExecutionRecord, Label]]:
    """Yield every related ordered pair, dict-per-candidate (reference).

    Pair features are computed lazily: only the raw features referenced by
    the query's three clauses are derived while classifying candidates.
    """
    config = config if config is not None else PairFeatureConfig()
    rng = rng if rng is not None else random.Random(0)
    records = records_for_query(log, query)
    query_raw_features = validate_query_features(query, schema)

    blocking = _blocking_features(query, schema)
    groups = group_records_reference(records, blocking)

    total_candidates = sum(len(group) * (len(group) - 1) for group in groups)
    salt: int | None = None
    limit = 0
    if max_candidate_pairs is not None and total_candidates > max_candidate_pairs:
        salt = sampling_salt(rng)
        limit = keep_limit(max_candidate_pairs, total_candidates)

    for group in groups:
        for first in group:
            for second in group:
                if first is second:
                    continue
                if salt is not None and not pair_is_kept(
                    first.entity_id, second.entity_id, salt, limit
                ):
                    continue
                values = compute_pair_features(
                    first, second, schema, config, features=query_raw_features
                )
                if not query.despite.evaluate(values):
                    continue
                observed = query.observed.evaluate(values)
                expected = query.expected.evaluate(values)
                if observed:
                    yield first, second, Label.OBSERVED
                elif expected:
                    yield first, second, Label.EXPECTED


def find_pair_of_interest_reference(
    log: ExecutionLog,
    query: PXQLQuery,
    schema: FeatureSchema | None = None,
    config: PairFeatureConfig | None = None,
    rng: random.Random | None = None,
    max_candidate_pairs: int | None = 500_000,
) -> tuple[str, str]:
    """Pick the OBSERVED pair with the largest ``|log(d1 / d2)|``, one
    related pair at a time (reference for
    :func:`repro.core.queries.find_pair_of_interest`).

    :raises ExplanationError: if no pair in the log matches the query.
    """
    rng = rng if rng is not None else random.Random(0)
    records = records_for_query(log, query)
    if schema is None:
        schema = infer_schema(records)
    durations = {record.entity_id: record.duration for record in records}

    best: tuple[str, str] | None = None
    best_contrast = -1.0
    for first, second, label in iter_related_pairs(
        log, query, schema, config, max_candidate_pairs, rng
    ):
        if label is not Label.OBSERVED:
            continue
        d1 = max(durations[first.entity_id], 1e-9)
        d2 = max(durations[second.entity_id], 1e-9)
        ratio = d1 / d2
        contrast = abs(math.log(ratio)) if ratio else math.inf
        if contrast > best_contrast:
            best_contrast = contrast
            best = (first.entity_id, second.entity_id)
    if best is None:
        raise ExplanationError(
            f"no pair in the log satisfies the despite and observed clauses of "
            f"query {query.name or str(query)!r}"
        )
    return best


def find_cross_pair_reference(
    engine: Any, query: PXQLQuery, regressed_run: str
) -> tuple[str, str] | None:
    """The highest-contrast OBSERVED pair across a diff's run boundary, one
    related pair at a time (reference for
    :meth:`repro.diff.engine.DiffEngine.find_cross_pair`)."""
    merged = engine.view.merged
    schema = infer_schema(merged.jobs)
    validate_query_features(query, schema)
    kernel = pair_kernel_for(merged, query, schema, engine.config.pair_config)
    records = kernel.block.records
    boundary = engine.view.job_boundary
    regressed_is_after = regressed_run == AFTER_RUN

    best: tuple[str, str] | None = None
    best_contrast = -1.0
    for firsts, seconds, labels in related_index_batches(
        kernel,
        query,
        engine.max_candidate_pairs,
        random.Random(engine.seed),
        workers=engine.config.pair_workers,
    ):
        for first, second, label in zip(firsts, seconds, labels):
            if label is not Label.OBSERVED:
                continue
            first_is_after = first >= boundary
            if first_is_after == (second >= boundary):
                continue  # same-run pair: not a cross-run comparison
            if first_is_after != regressed_is_after:
                continue  # slower member must come from the regressed run
            d1 = max(records[first].duration, 1e-9)
            d2 = max(records[second].duration, 1e-9)
            ratio = d1 / d2
            contrast = abs(math.log(ratio)) if ratio else math.inf
            if contrast > best_contrast:
                best_contrast = contrast
                best = (records[first].entity_id, records[second].entity_id)
    return best


def construct_training_examples_reference(
    log: ExecutionLog,
    query: PXQLQuery,
    schema: FeatureSchema,
    config: PairFeatureConfig | None = None,
    sample_size: int | None = 2000,
    rng: random.Random | None = None,
    max_candidate_pairs: int | None = 2_000_000,
) -> list[TrainingExample]:
    """Construct and balanced-sample the training examples (reference).

    Full pair-feature vectors are computed one sampled pair at a time with
    :func:`repro.core.pairs.compute_pair_features` — the per-pair dict
    allocation the columnar pipeline eliminates.
    """
    config = config if config is not None else PairFeatureConfig()
    rng = rng if rng is not None else random.Random(0)

    labeled_pairs = list(
        iter_related_pairs_reference(
            log, query, schema, config, max_candidate_pairs, rng
        )
    )
    if sample_size is not None:
        labeled_pairs = balanced_sample(
            labeled_pairs, sample_size, rng, label_of=itemgetter(2)
        )

    full_config = PairFeatureConfig(
        sim_threshold=config.sim_threshold,
        is_same_tolerance=config.is_same_tolerance,
        level=FeatureLevel.FULL,
    )
    examples = []
    for first, second, label in labeled_pairs:
        values = compute_pair_features(first, second, schema, full_config)
        examples.append(
            TrainingExample(
                first_id=first.entity_id,
                second_id=second.entity_id,
                values=values,
                label=label,
            )
        )
    return examples


T = TypeVar("T")

#: Default label accessor: the item's ``label`` attribute (training
#: examples); tuple inputs pass an explicit ``label_of`` instead.
label_attribute: Callable[[Any], Label] = attrgetter("label")


def balanced_sample(
    items: Sequence[T],
    sample_size: int,
    rng: random.Random | None = None,
    label_of: Callable[[T], Label] | None = None,
) -> list[T]:
    """An exact-size class-balanced sample of labeled items.

    See :func:`repro.core.sampling.stratified_keep_indices` for the sampling
    rule (and the documented deviation from the paper's expected-size
    probability pass).

    :param items: labeled items (training examples or (first, second, label)
        tuples).
    :param sample_size: desired sample size ``m`` (exact when both classes
        are large enough).
    :param rng: random generator seeding the per-class partial shuffles.
    :param label_of: how to obtain an item's label (defaults to
        :data:`label_attribute`).
    """
    rng = rng if rng is not None else random.Random(0)
    label_of = label_of if label_of is not None else label_attribute
    labels = [label_of(item) for item in items]
    kept = stratified_keep_indices(observed_flags(labels), sample_size, rng)
    if kept is None:
        return list(items)
    return [items[index] for index in kept]


def stratified_keep_indices_reference(
    labels: Sequence[Label],
    sample_size: int,
    rng: random.Random | None = None,
) -> list[int] | None:
    """The class split of :func:`repro.core.sampling.stratified_keep_indices`
    as it ran before it split observed flags with ``compress``: a Python
    loop that hashes every label into a per-class index list."""
    if sample_size <= 0:
        raise ValueError("sample_size must be positive")
    rng = rng if rng is not None else random.Random(0)
    if len(labels) <= sample_size:
        return None
    half = sample_size // 2
    targets = {Label.OBSERVED: sample_size - half, Label.EXPECTED: half}
    by_class: dict[Label, list[int]] = {Label.OBSERVED: [], Label.EXPECTED: []}
    for index, label in enumerate(labels):
        by_class[label].append(index)
    kept: list[int] = []
    for label in (Label.OBSERVED, Label.EXPECTED):
        indices = by_class[label]
        target = targets[label]
        if len(indices) <= target:
            kept.extend(indices)
        else:
            kept.extend(rng.sample(indices, target))
    kept.sort()
    return kept


def class_counts(
    items: Sequence[T], label_of: Callable[[T], Label] | None = None
) -> dict[Label, int]:
    """Number of items per label."""
    label_of = label_of if label_of is not None else label_attribute
    counts = {Label.OBSERVED: 0, Label.EXPECTED: 0}
    for item in items:
        counts[label_of(item)] += 1
    return counts


#: What a :class:`ListedColumns` passes for a kernel: an empty schema, so
#: no pair feature is derivable and every column comes from the dicts.
_NO_KERNEL = SimpleNamespace(schema=FeatureSchema())


class ListedColumns(_PairFeatureMatrix):
    """A training matrix's columns read from example dicts.

    A name no example carries reads as all-missing, like the absent key of
    an example dict.  Catalog columns are encoded on first access, as on a
    kernel-backed matrix.
    """

    __slots__ = ("listed",)

    def __init__(self, catalog: dict[str, bool], listed: list) -> None:
        rows = range(len(listed))
        super().__init__(catalog, _NO_KERNEL, rows, rows)
        self.listed = listed

    def with_catalog(self, catalog: dict[str, bool]) -> ListedColumns:
        return ListedColumns(catalog, self.listed)

    def values(self, name: str) -> list:
        values = self._values.get(name)
        if values is None:
            values = [example.values.get(name) for example in self.listed]
            self._values[name] = values
        return values


def listed_matrix(
    examples: Sequence[TrainingExample], catalog: dict[str, bool] | None = None
) -> TrainingMatrix:
    """A training matrix over dict examples, searchable on ``catalog``
    (feature -> is numeric; none by default).

    The caller keeps ``examples``: the matrix's own ``examples`` property
    reads record ids from a kernel, which this matrix does not have.
    """
    listed = list(examples)
    observed = bytearray(1 if example.is_observed else 0 for example in listed)
    return TrainingMatrix(ListedColumns(catalog or {}, listed), observed, None)

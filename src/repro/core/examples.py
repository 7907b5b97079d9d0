"""Training-example construction (Definitions 7-9), columnar pipeline.

Given a query and a log, the related pairs are the ordered pairs of
executions that satisfy the despite clause and either the observed or the
expected clause.  Each related pair becomes a training example labeled
OBSERVED or EXPECTED.

Enumerating every ordered pair is quadratic in the log size, which is
prohibitive for task-level queries (thousands of tasks).  The constructor
therefore *blocks* on the equality constraints of the despite clause: an
atom such as ``jobID_isSame = T`` means only pairs drawn from the same job
can ever be related, so candidates are enumerated within groups sharing the
corresponding raw value.  Blocking is purely an optimisation — it never
changes which pairs are related — and is only applied to raw features whose
equality is exact (nominal values and integers), not to noisy floats.

Since the columnar refactor this module is a thin adapter over the pair
kernels: the log's cached :class:`~repro.logs.chunkstore.RecordBlock` (layer 1)
feeds :class:`~repro.core.pairkernel.PairKernel` (layer 2), which evaluates
the three clauses as vectorised masks over batched candidate index pairs —
no per-pair feature dict is ever allocated while filtering.
:func:`construct_training_matrix` keeps the balanced sample as index pairs
in a :class:`TrainingMatrix`, which derives the sampled pairs' feature
columns through the kernel only when a technique first reads them, beside
the whole related-pair stream (:class:`PairStream`) that a build after an
append extends with the appended rows' candidates.  The
original pair-at-a-time dict path is preserved verbatim in
``tests/oracles/pairref.py`` as the reference implementation the
differential suite checks this pipeline against.
"""

from __future__ import annotations

import enum
import random
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from math import inf, log
from operator import and_, attrgetter, is_, is_not, ne, truediv
from typing import Any, Callable, Iterator, Sequence

from repro.ml.matrix import FeatureColumn, FeatureMatrix, flags_to_bits

from repro.core.features import FeatureSchema, FeatureLevel
from repro.core.pairkernel import (
    PairContext,
    PairKernel,
    blocking_group_indices,
    derived_names,
    keep_limit,
    kept_flags,
    sampling_salt,
)
from repro.core.pairs import (
    IS_SAME_SUFFIX,
    SAME,
    PairFeatureConfig,
    pair_feature_catalog,
    raw_feature_of,
)
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.exceptions import ExplanationError
from repro.logs.chunkstore import RecordBlock
from repro.logs.records import ExecutionRecord, FeatureValue
from repro.logs.store import ExecutionLog


class Label(enum.Enum):
    """Training-example label: which clause the pair satisfied."""

    OBSERVED = "observed"
    EXPECTED = "expected"


@dataclass
class TrainingExample:
    """One labeled pair of executions with its full pair-feature vector."""

    first_id: str
    second_id: str
    values: dict[str, FeatureValue]
    label: Label

    @property
    def is_observed(self) -> bool:
        """Whether the pair performed as observed."""
        return self.label is Label.OBSERVED

    @property
    def is_expected(self) -> bool:
        """Whether the pair performed as expected."""
        return self.label is Label.EXPECTED


def records_for_query(log: ExecutionLog, query: PXQLQuery) -> list[ExecutionRecord]:
    """The records (jobs or tasks) a query ranges over."""
    if query.entity is EntityKind.JOB:
        return list(log.jobs)
    return list(log.tasks)


def find_record(log: ExecutionLog, query: PXQLQuery, record_id: str) -> ExecutionRecord:
    """Look up one execution referenced by a query; raise if absent."""
    record = (
        log.find_job(record_id) if query.entity is EntityKind.JOB else log.find_task(record_id)
    )
    if record is None:
        raise ExplanationError(
            f"{query.entity.value} {record_id!r} is not present in the log"
        )
    return record


def _blocked_raw(atom: Comparison, schema: FeatureSchema) -> str | None:
    """The raw feature a despite atom lets candidates block on, if any."""
    if atom.operator is not Operator.EQ or atom.value != SAME:
        return None
    if not atom.feature.endswith(IS_SAME_SUFFIX):
        return None
    raw = raw_feature_of(atom.feature)
    if raw not in schema:
        return None
    if schema.is_numeric(raw):
        # Tolerance-based isSame for floats: grouping by exact value
        # could split genuinely "same" pairs, so only block on integers.
        return None
    return raw


def _blocking_features(query: PXQLQuery, schema: FeatureSchema) -> list[str]:
    """Raw features whose exact equality is implied by the despite clause."""
    blocking: list[str] = []
    for atom in query.despite.atoms:
        raw = _blocked_raw(atom, schema)
        if raw is not None:
            blocking.append(raw)
    return blocking


def validate_query_features(query: PXQLQuery, schema: FeatureSchema) -> list[str]:
    """The raw features a query's clauses touch; raise on unknown ones."""
    query_raw_features = sorted(
        {raw_feature_of(feature) for feature in query.referenced_features()}
    )
    for raw in query_raw_features:
        if raw not in schema:
            raise ExplanationError(
                f"query references feature {raw!r} which is not in the log schema"
            )
    return query_raw_features


def pair_kernel_for(
    log: ExecutionLog,
    query: PXQLQuery,
    schema: FeatureSchema,
    config: PairFeatureConfig,
) -> PairKernel:
    """The pair kernel over the log's cached columnar record block."""
    kind = "job" if query.entity is EntityKind.JOB else "task"
    return PairKernel(log.record_block(schema, kind=kind), config)


def related_index_batches(
    kernel: PairKernel,
    query: PXQLQuery,
    max_candidate_pairs: int | None,
    rng: random.Random,
    workers: int = 1,
    on_groups: Callable[[list[list[int]], int], None] | None = None,
    since: int = 0,
) -> Iterator[tuple[list[int], list[int], list[Label]]]:
    """Related pairs as labeled index batches, in candidate order.

    Each batch holds the surviving ``(first, second)`` record indices and
    their labels.  Candidates are enumerated lazily within blocking groups,
    so every candidate already satisfies the despite atoms the groups block
    on; those atoms are dropped from the clause the batches evaluate.  Per
    batch, the rest of the despite clause prunes atom by atom, then the
    observed and expected clauses run over the survivors (sharing one
    gather cache) and the labels fall out of the two masks at C level: a
    pair is related when either holds, and OBSERVED wins — identical to the
    reference's despite-then-observed-elif-expected sequence per pair
    (:func:`~repro.core.pairshard.evaluate_candidate_batch`).

    :param workers: with ``>= 2``, batches are fanned out across a forked
        process pool and merged deterministically
        (:func:`~repro.core.pairshard.iter_evaluated_batches`) — the yielded
        stream is byte-identical for every worker count, because candidate
        order and the CRC32 sampling rule are both order-independent.
    :param on_groups: called with the blocking groups and their candidate
        count before the stream draws its salt from ``rng``, so a caller can
        work out which pairs a pass under another cap would keep, and where
        pairs sit in a fresh enumeration.
    :param since: yield only the pairs of candidates that touch a row at or
        past ``since``, in the same order: what a stream over the block's
        first ``since`` rows lacks (:class:`PairStream`).  A capped pass
        keeps a candidate by a limit that depends on the candidate count,
        so no stream over fewer rows holds its pairs: it enumerates every
        candidate, whatever ``since`` says.
    """
    from repro.core.pairshard import iter_evaluated_batches

    block = kernel.block
    schema = kernel.schema
    blocking = _blocking_features(query, schema)
    groups = blocking_group_indices(block, blocking)

    total_candidates = sum(len(group) * (len(group) - 1) for group in groups)
    if on_groups is not None:
        on_groups(groups, total_candidates)
    salt: int | None = None
    limit = 0
    if max_candidate_pairs is not None and total_candidates > max_candidate_pairs:
        salt = sampling_salt(rng)
        limit = keep_limit(max_candidate_pairs, total_candidates)
        since = 0

    if workers >= 2:
        # Build every column the clauses read *before* submitting: workers
        # forked for this kernel inherit the encoded chunks (or their
        # spill files).  A pool forked before these columns existed stays
        # valid — each worker lazily re-encodes a missing column once,
        # deterministically — but a fresh fork gets them for free.
        for feature in sorted(query.referenced_features()):
            raw = raw_feature_of(feature)
            if raw in schema:
                block.column(raw)

    unblocked = Predicate.conjunction(
        atom for atom in query.despite.atoms if _blocked_raw(atom, schema) is None
    )
    label_by_observed = (Label.EXPECTED, Label.OBSERVED)
    for firsts, seconds, observed in iter_evaluated_batches(
        kernel,
        query.with_despite(unblocked),
        groups,
        salt,
        limit,
        workers=workers,
        since=since,
    ):
        labels = list(map(label_by_observed.__getitem__, observed))
        yield firsts, seconds, labels


def iter_related_pairs(
    log: ExecutionLog,
    query: PXQLQuery,
    schema: FeatureSchema,
    config: PairFeatureConfig | None = None,
    max_candidate_pairs: int | None = 2_000_000,
    rng: random.Random | None = None,
    workers: int = 1,
) -> Iterator[tuple[ExecutionRecord, ExecutionRecord, Label]]:
    """Yield every related ordered pair of executions with its label.

    Thin adapter over the pair kernels: clause evaluation runs as
    vectorised masks over batched candidate index pairs (only the raw
    features the query references are ever derived), and the records are
    resolved back from the log's cached
    :class:`~repro.logs.chunkstore.RecordBlock` when yielding.

    :param max_candidate_pairs: safety valve — if the blocked candidate
        space is still larger than this, a random subset of candidate pairs
        is examined.  The subset is derived from a hash of the pair ids and
        a seed drawn from ``rng``, so it is deterministic and independent
        of group iteration order.
    """
    config = config if config is not None else PairFeatureConfig()
    rng = rng if rng is not None else random.Random(0)
    validate_query_features(query, schema)
    kernel = pair_kernel_for(log, query, schema, config)
    records = kernel.block.records
    for firsts, seconds, labels in related_index_batches(
        kernel, query, max_candidate_pairs, rng, workers=workers
    ):
        yield from zip(
            map(records.__getitem__, firsts),
            map(records.__getitem__, seconds),
            labels,
        )


#: The blocked candidates the pair-of-interest search examines at most
#: (:func:`~repro.core.queries.find_pair_of_interest`); beyond it, it
#: scans the hash-subsampled subset.
PAIR_SEARCH_CANDIDATES = 500_000

#: Durations are floored at this before their ratio is taken.
_MIN_DURATION = 1e-9

_duration_of = attrgetter("duration")


def _contrast(ratio: float) -> float:
    """``abs(log(ratio))``, with a zero ratio ranked infinite."""
    return abs(log(ratio)) if ratio else inf


def highest_contrast(
    records: Sequence[ExecutionRecord],
    firsts: Sequence[int],
    seconds: Sequence[int],
    best: float = -1.0,
) -> tuple[int, float]:
    """The pair with the largest runtime contrast, if it beats ``best``.

    A pair's contrast is ``abs(log(max(d1, 1e-9) / max(d2, 1e-9)))`` over
    its records' durations, gathered and mapped at C level.  It keeps the
    division form: ``log(d1) - log(d2)`` can round differently.  A zero
    ratio (a finite duration over an infinite one) ranks infinite, like
    the reverse pair's infinite ratio.  Returns the position of the first
    pair whose contrast is the largest and greater than ``best``, with that
    contrast, or ``(-1, best)``.  ``max`` replaces its running maximum only
    with a greater item, so a NaN contrast never wins and the first of tied
    pairs does.
    """
    ratios = list(
        map(
            truediv,
            map(max, map(_duration_of, map(records.__getitem__, firsts)),
                repeat(_MIN_DURATION)),
            map(max, map(_duration_of, map(records.__getitem__, seconds)),
                repeat(_MIN_DURATION)),
        )
    )
    try:
        contrasts = list(map(abs, map(log, ratios)))
    except ValueError:  # a zero ratio: ``math.log`` rejects it
        contrasts = list(map(_contrast, ratios))
    top = max(chain((best,), contrasts))
    if top > best:
        return contrasts.index(top), top
    return -1, best


def observed_flags(labels: Sequence[Label]) -> bytes:
    """One flag per pair: labeled OBSERVED."""
    return bytes(map(is_, labels, repeat(Label.OBSERVED)))


def no_pair_error(query: PXQLQuery) -> ExplanationError:
    """The error of a ``?`` question whose related pairs hold no OBSERVED one."""
    return ExplanationError(
        f"no pair in the log satisfies the despite and observed clauses of "
        f"query {query.name or str(query)!r}"
    )


class PairPick:
    """A related-pair stream's pair of interest, picked batch by batch.

    :meth:`scan` takes each batch in stream order with one keep flag per
    pair (OBSERVED, and whatever else the caller requires); the pick is the
    first kept pair with the largest :func:`highest_contrast`.
    """

    __slots__ = ("records", "best", "rows")

    def __init__(self, records: Sequence[ExecutionRecord]) -> None:
        self.records = records
        self.best = -1.0
        #: The picked ``(first, second)`` record indices so far.
        self.rows: tuple[int, int] | None = None

    def scan(self, firsts: Sequence[int], seconds: Sequence[int], keep: bytes) -> None:
        """Consider one batch's kept pairs after every earlier batch's."""
        firsts = list(compress(firsts, keep))
        seconds = list(compress(seconds, keep))
        index, self.best = highest_contrast(self.records, firsts, seconds, self.best)
        if index >= 0:
            self.rows = (firsts[index], seconds[index])

    def ids(self) -> tuple[str, str] | None:
        """The picked pair's entity ids (``None`` before any kept pair)."""
        if self.rows is None:
            return None
        first, second = self.rows
        return self.records[first].entity_id, self.records[second].entity_id


#: Row indices of a kept stream, four bytes each (a log of 2**31 records
#: would not fit in memory).
_ROWS = "i"

#: :attr:`PairStream.pick`'s value before the pick is made.
_UNPICKED = object()


class PairStream:
    """A clause signature's whole related-pair stream, kept for appends.

    The related pairs in candidate order
    (:func:`~repro.core.pairkernel.iter_candidate_batches`): row-index
    arrays and one observed byte per pair.  The stream also records what
    it was built on — the record block, the kind's epoch and the block's
    row count — and its blocked candidate count.

    Enumeration runs group by group and, within a group, first row by
    first row, so one first row's pairs form one run and the runs follow
    the rows' enumeration rank.  An append only adds rows at the end of
    their groups and new groups after the old ones, so the old rows keep
    their relative rank and a grown log's stream is this one with each
    new run spliced in after the runs ranked before it
    (:func:`related_stream`), found by bisecting :attr:`firsts` under the
    grown enumeration's rank.

    The pair of interest (:meth:`pick`) is read off the stream on first
    use: the pair-of-interest search scans the stream's OBSERVED pairs, or
    those :func:`~repro.core.pairkernel.pair_is_kept` accepts under
    :attr:`search` when the candidates pass its cap.
    """

    __slots__ = (
        "firsts",
        "seconds",
        "observed",
        "block",
        "epoch",
        "count",
        "total",
        "search",
        "_pick",
    )

    def __init__(
        self,
        firsts: array,
        seconds: array,
        observed: bytearray,
        block: RecordBlock,
        epoch: int,
        count: int,
        total: int,
        search: tuple[int, int] | None,
    ) -> None:
        self.firsts = firsts
        self.seconds = seconds
        #: Per-pair flag: the pair performed as observed.
        self.observed = observed
        self.block = block
        #: The kind's epoch and the block's row count the stream covers.
        self.epoch = epoch
        self.count = count
        #: The blocked candidates the stream was filtered from.
        self.total = total
        #: The salt and limit of the pairs the pair-of-interest search
        #: scans, or ``None`` when it scans every pair.
        self.search = search
        self._pick: Any = _UNPICKED

    def pick(self) -> tuple[str, str] | None:
        """The entity ids :func:`~repro.core.queries.find_pair_of_interest`
        picks for the stream's clauses under the same rng state, or ``None``
        when no pair it scans is OBSERVED; made on first call."""
        pick = self._pick
        if pick is _UNPICKED:
            keep = self.observed
            if self.search is not None:
                salt, limit = self.search
                searched = kept_flags(self.block, self.firsts, self.seconds, salt, limit)
                keep = bytes(map(and_, keep, searched))
            scan = PairPick(self.block.records)
            scan.scan(self.firsts, self.seconds, keep)
            pick = self._pick = scan.ids()
        return pick


def _search_subset(
    total: int, max_candidate_pairs: int | None, rng: random.Random
) -> tuple[int, int] | None:
    """The salt and limit of the pairs the pair-of-interest search scans.

    The search's cap is :data:`PAIR_SEARCH_CANDIDATES`, or the pass's own
    cap when that is lower.  When the blocked candidates exceed it, the
    search scans the pairs :func:`~repro.core.pairkernel.pair_is_kept`
    accepts under its limit and a salt drawn as the first
    ``getrandbits(32)`` of ``rng`` — the salt a capped pass draws too — so
    those pairs of a pass are the search's whole stream.  The salt is drawn
    from a copy: ``rng`` does not move.
    """
    cap = (
        PAIR_SEARCH_CANDIDATES
        if max_candidate_pairs is None
        else min(PAIR_SEARCH_CANDIDATES, max_candidate_pairs)
    )
    if total <= cap:
        return None
    probe = random.Random()
    probe.setstate(rng.getstate())
    return sampling_salt(probe), keep_limit(cap, total)


def _spliced(
    base: PairStream,
    groups: Sequence[Sequence[int]],
    firsts: array,
    seconds: array,
    observed: bytearray,
) -> tuple[array, array, bytearray]:
    """``base`` with a delta stream's runs spliced in where a fresh
    enumeration over ``groups`` puts them.

    Both streams are in enumeration order.  Each delta run (one first
    row's pairs) goes after the base's runs of every first row ranked up to
    its own: an old first row's new pairs follow its old pairs, a new first
    row's pairs follow its group's old pairs, and new groups follow the old
    ones.  The arrays are copied slice by slice at C level.
    """
    if not firsts:
        return base.firsts, base.seconds, base.observed
    rank = dict(zip(chain.from_iterable(groups), count())).__getitem__
    old_firsts, old_seconds, old_observed = base.firsts, base.seconds, base.observed
    merged_firsts, merged_seconds = array(_ROWS), array(_ROWS)
    merged_observed = bytearray()
    starts = [0, *compress(count(1), map(ne, islice(firsts, 1, None), firsts))]
    done = 0
    for start, end in zip(starts, [*starts[1:], len(firsts)]):
        at = bisect_right(old_firsts, rank(firsts[start]), done, key=rank)
        merged_firsts += old_firsts[done:at]
        merged_firsts += firsts[start:end]
        merged_seconds += old_seconds[done:at]
        merged_seconds += seconds[start:end]
        merged_observed += old_observed[done:at]
        merged_observed += observed[start:end]
        done = at
    merged_firsts += old_firsts[done:]
    merged_seconds += old_seconds[done:]
    merged_observed += old_observed[done:]
    return merged_firsts, merged_seconds, merged_observed


def related_stream(
    kernel: PairKernel,
    query: PXQLQuery,
    max_candidate_pairs: int | None,
    rng: random.Random,
    epoch: int,
    base: PairStream | None = None,
    workers: int = 1,
) -> PairStream:
    """A query's whole related-pair stream over ``kernel``'s block.

    With ``base``, a stream of the same clauses, config and cap built over
    an earlier state of the block, only the candidates that touch rows
    appended since are filtered, and their pairs are spliced into the base
    (:func:`_spliced`): the result is byte for byte the stream a fresh
    enumeration gives.  It restarts from empty — a fresh build is the
    extension of an empty stream — when the base covers another epoch or
    another block (a changed schema, or a block rebuilt rather than
    extended), and when the blocked candidates exceed the cap
    (:func:`related_index_batches` then enumerates every candidate).
    ``rng`` moves only if the cap is reached.
    """
    block = kernel.block
    rows = len(block)
    extend = base is not None and base.block is block and base.epoch == epoch
    groups: list[list[int]] = []
    total = 0
    search: tuple[int, int] | None = None

    def on_groups(blocked: list[list[int]], candidates: int) -> None:
        nonlocal groups, total, search
        groups, total = blocked, candidates
        search = _search_subset(candidates, max_candidate_pairs, rng)

    firsts, seconds = array(_ROWS), array(_ROWS)
    observed = bytearray()
    for batch_firsts, batch_seconds, batch_labels in related_index_batches(
        kernel, query, max_candidate_pairs, rng,
        workers=workers, on_groups=on_groups, since=base.count if extend else 0,
    ):
        firsts.extend(batch_firsts)
        seconds.extend(batch_seconds)
        observed += observed_flags(batch_labels)
    capped = max_candidate_pairs is not None and total > max_candidate_pairs
    if extend and not capped:
        firsts, seconds, observed = _spliced(base, groups, firsts, seconds, observed)
    return PairStream(firsts, seconds, observed, block, epoch, rows, total, search)


def _sampled_index_pairs(
    stream: PairStream, sample_size: int | None, rng: random.Random
) -> tuple[list[int], list[int], bytearray]:
    """Balanced-sample a related-pair stream (Section 4.3)."""
    from repro.core.sampling import stratified_keep_indices  # local: looked up per call

    firsts, seconds, observed = stream.firsts, stream.seconds, stream.observed
    if sample_size is not None:
        kept = stratified_keep_indices(observed, sample_size, rng)
        if kept is not None:
            return (
                list(map(firsts.__getitem__, kept)),
                list(map(seconds.__getitem__, kept)),
                bytearray(map(observed.__getitem__, kept)),
            )
    return list(firsts), list(seconds), bytearray(observed)


#: Observed flag -> label.
_LABELS = (Label.EXPECTED, Label.OBSERVED)
#: Observed flag byte -> expected flag byte.
_EXPECTED_FLAGS = b"\x01" + b"\x00" * 255
#: Threshold operator -> the comparison of a float image with the constant.
_THRESHOLD_TESTS = {
    Operator.LT: float.__lt__,
    Operator.LE: float.__le__,
    Operator.GT: float.__gt__,
    Operator.GE: float.__ge__,
}


def _pair_feature_owners(schema: FeatureSchema) -> dict[str, str]:
    """Pair-feature name -> the raw feature whose derivation supplies it.

    Keys follow the reference's per-pair dict construction (sorted raw
    features, each emitting its full-level
    :func:`~repro.core.pairkernel.derived_names`), so the key order is
    every example vector's key order.  A name emitted twice — a raw feature
    named like another raw feature's derived column — belongs to the later
    emission, exactly as the later dict write wins.
    """
    owners: dict[str, str] = {}
    for raw in schema.names():
        for name, _ in derived_names(raw, FeatureLevel.FULL):
            owners[name] = raw
    return owners


def _encoding_of(
    schema: FeatureSchema, config: PairFeatureConfig, feature_level: FeatureLevel
) -> tuple[dict[str, bool], tuple]:
    """The explainer's searchable catalog and the parameters it was built under.

    The catalog is every pair feature the explainer may cite
    (performance-derived features excluded, level capped at
    ``feature_level``) mapped to "is numeric", in catalog order.
    """
    catalog = pair_feature_catalog(
        schema,
        PairFeatureConfig(
            sim_threshold=config.sim_threshold,
            is_same_tolerance=config.is_same_tolerance,
            level=feature_level,
        ),
        exclude_performance=True,
    )
    return catalog, (feature_level, config.sim_threshold, config.is_same_tolerance)


class _PairFeatureMatrix(FeatureMatrix):
    """A :class:`~repro.ml.matrix.FeatureMatrix` over sampled pairs whose
    columns are derived and encoded on first use.

    It holds the sampled ``(first, second)`` record indices and the
    :class:`~repro.core.pairkernel.PairKernel` that filtered them.
    :meth:`values` derives a raw feature's Table-1 columns through
    :meth:`~repro.core.pairkernel.PairKernel.derived_columns` the first time
    any of them is read; :meth:`column` encodes a catalog column through
    :meth:`~repro.ml.matrix.FeatureMatrix.from_columns` on first access.
    Both run under one lock per matrix, so racing readers derive each raw
    feature, and encode each column, at most once.  Each derivation
    gathers through a fresh :class:`~repro.core.pairkernel.PairContext`
    dropped on return: the matrix keeps derived columns, not gathers.
    """

    __slots__ = (
        "catalog",
        "kernel",
        "firsts",
        "seconds",
        "owners",
        "_features",
        "_values",
        "_lock",
    )

    def __init__(
        self,
        catalog: dict[str, bool],
        kernel: PairKernel,
        firsts: Sequence[int],
        seconds: Sequence[int],
    ) -> None:
        super().__init__({}, len(firsts))
        #: Searchable pair features mapped to "is numeric", in catalog order.
        self.catalog = catalog
        self.kernel = kernel
        self.firsts = firsts
        self.seconds = seconds
        #: Every derivable pair feature -> its raw feature.
        self.owners = _pair_feature_owners(kernel.schema)
        self._features = tuple(catalog)
        self._values: dict[str, list] = {}
        self._lock = threading.Lock()

    def with_catalog(self, catalog: dict[str, bool]) -> "_PairFeatureMatrix":
        """The same sample under another searchable catalog."""
        return _PairFeatureMatrix(catalog, self.kernel, self.firsts, self.seconds)

    @property
    def features(self) -> tuple[str, ...]:
        """The catalog's feature names, encoded or not."""
        return self._features

    def column(self, feature: str) -> FeatureColumn:
        """One catalog feature's encoded column, encoded on first access."""
        column = self.columns.get(feature)
        if column is not None:
            return column
        numeric = self.catalog[feature]
        values = self.values(feature)
        with self._lock:
            column = self.columns.get(feature)
            if column is None:
                column = FeatureMatrix.from_columns(
                    {feature: values}, numeric={feature: numeric}, n_rows=self.n_rows
                ).columns[feature]
                self.columns[feature] = column
        return column

    def values(self, name: str) -> list:
        """One pair feature's value per example (``None`` = missing).

        A name no raw feature derives reads as all-missing, like the absent
        key of an example dict.
        """
        values = self._values.get(name)
        if values is not None:
            return values
        if name not in self.owners:
            return [None] * self.n_rows
        with self._lock:
            if name not in self._values:
                self._derive(self.owners[name])
            return self._values[name]

    def _derive(self, raw: str) -> None:
        """Derive and keep the columns ``raw`` owns (lock held)."""
        ctx = PairContext(self.firsts, self.seconds)
        for name, values in self.kernel.derived_columns(ctx, raw, FeatureLevel.FULL):
            if self.owners[name] == raw:
                self._values[name] = values


class TrainingMatrix:
    """A query's sampled training pairs, with pair features derived on demand.

    The matrix keeps the sampled ``(first, second)`` record indices, their
    labels and the :class:`~repro.core.pairkernel.PairKernel` that
    filtered them; everything else waits for its first reader:

    * :meth:`values` derives a raw feature's Table-1 columns the first time
      any of them is read, and keeps them;
    * :attr:`matrix` encodes a catalog column on its first ``column()``
      access, for the greedy clause growth's index-subset searches;
    * :attr:`examples` builds :class:`TrainingExample` dicts only when
      asked, and does not keep them.

    A technique thus pays only for the pair features it reads: a detector
    citing one feature derives one raw feature.  Derivation is a pure
    function of the sampled pairs, so which thread derives a column, and
    when, never changes a value.  :class:`PerfXplainSession` caches one
    ``TrainingMatrix`` per clause signature.

    The matrix also keeps, per positive label, PerfXplain's latest greedy
    clause growth over it (:attr:`growths`, written by
    :meth:`~repro.core.explainer.PerfXplainExplainer._grow_clause`): its
    context, the atoms chosen so far, the rows left after the last one as
    a bitset, and whether growth stopped early.  A wider request for the
    same pair resumes it instead of growing again from the whole matrix.
    Each write replaces a label's whole entry, so racing readers see one
    growth or another, never a mix; the entry goes with the matrix when a
    cache evicts or invalidates it.

    The matrix keeps the whole related-pair stream it sampled from
    (:attr:`stream`), so a ``?`` question reads its pair of interest off
    the one pass over the candidates (:meth:`pair_of_interest`), and a
    build after an append extends the stream instead of filtering every
    candidate again (:func:`construct_training_matrix`).

    ``len()`` is the number of examples, so an empty matrix is falsy.
    """

    __slots__ = ("matrix", "observed", "encoding", "stream", "growths", "_expected")

    def __init__(
        self,
        matrix: _PairFeatureMatrix,
        observed: bytearray,
        encoding: tuple | None,
        stream: PairStream | None = None,
    ) -> None:
        #: Columnar encoding of the catalog's pair features (deferred).
        self.matrix = matrix
        #: Per-example flag: the pair performed as observed.
        self.observed = observed
        #: The parameters the catalog was built under (feature level and
        #: pair-encoding tunables) — checked by
        #: :func:`encode_training_examples` so a matrix encoded for one
        #: configuration is never silently reused under another.
        self.encoding = encoding
        #: The related-pair stream the examples were sampled from.
        self.stream = stream
        #: Positive label -> the latest clause growth over this matrix.
        self.growths: dict[Label, Any] = {}
        self._expected: bytearray | None = None

    def values(self, name: str) -> list:
        """One pair feature's value per example (``None`` = missing)."""
        return self.matrix.values(name)

    def pair_of_interest(self, query: PXQLQuery) -> tuple[str, str]:
        """The pair of interest of ``query``, a question with this matrix's
        clauses, exactly as :func:`~repro.core.queries.find_pair_of_interest`
        picks it under the same rng state (:meth:`PairStream.pick`).

        :raises ExplanationError: if no related pair is OBSERVED.
        """
        pick = self.stream.pick()
        if pick is None:
            raise no_pair_error(query)
        return pick

    def satisfied(self, predicate: Predicate) -> int:
        """The examples satisfying every atom of ``predicate``, as a row
        bitset (bit ``i`` for example ``i``).

        The columnar twin of ``predicate.evaluate(example.values)``: only
        the atoms' own features are derived.  An ``==`` atom reads
        :meth:`equal_bits`, a cached bitset on catalog columns; a threshold
        atom reads :meth:`threshold_bits`; any other atom maps
        :meth:`~repro.core.pxql.ast.Comparison.evaluate_value` over the
        feature's values.  The bitsets are ANDed, so a caller counts
        satisfied examples with ``int.bit_count()``.
        """
        bits = (1 << len(self)) - 1
        for atom in predicate.atoms:
            if atom.operator is Operator.EQ:
                bits &= self.equal_bits(atom.feature, atom.value)
            elif atom.operator in _THRESHOLD_TESTS:
                bits &= self.threshold_bits(atom)
            else:
                values = self.values(atom.feature)
                bits &= flags_to_bits(bytes(map(atom.evaluate_value, values)))
        return bits

    def threshold_bits(self, atom: Comparison) -> int:
        """The examples satisfying one ``<``, ``<=``, ``>`` or ``>=`` atom,
        as a row bitset.

        On a clean numeric catalog column (every present value is
        threshold-eligible and equals its float image) and a non-bool
        ``int`` or ``float`` constant, the column's float images are
        compared with the constant at C level and masked by its
        eligibility flags: an image equals its value, and a float compares
        exactly with an int of any size, so an image satisfies the atom
        exactly when its value does (a NaN constant satisfies nothing).
        Every other case maps
        :meth:`~repro.core.pxql.ast.Comparison.evaluate_value` over the
        values.
        """
        matrix = self.matrix
        if type(atom.value) in (int, float) and atom.feature in matrix.catalog:
            column = matrix.column(atom.feature)
            if column.numeric and column.clean:
                compare = map(_THRESHOLD_TESTS[atom.operator], column.floats, repeat(atom.value))
                return flags_to_bits(bytes(map(and_, column.numeric_ok, compare)))
        return flags_to_bits(bytes(map(atom.evaluate_value, self.values(atom.feature))))

    def equal_bits(self, feature: str, value: FeatureValue) -> int:
        """The examples whose ``feature`` value is present and ``== value``,
        as a row bitset.

        On a catalog feature this is the encoded column's cached bitset of
        the value's code: codes are assigned under dict equality, the
        relation ``==`` evaluates, and a NaN constant equals nothing (not
        even the NaN object it may have been read from).  Features outside
        the catalog, and unhashable constants, map ``==`` over the values.
        """
        matrix = self.matrix
        if feature in matrix.catalog:
            column = matrix.column(feature)
            try:
                code = column.code_of.get(value, -1)
            except TypeError:  # unhashable: compared value by value below
                pass
            else:
                return column.code_bits(code) if code >= 0 and value == value else 0
        equals = Comparison(feature, Operator.EQ, value).evaluate_value
        return flags_to_bits(bytes(map(equals, self.values(feature))))

    def present_bits(self, feature: str) -> int:
        """The examples whose ``feature`` value is not missing, as a row
        bitset (a catalog column's missing rows carry code ``-1``)."""
        matrix = self.matrix
        if feature in matrix.catalog:
            return ((1 << len(self)) - 1) & ~matrix.column(feature).code_bits(-1)
        return flags_to_bits(bytes(map(is_not, self.values(feature), repeat(None))))

    def positive_labels(self, positive_label: Label) -> bytearray:
        """Bitmap of examples carrying ``positive_label``.

        The same object on every call (the EXPECTED bitmap is built on
        first use), so a view that cached the bitset of one call's labels
        recognises the next call's.  Racing readers build equal bitmaps,
        so either assignment is correct.
        """
        if positive_label is Label.OBSERVED:
            return self.observed
        if self._expected is None:
            self._expected = self.observed.translate(_EXPECTED_FLAGS)
        return self._expected

    @property
    def examples(self) -> list[TrainingExample]:
        """Every example with its full pair-feature vector, built now.

        Derives every raw feature (once per matrix); the dicts themselves
        are the caller's and are not kept.
        """
        matrix = self.matrix
        names = list(matrix.owners)
        columns = [matrix.values(name) for name in names]
        rows = zip(*columns) if columns else [()] * len(self)
        ids = matrix.kernel.block.ids
        return [
            TrainingExample(ids[first], ids[second], dict(zip(names, row)), _LABELS[flag])
            for first, second, flag, row in zip(
                matrix.firsts, matrix.seconds, self.observed, rows
            )
        ]

    def __len__(self) -> int:
        return len(self.observed)


def construct_training_matrix(
    log: ExecutionLog,
    query: PXQLQuery,
    schema: FeatureSchema,
    config: PairFeatureConfig | None = None,
    sample_size: int | None = 2000,
    rng: random.Random | None = None,
    max_candidate_pairs: int | None = 2_000_000,
    feature_level: FeatureLevel = FeatureLevel.FULL,
    workers: int = 1,
    previous: PairStream | None = None,
) -> TrainingMatrix:
    """Construct (and balanced-sample) a query's :class:`TrainingMatrix`.

    This corresponds to lines 1-2 of Algorithm 1: collect the related pairs
    through the vectorised kernels, then keep a balanced sample of at most
    ``sample_size`` of them.  Pair features are derived later, column by
    column and only for the sampled pairs, as techniques read them.  The
    matrix keeps the whole related-pair stream, from which it reads the
    clauses' pair of interest (:meth:`TrainingMatrix.pair_of_interest`)
    without moving ``rng``.

    :param workers: process-shard the candidate filtering across this many
        forked workers (results are bit-identical for every count).
    :param previous: the related-pair stream (:attr:`TrainingMatrix.stream`)
        of a matrix this function built for the same clauses and arguments
        over an earlier state of ``log``.  When only appends happened since,
        it is extended with the pairs of the candidates that touch the new
        rows (:func:`related_stream`); sampling and the pick then run over
        the merged stream, and the result equals a fresh build's.
    :returns: the sampled training matrix (possibly empty if no pair in the
        log is related to the query).
    """
    config = config if config is not None else PairFeatureConfig()
    rng = rng if rng is not None else random.Random(0)
    validate_query_features(query, schema)
    kernel = pair_kernel_for(log, query, schema, config)
    epoch = log.mutation_snapshot()[query.entity.value][0]
    stream = related_stream(
        kernel, query, max_candidate_pairs, rng, epoch, base=previous, workers=workers
    )
    firsts, seconds, observed = _sampled_index_pairs(stream, sample_size, rng)
    catalog, encoding = _encoding_of(schema, config, feature_level)
    return TrainingMatrix(
        _PairFeatureMatrix(catalog, kernel, firsts, seconds), observed, encoding, stream
    )


def encode_training_examples(
    matrix: TrainingMatrix,
    schema: FeatureSchema,
    config: PairFeatureConfig | None = None,
    feature_level: FeatureLevel = FeatureLevel.FULL,
) -> TrainingMatrix:
    """A training matrix under the catalog of one configuration.

    The searchable columns are exactly the pair-feature catalog the
    explainer searches (performance-derived features excluded, level
    capped at ``feature_level``), in catalog order.  A matrix built under
    the same parameters passes through unchanged; one built under others
    is re-cataloged over the same pairs, so a matrix cached for one
    configuration never leaks a different feature surface into another.
    """
    config = config if config is not None else PairFeatureConfig()
    catalog, encoding = _encoding_of(schema, config, feature_level)
    if matrix.encoding == encoding:
        return matrix
    return TrainingMatrix(
        matrix.matrix.with_catalog(catalog), matrix.observed, encoding, matrix.stream
    )

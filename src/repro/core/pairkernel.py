"""Vectorized pair-feature kernels over a :class:`~repro.logs.chunkstore.RecordBlock`.

Layer 2 of the columnar pair pipeline.  The paper's Section 4 derives, for
every candidate pair of executions, the Table-1 pair features
(``_isSame`` / ``_compare`` / ``_diff`` / shared base value) and filters the
candidates through the query's despite/observed/expected clauses.  The dict
reference path (``tests/oracles/pairref.py``) does that one pair at a time,
allocating a feature dict per candidate; this module does it one *column*
at a time over arrays of ``(i, j)`` candidate index pairs:

* :class:`PairContext` — one batch of candidate index pairs plus a memo of
  every gathered/derived array, so clauses sharing a raw feature (e.g.
  ``duration_compare = GT`` and ``duration_compare = SIM``) pay for one
  gather;
* :class:`PairKernel` — bulk derivations.  :meth:`PairKernel.atom_mask`
  evaluates one PXQL comparison as a byte mask over all pairs (specialised
  C-level pipelines for the common equality atoms, a scalar fallback via
  :meth:`~repro.core.pxql.ast.Comparison.evaluate_value` otherwise);
  :meth:`PairKernel.derived_column` materialises one derived feature as a
  full value column for :class:`~repro.ml.matrix.FeatureMatrix` encoding;
* :func:`blocking_group_indices` / :func:`iter_candidate_batches` — lazy,
  block-at-a-time enumeration of the candidate pair space within blocking
  groups, so a ``max_candidate_pairs`` cap samples candidates *without*
  materialising the full quadratic product;
* :func:`sampling_salt` / :func:`pair_is_kept` — the order-independent
  candidate subsampling rule: a pair's keep decision hashes its two entity
  ids with a per-call salt (CRC32), so the kept subset does not depend on
  group iteration order and is identical for the kernel and dict paths.

Everything runs on stdlib C pipelines (``map`` over ``operator`` functions,
``bytes``/``bytearray``/``itertools.compress``); semantics mirror
:func:`repro.core.pairs.compute_pair_feature` and
:meth:`repro.core.pxql.ast.Comparison.evaluate` exactly, which the
differential suite (``tests/core/test_pair_pipeline_equivalence.py``)
asserts on randomized logs.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, repeat
from operator import add, and_, eq, gt, le, lt, or_, sub
from random import Random
from typing import Iterator, Sequence
from zlib import crc32

from repro.core.features import FeatureLevel
from repro.core.pairs import (
    COMPARE_SUFFIX,
    DEFAULT_PAIR_CONFIG,
    DIFF_SUFFIX,
    GREATER_THAN,
    IS_SAME_SUFFIX,
    LESS_THAN,
    NOT_SAME,
    PairFeatureConfig,
    SAME,
    SIMILAR,
)
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.logs.records import FeatureValue
from repro.logs.chunkstore import RecordBlock

#: Derived-feature kinds (the four Table-1 families).
KIND_IS_SAME = "is_same"
KIND_COMPARE = "compare"
KIND_DIFF = "diff"
KIND_BASE = "base"

#: Candidate pairs evaluated per batch (bounds peak memory of the masks).
CANDIDATE_BATCH = 1 << 16

#: ``present + same`` -> isSame derived value (same implies present).
_IS_SAME_VALUES = (None, NOT_SAME, SAME)

#: ``numok + 2*sim + 4*lt`` -> compare derived value (sim/lt imply numok
#: and are mutually exclusive).
_COMPARE_VALUES = (None, GREATER_THAN, None, SIMILAR, None, LESS_THAN)

#: Gather-tag first letter -> encoded column array name (see
#: :meth:`~repro.logs.chunkstore.ChunkedColumn.gather`).
_TAG_SOURCES = {
    "c": "codes",
    "x": "floats",
    "s": "selfeq",
    "o": "num_ok",
    "r": "raw",
}


def derived_parts(pair_feature: str) -> tuple[str, str]:
    """Split a pair-feature name into (raw feature, derived kind).

    Mirrors :func:`repro.core.pairs.raw_feature_of`: the suffix is stripped
    first, so a raw feature whose *name* ends in a derived suffix is still
    interpreted as the derived feature of its prefix.
    """
    if pair_feature.endswith(IS_SAME_SUFFIX):
        return pair_feature[: -len(IS_SAME_SUFFIX)], KIND_IS_SAME
    if pair_feature.endswith(COMPARE_SUFFIX):
        return pair_feature[: -len(COMPARE_SUFFIX)], KIND_COMPARE
    if pair_feature.endswith(DIFF_SUFFIX):
        return pair_feature[: -len(DIFF_SUFFIX)], KIND_DIFF
    return pair_feature, KIND_BASE


def derived_names(raw: str, level: FeatureLevel) -> list[tuple[str, str]]:
    """``(name, kind)`` of every derived feature of one raw feature at a level.

    Emission order matches the reference's per-pair dict construction:
    ``isSame``, then ``compare`` *and* ``diff`` (both present from the
    comparison level up, one of them all-``None``), then the base copy.
    """
    names = [(raw + IS_SAME_SUFFIX, KIND_IS_SAME)]
    if level >= FeatureLevel.COMPARISON:
        names.append((raw + COMPARE_SUFFIX, KIND_COMPARE))
        names.append((raw + DIFF_SUFFIX, KIND_DIFF))
    if level >= FeatureLevel.FULL:
        names.append((raw, KIND_BASE))
    return names


class PairContext:
    """One batch of candidate index pairs plus a memo of derived arrays."""

    __slots__ = ("first", "second", "n", "cache")

    def __init__(self, first: Sequence[int], second: Sequence[int]) -> None:
        self.first = first
        self.second = second
        self.n = len(first)
        #: (raw feature, tag, *extras) -> gathered or derived array.
        self.cache: dict[tuple, object] = {}


def _diff_string(value_a: FeatureValue, value_b: FeatureValue) -> str | None:
    if value_a is None or value_b is None:
        return None
    return f"({value_a}, {value_b})"


def _shared_value(shared: int, value_a: FeatureValue) -> FeatureValue:
    return value_a if shared else None


class PairKernel:
    """Bulk pair-feature derivation and PXQL clause evaluation.

    One kernel wraps one :class:`~repro.logs.chunkstore.RecordBlock` and one
    :class:`~repro.core.pairs.PairFeatureConfig`; all methods take a
    :class:`PairContext` holding the candidate index pairs of the current
    batch.  The config's ``level`` gates which derived features exist —
    an atom over a feature the level does not emit can never be satisfied,
    exactly like the missing dict key in the reference path.
    """

    __slots__ = ("block", "schema", "config")

    def __init__(
        self, block: RecordBlock, config: PairFeatureConfig | None = None
    ) -> None:
        self.block = block
        self.schema = block.schema
        self.config = config if config is not None else DEFAULT_PAIR_CONFIG

    # ------------------------------------------------------------------ #
    # gathered and derived arrays (all memoised on the context)
    # ------------------------------------------------------------------ #

    def _gather(self, ctx: PairContext, raw: str, tag: str) -> list:
        """Per-pair gather of one per-record array (codes/floats/values)."""
        key = (raw, tag)
        cached = ctx.cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        column = self.block.column(raw)
        side = ctx.first if tag.endswith("a") else ctx.second
        gathered = column.gather(_TAG_SOURCES[tag[0]], side)
        ctx.cache[key] = gathered
        return gathered

    def _present(self, ctx: PairContext, raw: str) -> bytearray:
        """Both sides carry a value (missing derives to ``None``)."""
        key = (raw, "present")
        cached = ctx.cache.get(key)
        if cached is None:
            code_a = self._gather(ctx, raw, "ca")
            code_b = self._gather(ctx, raw, "cb")
            cached = bytearray(
                map(and_, map((-1).__lt__, code_a), map((-1).__lt__, code_b))
            )
            ctx.cache[key] = cached
        return cached  # type: ignore[return-value]

    def _shared(self, ctx: PairContext, raw: str) -> bytearray:
        """Exact value equality: equal codes and both sides self-equal."""
        key = (raw, "shared")
        cached = ctx.cache.get(key)
        if cached is None:
            code_a = self._gather(ctx, raw, "ca")
            code_b = self._gather(ctx, raw, "cb")
            selfeq_a = self._gather(ctx, raw, "sa")
            selfeq_b = self._gather(ctx, raw, "sb")
            cached = bytearray(
                map(and_, map(and_, map(eq, code_a, code_b), selfeq_a), selfeq_b)
            )
            ctx.cache[key] = cached
        return cached  # type: ignore[return-value]

    def _numok(self, ctx: PairContext, raw: str) -> bytearray:
        """Both sides are genuinely numeric (bools and ``None`` are not)."""
        key = (raw, "numok")
        cached = ctx.cache.get(key)
        if cached is None:
            ok_a = self._gather(ctx, raw, "oa")
            ok_b = self._gather(ctx, raw, "ob")
            cached = bytearray(map(and_, ok_a, ok_b))
            ctx.cache[key] = cached
        return cached  # type: ignore[return-value]

    def _close(self, ctx: PairContext, raw: str, tolerance: float) -> bytearray:
        """Relative closeness, branch-for-branch with ``relative_close``:
        ``a == b``, or ``scale == 0``, or ``|a - b| <= tol * scale`` where
        ``scale = max(|a|, |b|)`` under builtin-``max`` ordering (the first
        argument wins unless the second compares greater — which makes
        ``(0.0, NaN)`` "close" but ``(NaN, 0.0)`` not, exactly like the
        reference).  Garbage where a side is not numeric — callers mask
        with ``numok``.
        """
        key = (raw, "close", tolerance)
        cached = ctx.cache.get(key)
        if cached is None:
            self._cache_close(ctx, raw, (tolerance,))
            cached = ctx.cache[key]
        return cached  # type: ignore[return-value]

    def _cache_close(
        self, ctx: PairContext, raw: str, tolerances: Sequence[float]
    ) -> None:
        """Cache :meth:`_close`'s mask at each tolerance, sharing one pass
        of the tolerance-free work: ``|a - b|``, the scale and the
        ``a == b or scale == 0`` mask.  Each tolerance adds only
        ``|a - b| <= tol * scale``.  The shared lists are dropped on
        return, so a context keeps one byte mask per tolerance (a filter
        reads one tolerance and never holds the spread as a list)."""
        float_a = self._gather(ctx, raw, "xa")
        float_b = self._gather(ctx, raw, "xb")
        spread = map(abs, map(sub, float_a, float_b))
        if len(tolerances) > 1:
            spread = list(spread)
        scale = list(map(max, map(abs, float_a), map(abs, float_b)))
        exact = bytearray(map(or_, map(eq, float_a, float_b), map((0.0).__eq__, scale)))
        for tolerance in tolerances:
            within = map(le, spread, map(tolerance.__mul__, scale))
            ctx.cache[(raw, "close", tolerance)] = bytearray(map(or_, exact, within))

    def _is_same(self, ctx: PairContext, raw: str) -> bytearray:
        """The ``isSame = T`` mask of one raw feature."""
        key = (raw, "same")
        cached = ctx.cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        column = self.block.column(raw)
        if column.numeric:
            numok = self._numok(ctx, raw)
            close = self._close(ctx, raw, self.config.is_same_tolerance)
            mask = bytearray(map(and_, numok, close))
            if not column.all_numeric:
                # Mixed column: pairs that are present but not both numeric
                # fall back to exact equality (the reference's == branch).
                present = self._present(ctx, raw)
                shared = self._shared(ctx, raw)
                fallback = map(and_, map(gt, present, numok), shared)
                mask = bytearray(map(or_, mask, fallback))
        else:
            mask = self._shared(ctx, raw)
        ctx.cache[key] = mask
        return mask

    def _compare_parts(
        self, ctx: PairContext, raw: str
    ) -> tuple[bytearray, bytearray, bytearray, bytearray]:
        """(numok, SIM, LT, GT) masks of one numeric raw feature."""
        key = (raw, "compare")
        cached = ctx.cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        numok = self._numok(ctx, raw)
        close = self._close(ctx, raw, self.config.sim_threshold)
        sim = bytearray(map(and_, numok, close))
        not_close = bytearray(map(gt, numok, sim))
        float_a = self._gather(ctx, raw, "xa")
        float_b = self._gather(ctx, raw, "xb")
        less = bytearray(map(and_, not_close, map(lt, float_a, float_b)))
        greater = bytearray(map(gt, not_close, less))
        parts = (numok, sim, less, greater)
        ctx.cache[key] = parts
        return parts

    # ------------------------------------------------------------------ #
    # derived value columns
    # ------------------------------------------------------------------ #

    def derived_column(self, ctx: PairContext, raw: str, kind: str) -> list:
        """One derived pair feature materialised as a full value column.

        Values and missingness mirror
        :func:`repro.core.pairs.compute_pair_feature` exactly; the config's
        feature level is *not* applied here (callers select which kinds to
        emit), so the column always exists for fallback atom evaluation.
        """
        column = self.block.column(raw)
        if kind == KIND_IS_SAME:
            present = self._present(ctx, raw)
            same = self._is_same(ctx, raw)
            return list(map(_IS_SAME_VALUES.__getitem__, map(add, present, same)))
        if kind == KIND_COMPARE:
            if not column.numeric:
                return [None] * ctx.n
            numok, sim, less, _ = self._compare_parts(ctx, raw)
            selector = map(
                add,
                numok,
                map(add, map((2).__mul__, sim), map((4).__mul__, less)),
            )
            return list(map(_COMPARE_VALUES.__getitem__, selector))
        if kind == KIND_DIFF:
            if column.numeric:
                return [None] * ctx.n
            raw_a = self._gather(ctx, raw, "ra")
            raw_b = self._gather(ctx, raw, "rb")
            return list(map(_diff_string, raw_a, raw_b))
        shared = self._shared(ctx, raw)
        raw_a = self._gather(ctx, raw, "ra")
        return list(map(_shared_value, shared, raw_a))

    def derived_columns(
        self, ctx: PairContext, raw: str, level: FeatureLevel
    ) -> list[tuple[str, list]]:
        """Every derived (name, column) of one raw feature at a level, in
        :func:`derived_names` order.

        A numeric raw feature's ``isSame`` and ``compare`` columns read
        its closeness at two tolerances; both masks come from one pass
        (:meth:`_cache_close`).
        """
        if level >= FeatureLevel.COMPARISON and self.block.column(raw).numeric:
            config = self.config
            self._cache_close(
                ctx, raw, (config.is_same_tolerance, config.sim_threshold)
            )
        return [
            (name, self.derived_column(ctx, raw, kind))
            for name, kind in derived_names(raw, level)
        ]

    # ------------------------------------------------------------------ #
    # clause evaluation
    # ------------------------------------------------------------------ #

    def atom_mask(self, atom: Comparison, ctx: PairContext) -> bytearray:
        """One PXQL comparison evaluated over every pair of the batch."""
        raw, kind = derived_parts(atom.feature)
        if raw not in self.schema:
            # The reference path never derives features of unknown raws, so
            # the atom reads a missing value: never satisfied.
            return bytearray(ctx.n)
        level = self.config.level
        if kind == KIND_IS_SAME:
            return self._is_same_atom_mask(atom, ctx, raw)
        if kind == KIND_COMPARE:
            if level < FeatureLevel.COMPARISON:
                return bytearray(ctx.n)
            return self._compare_atom_mask(atom, ctx, raw)
        if kind == KIND_DIFF:
            if level < FeatureLevel.COMPARISON:
                return bytearray(ctx.n)
            return self._fallback_mask(atom, ctx, raw, kind)
        if level < FeatureLevel.FULL:
            return bytearray(ctx.n)
        return self._base_atom_mask(atom, ctx, raw)

    def predicate_mask(self, predicate: Predicate, ctx: PairContext) -> bytearray:
        """A whole conjunction evaluated over every pair of the batch."""
        mask: bytearray | None = None
        for atom in predicate.atoms:
            atom_mask = self.atom_mask(atom, ctx)
            mask = atom_mask if mask is None else bytearray(map(and_, mask, atom_mask))
        if mask is None:
            return bytearray(b"\x01") * ctx.n
        return mask

    def _is_same_atom_mask(
        self, atom: Comparison, ctx: PairContext, raw: str
    ) -> bytearray:
        operator = atom.operator
        value = atom.value
        if operator is Operator.EQ:
            if value == SAME:
                return self._is_same(ctx, raw)
            if value == NOT_SAME:
                return bytearray(
                    map(gt, self._present(ctx, raw), self._is_same(ctx, raw))
                )
            return bytearray(ctx.n)
        if operator is Operator.NE:
            if value == SAME:
                return bytearray(
                    map(gt, self._present(ctx, raw), self._is_same(ctx, raw))
                )
            if value == NOT_SAME:
                return self._is_same(ctx, raw)
            return bytearray(self._present(ctx, raw))
        return self._fallback_mask(atom, ctx, raw, KIND_IS_SAME)

    def _compare_atom_mask(
        self, atom: Comparison, ctx: PairContext, raw: str
    ) -> bytearray:
        if not self.block.column(raw).numeric:
            # The reference derives ``f_compare = None`` for nominal raws,
            # and a missing value satisfies no comparison.
            return bytearray(ctx.n)
        operator = atom.operator
        value = atom.value
        if operator is Operator.EQ or operator is Operator.NE:
            numok, sim, less, greater = self._compare_parts(ctx, raw)
            by_value = {SIMILAR: sim, LESS_THAN: less, GREATER_THAN: greater}
            matching = None
            for constant, mask in by_value.items():
                if value == constant:
                    matching = mask
                    break
            if operator is Operator.EQ:
                return bytearray(matching) if matching is not None else bytearray(ctx.n)
            if matching is None:
                return bytearray(numok)
            return bytearray(map(gt, numok, matching))
        return self._fallback_mask(atom, ctx, raw, KIND_COMPARE)

    def _base_atom_mask(
        self, atom: Comparison, ctx: PairContext, raw: str
    ) -> bytearray:
        if atom.operator is Operator.EQ:
            value = atom.value
            if value is None or value != value:
                # ``None`` and NaN satisfy no equality in the reference.
                return bytearray(ctx.n)
            code = self.block.column(raw).code_of.get(value, -1)
            if code < 0:
                return bytearray(ctx.n)
            shared = self._shared(ctx, raw)
            code_a = self._gather(ctx, raw, "ca")
            return bytearray(map(and_, shared, map(code.__eq__, code_a)))
        return self._fallback_mask(atom, ctx, raw, KIND_BASE)

    def _fallback_mask(
        self, atom: Comparison, ctx: PairContext, raw: str, kind: str
    ) -> bytearray:
        """Scalar evaluation mapped over the materialised derived column."""
        column = self.derived_column(ctx, raw, kind)
        return bytearray(map(atom.evaluate_value, column))


# --------------------------------------------------------------------- #
# candidate enumeration and order-independent subsampling
# --------------------------------------------------------------------- #


def blocking_group_indices(
    block: RecordBlock, blocking: Sequence[str]
) -> list[list[int]]:
    """Record indices grouped by their blocked raw values.

    Mirrors the reference's record grouping: records whose blocked key
    contains a missing *or NaN* value are dropped (neither can ever satisfy
    ``isSame = T``), and groups appear in first-occurrence order.  Grouping
    by value *codes* is exact because codes are assigned under dict
    equality with a canonical NaN slot — the same relation the reference's
    value-tuple dict keys use once NaN rows are excluded.

    The groups come from the block's memo
    (:meth:`~repro.logs.chunkstore.RecordBlock.blocking_groups`), built one
    chunk at a time — a spilled column's chunks are each touched once and
    never all resident — and maintained in O(delta) under appends.
    """
    if not blocking:
        return [list(range(len(block)))]
    return block.blocking_groups(blocking)


def sampling_salt(rng: Random) -> int:
    """The per-enumeration salt for hash-based candidate subsampling."""
    return rng.getrandbits(32)


def keep_limit(max_candidate_pairs: int, total_candidates: int) -> int:
    """The CRC32 threshold below which a candidate pair is kept."""
    return int(max_candidate_pairs / total_candidates * 2**32)


def pair_is_kept(first_id: str, second_id: str, salt: int, limit: int) -> bool:
    """Order-independent keep decision for one candidate pair.

    The decision depends only on the two entity ids and the salt — never on
    how many candidates were enumerated before this one — so the sampled
    subset is invariant under record and blocking-group reordering.  The
    dict reference path and the kernel's batched twin
    (:func:`iter_candidate_batches`) share this exact rule.
    """
    state = crc32(first_id.encode("utf-8"), salt)
    return crc32(second_id.encode("utf-8"), state) < limit


def kept_flags(
    block: RecordBlock,
    firsts: Sequence[int],
    seconds: Sequence[int],
    salt: int,
    limit: int,
) -> bytes:
    """:func:`pair_is_kept` over index pairs of ``block``, one flag per
    pair, at C level."""
    id_bytes = block.id_bytes
    states = map(crc32, map(id_bytes.__getitem__, firsts), repeat(salt))
    return bytes(
        map(limit.__gt__, map(crc32, map(id_bytes.__getitem__, seconds), states))
    )


def iter_candidate_batches(
    block: RecordBlock,
    groups: Sequence[Sequence[int]],
    salt: int | None = None,
    limit: int = 0,
    batch_size: int = CANDIDATE_BATCH,
    since: int = 0,
) -> Iterator[tuple[list[int], list[int]]]:
    """Candidate ``(first, second)`` index arrays, one bounded batch at a time.

    Enumerates every ordered pair of distinct records within each blocking
    group, in group order then row-major order — the reference's exact
    sequence.  When ``salt`` is given, candidates are subsampled *during*
    enumeration with the :func:`pair_is_kept` rule (vectorised: the CRC
    state of the first id is computed once per row and folded with every
    second id at C level), so the full product is never materialised.

    Only candidates that touch a row at or past ``since`` are enumerated,
    in the same order: what an enumeration over the block's first
    ``since`` rows lacks once the block has grown.  Groups list their rows
    in ascending order (the block appends rows in order), so each group's
    new rows are its tail; an old row pairs with the tail only.  The
    default ``since=0`` enumerates every candidate.
    """
    first_batch: list[int] = []
    second_batch: list[int] = []
    id_bytes = block.id_bytes
    for group in groups:
        size = len(group)
        if size < 2:
            continue
        split = bisect_left(group, since)
        if split == size:
            continue
        members = list(group)
        news = members[split:]
        for position, row in enumerate(members):
            if position < split:
                seconds = news
            else:
                seconds = members[:position] + members[position + 1 :]
            if salt is not None:
                state = crc32(id_bytes[row], salt)
                kept = map(
                    limit.__gt__,
                    map(crc32, map(id_bytes.__getitem__, seconds), repeat(state)),
                )
                seconds = list(compress(seconds, kept))
                if not seconds:
                    continue
            first_batch.extend(repeat(row, len(seconds)))
            second_batch.extend(seconds)
            if len(first_batch) >= batch_size:
                yield first_batch, second_batch
                first_batch = []
                second_batch = []
    if first_batch:
        yield first_batch, second_batch

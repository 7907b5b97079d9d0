"""Columnar training-data encoding for the ML layer.

The row-oriented training path re-extracted every feature column from dict
rows and re-sorted every numeric column *at every tree node*, making split
search O(nodes x features x n log n).  This module encodes a training set
once and lets every consumer (the decision tree, the explainer's greedy
clause growth, RReliefF) operate on **index subsets** of that encoding:

* :class:`FeatureColumn` — one feature's values encoded as integer codes
  (for equality counting), a ``float`` array plus validity mask (for
  threshold sweeps), **one global stable sort of the numeric order**, the
  runs of equal values in that order, a C-level gather into that order,
  and a row bitset per value code it has been asked about;
* :class:`FeatureMatrix` — the per-feature columns of a dataset plus row
  count;
* :class:`MatrixView` — an index subset of a matrix.  Splitting a view
  filters each cached numeric order *stably*, so the global sort is reused
  at every node instead of re-sorting; a view also holds its rows, and its
  positive rows, as bitsets;
* :func:`search_column` — the best-predicate search over one column and one
  index subset: equality candidates from code counts, threshold candidates
  from a prefix-count sweep over the presorted order.

The two kinds of search count differently.  A **constrained** search (the
explainer's Algorithm 1: only predicates the pair of interest satisfies)
needs one equality candidate, so it counts that code's rows as
``int.bit_count()`` of the view's bitsets ANDed with the code's bitset, and
sweeps thresholds over the column's presorted order run by run: the
column's cached ``operator.itemgetter`` gathers the view's per-row states
(outside, negative, positive) into that order in one C-level call, and
``bytes.count`` counts each run's rows and positive rows.  An
**unconstrained** search (decision-tree splits) considers every value, so
it keeps the per-code counting loop, and the fused single pass for
*clean* numeric columns: every present value is threshold-eligible and
equal to its float image, so the presorted order's runs are exactly the
equality classes (an int beyond ``2**53`` may share its float image with
another int, which makes its column not clean).  Bitsets are plain Python
ints: bit ``i`` stands for row ``i``.

Missing values (``None``) carry code ``-1`` and are excluded from the
numeric order; at evaluation time they never *satisfy* any predicate,
matching the PXQL semantics.  (One accounting quirk is inherited from the
row path for exact equivalence: a constrained ``>`` threshold's gain
counts the suffix as the complement of the ``<=`` prefix, so rows with
missing or non-numeric values are tallied on the ``>`` side there even
though ``satisfied_by`` later rejects them.)  Booleans are valid equality
constants but never yield threshold candidates (mirroring the
``isinstance(..., bool)`` guard the row path used), and ``NaN`` never
enters the numeric order.

Arrays come from the stdlib :mod:`array` module; no third-party numerics
are required.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, chain, compress, islice
from operator import itemgetter, mul, ne
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.ml.splits import (
    CandidatePredicate,
    GAIN_TIE_TOLERANCE,
    _UNCONSTRAINED,
    build_xlog2_table,
    canonical_value_key,
)

#: Shared empty order for nominal columns.
_EMPTY_ORDER: array = array("l")

#: Per-row flag byte -> binary digit, by truthiness (any nonzero byte is a
#: set bit).
_FLAG_DIGITS = b"0" + b"1" * 255
#: Per-row label byte -> the row's state inside a view: ``1`` negative,
#: ``2`` positive, by truthiness (rows outside the view are ``0``).
_LABEL_STATES = b"\x01" + b"\x02" * 255
#: Binary digit -> per-row flag byte (the inverse of ``_FLAG_DIGITS``).
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def flags_to_bits(flags: bytes | bytearray) -> int:
    """The bitset of a per-row flag vector: bit ``i`` is set where
    ``flags[i]`` is truthy."""
    if not flags:
        return 0
    return int(flags.translate(_FLAG_DIGITS)[::-1], 2)


def bits_to_flags(bits: int, n_rows: int) -> bytes:
    """The per-row flag vector of a bitset over ``n_rows`` rows: byte ``i``
    is ``1`` where bit ``i`` is set."""
    if not n_rows:
        return b""
    return format(bits, f"0{n_rows}b").encode("ascii")[::-1].translate(_DIGIT_FLAGS)


class FeatureColumn:
    """One feature's values, encoded once for repeated subset searches."""

    __slots__ = ("name", "numeric", "raw", "floats", "numeric_ok", "order",
                 "clean", "_codes", "_code_of", "_eq_values", "_eq_rank",
                 "_canonical_codes", "_code_bits", "_runs", "_order_getter")

    def __init__(self, name: str, numeric: bool) -> None:
        self.name = name
        self.numeric = numeric
        self.raw: list[Any] = []
        #: Per-row float value (0.0 where not threshold-eligible).
        self.floats: array = array("d")
        #: Per-row flag: value participates in threshold candidates.
        self.numeric_ok: bytearray = bytearray()
        #: Row indices with ``numeric_ok`` set, stably sorted by value: an
        #: ``array`` until :meth:`order_getter` replaces it with the tuple
        #: its getter gathers by.
        self.order: Sequence[int] = array("l")
        #: A numeric column is *clean* when every present value is
        #: threshold-eligible and equal to its float image (an int beyond
        #: 2**53 may share its image with another int): equality buckets
        #: then coincide with the sorted order's runs, enabling the fused
        #: fast path (which never touches the lazily-built code tables
        #: below).
        self.clean: bool = False
        self._codes: array | None = None
        self._code_of: dict[Any, int] | None = None
        self._eq_values: list[Any] | None = None
        self._eq_rank: list[int] | None = None
        self._canonical_codes: list[int] | None = None
        self._code_bits: dict[int, int] = {}
        self._runs: tuple[array, array] | None = None
        self._order_getter: itemgetter | None = None

    @classmethod
    def from_values(cls, name: str, values: Sequence[Any], numeric: bool) -> "FeatureColumn":
        """Encode one column of raw values (``None`` = missing)."""
        column = cls(name, numeric)
        raw = values if isinstance(values, list) else list(values)
        column.raw = raw
        if numeric:
            n = len(raw)
            floats = array("d", bytes(8 * n))
            ok = bytearray(n)
            missing = 0
            inexact = False
            for index, value in enumerate(raw):
                # Exact-type fast paths for the overwhelmingly common cases;
                # the fallback preserves the isinstance/bool/NaN semantics
                # for exotic numeric subclasses.
                kind = type(value)
                if kind is float:
                    if value == value:  # not NaN
                        floats[index] = value
                        ok[index] = 1
                elif kind is int:
                    as_float = float(value)
                    floats[index] = as_float
                    ok[index] = 1
                    if as_float != value:
                        inexact = True
                elif value is None:
                    missing += 1
                elif isinstance(value, (int, float)) and not isinstance(value, bool):
                    as_float = float(value)
                    if not math.isnan(as_float):
                        floats[index] = as_float
                        ok[index] = 1
                        if as_float != value:
                            inexact = True
            column.floats = floats
            column.numeric_ok = ok
            column.order = array(
                "l", sorted(compress(range(n), ok), key=floats.__getitem__)
            )
            column.clean = not inexact and len(column.order) == n - missing
        return column

    def _encode_values(self) -> None:
        # Codes number the distinct values in first-seen order, each keyed
        # by its first-seen representative: ``dict.fromkeys`` keeps the
        # first key object of every dict-equality class (so ``1``/``1.0``/
        # ``True`` share one code, and a NaN object only matches itself).
        first_seen = dict.fromkeys(self.raw)
        first_seen.pop(None, None)
        eq_values = list(first_seen)
        code_of = dict(zip(eq_values, range(len(eq_values))))
        lookup = dict(code_of)
        lookup[None] = -1
        self._eq_values = eq_values
        self._code_of = code_of
        self._codes = array("l", map(lookup.__getitem__, self.raw))

    @property
    def codes(self) -> array:
        """Per-row value code (``-1`` = missing); built on first use."""
        if self._codes is None:
            self._encode_values()
        return self._codes

    @property
    def code_of(self) -> dict[Any, int]:
        """Value -> code (dict equality, so ``1``/``1.0`` share a code)."""
        if self._code_of is None:
            self._encode_values()
        return self._code_of

    @property
    def eq_values(self) -> list[Any]:
        """Code -> representative value (first seen)."""
        if self._eq_values is None:
            self._encode_values()
        return self._eq_values

    @property
    def eq_rank(self) -> list[int]:
        """Code -> canonical rank, fixing equality tie-breaks deterministically."""
        if self._eq_rank is None:
            eq_values = self.eq_values
            by_key = sorted(
                range(len(eq_values)),
                key=lambda code: canonical_value_key(eq_values[code]),
            )
            rank = [0] * len(by_key)
            for position, code in enumerate(by_key):
                rank[code] = position
            self._eq_rank = rank
        return self._eq_rank

    @property
    def canonical_codes(self) -> list[int]:
        """All codes in canonical value order (the equality candidate order)."""
        if self._canonical_codes is None:
            rank = self.eq_rank
            ordered = [0] * len(rank)
            for code, position in enumerate(rank):
                ordered[position] = code
            self._canonical_codes = ordered
        return self._canonical_codes

    def code_bits(self, code: int) -> int:
        """The bitset of the rows carrying one value code (built on first use).

        Racing readers may both build a missing entry; they build the same
        int, so either assignment is correct.
        """
        bits = self._code_bits.get(code)
        if bits is None:
            bits = flags_to_bits(bytes(map(code.__eq__, self.codes)))
            self._code_bits[code] = bits
        return bits

    def runs(self) -> tuple[array, array]:
        """The presorted order's runs of equal values (built on first use).

        ``(values, bounds)``: each run's value, ascending, and the run
        boundaries in :attr:`order` (run ``i`` spans ``bounds[i]`` to
        ``bounds[i + 1]``).  Racing readers build equal arrays, so either
        assignment is correct.
        """
        if self._runs is None:
            values = list(map(self.floats.__getitem__, self.order))
            bounds = array("l", compress(range(len(values)),
                                         map(ne, values, chain((None,), values))))
            run_values = array("d", map(values.__getitem__, bounds))
            bounds.append(len(values))
            self._runs = (run_values, bounds)
        return self._runs

    def order_getter(self, rows: Sequence[int]) -> itemgetter:
        """A C-level gather of a per-row sequence in :attr:`order`'s row
        order (built on first use).

        ``rows[i]`` supplies the int object for row ``i``: the columns of one
        matrix pass its :attr:`FeatureMatrix.row_indices`, so their getters
        share one set of index ints.  ``itemgetter(*order)`` keeps the
        ``order`` tuple itself as its items, so the column then reads its
        order from that tuple and drops the array: the gather costs no
        second copy of the order.  Needs at least two ordered rows
        (``itemgetter`` returns a bare item for one index).  Racing readers
        build equal tuples and getters, so either assignment is correct.
        """
        getter = self._order_getter
        if getter is None:
            order = tuple(map(rows.__getitem__, self.order))
            getter = itemgetter(*order)
            self.order = order
            self._order_getter = getter
        return getter

    def __len__(self) -> int:
        return len(self.raw)


class FeatureMatrix:
    """A dataset encoded column-by-column for index-subset training."""

    __slots__ = ("columns", "n_rows", "_gain_table", "_row_indices")

    def __init__(self, columns: dict[str, FeatureColumn], n_rows: int) -> None:
        self.columns = columns
        self.n_rows = n_rows
        self._gain_table: list[float] | None = None
        self._row_indices: tuple[int, ...] | None = None

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[str, Any]],
        numeric: Mapping[str, bool] | None = None,
        features: Sequence[str] | None = None,
    ) -> "FeatureMatrix":
        """Encode dict rows; features default to the sorted union of keys."""
        numeric = numeric if numeric is not None else {}
        if features is None:
            names: set[str] = set()
            for row in rows:
                names.update(row)
            features = sorted(names)
        columns = {
            name: FeatureColumn.from_values(
                name, [row.get(name) for row in rows], bool(numeric.get(name, False))
            )
            for name in features
        }
        return cls(columns, len(rows))

    @classmethod
    def from_columns(
        cls,
        values_by_feature: Mapping[str, Sequence[Any]],
        numeric: Mapping[str, bool],
        n_rows: int | None = None,
    ) -> "FeatureMatrix":
        """Encode pre-extracted columns (all must share one row count)."""
        columns: dict[str, FeatureColumn] = {}
        for name, values in values_by_feature.items():
            column = FeatureColumn.from_values(name, values, bool(numeric.get(name, False)))
            if n_rows is None:
                n_rows = len(column)
            elif len(column) != n_rows:
                raise ValueError(
                    f"column {name!r} has {len(column)} rows, expected {n_rows}"
                )
            columns[name] = column
        return cls(columns, n_rows if n_rows is not None else 0)

    @property
    def features(self) -> tuple[str, ...]:
        """Feature names in encoding order."""
        return tuple(self.columns)

    def is_numeric(self, feature: str) -> bool:
        """Whether a feature's column carries threshold candidates."""
        return self.column(feature).numeric

    def column(self, feature: str) -> FeatureColumn:
        """The encoded column for one feature."""
        return self.columns[feature]

    @property
    def gain_table(self) -> list[float]:
        """The shared ``xlog2`` table covering every possible subset count."""
        if self._gain_table is None:
            self._gain_table = build_xlog2_table(self.n_rows)
        return self._gain_table

    @property
    def row_indices(self) -> tuple[int, ...]:
        """``0 .. n_rows - 1`` as one tuple, shared by every column's
        :meth:`~FeatureColumn.order_getter`."""
        if self._row_indices is None:
            self._row_indices = tuple(range(self.n_rows))
        return self._row_indices

    def view(self, indices: Iterable[int] | None = None) -> "MatrixView":
        """A view over a subset of rows (all rows when ``indices`` is None)."""
        if indices is None:
            return MatrixView(self, array("l", range(self.n_rows)), full=True)
        return MatrixView(self, array("l", indices))


class MatrixView:
    """An index subset of a :class:`FeatureMatrix`.

    Views cache, per numeric feature, the subset's row order — produced by
    stably filtering either the parent view's order (when splitting) or the
    column's global order.  No per-node sorting ever happens.  For
    constrained searches a view instead holds its rows as a bitset and,
    for the label vector it was last searched with, its positive rows (a
    narrowed view ANDs both down instead of rebuilding them) and the
    per-row states its threshold sweeps read.
    """

    __slots__ = ("matrix", "indices", "_orders", "_member", "_full", "_bits",
                 "_labels", "_positive", "_states")

    def __init__(
        self,
        matrix: FeatureMatrix,
        indices: array,
        orders: dict[str, Sequence[int]] | None = None,
        full: bool = False,
    ) -> None:
        self.matrix = matrix
        self.indices = indices
        self._orders: dict[str, Sequence[int]] = orders if orders is not None else {}
        self._member: bytearray | None = None
        self._full = full
        self._bits: int | None = None
        #: ``(labels, bitset of labels)`` for the labels last searched with.
        self._labels: tuple[bytearray, int] | None = None
        self._positive: int | None = None
        self._states: bytes | None = None

    def __len__(self) -> int:
        return len(self.indices)

    def _membership(self) -> bytearray:
        if self._member is None:
            member = bytearray(self.matrix.n_rows)
            for index in self.indices:
                member[index] = 1
            self._member = member
        return self._member

    def member_bits(self) -> int:
        """The view's rows as a bitset."""
        if self._bits is None:
            n_rows = self.matrix.n_rows
            self._bits = (1 << n_rows) - 1 if self._full else flags_to_bits(self._membership())
        return self._bits

    def positive_bits(self, labels: bytearray) -> int:
        """The view's rows whose label is truthy, as a bitset."""
        if self._labels is None or self._labels[0] is not labels:
            self._labels = (labels, flags_to_bits(labels))
            self._positive = None
            self._states = None
        if self._positive is None:
            self._positive = self.member_bits() & self._labels[1]
        return self._positive

    def row_states(self, labels: bytearray) -> bytes:
        """Per row: ``0`` outside the view, ``1`` for a negative row of the
        view and ``2`` for a positive one (labels by truthiness)."""
        self.positive_bits(labels)
        if self._states is None:
            states = labels.translate(_LABEL_STATES)
            self._states = states if self._full else bytes(map(mul, self._membership(), states))
        return self._states

    def order_for(self, feature: str) -> Sequence[int]:
        """The subset's rows in ascending numeric order (stable)."""
        cached = self._orders.get(feature)
        if cached is None:
            column = self.matrix.column(feature)
            if self._full:
                cached = column.order
            else:
                member = self._membership()
                cached = array(
                    "l",
                    compress(column.order, map(member.__getitem__, column.order)),
                )
            self._orders[feature] = cached
        return cached

    def best_predicate(
        self,
        feature: str,
        labels: bytearray,
        required_value: Any = _UNCONSTRAINED,
        positives: int | None = None,
    ) -> CandidatePredicate | None:
        """Best predicate for one feature over this view's rows.

        ``positives`` (the view's positive-label count, used by
        unconstrained searches) is the same for every feature — callers
        sweeping many features should compute it once and pass it in.
        """
        column = self.matrix.column(feature)
        table = self.matrix.gain_table
        if required_value is _UNCONSTRAINED:
            order = self.order_for(feature) if column.numeric else _EMPTY_ORDER
            return search_column(column, self.indices, order, labels,
                                 table=table, positives=positives)
        if len(self.indices) == 0:
            return None
        return _search_constrained(
            column, len(self.indices), required_value, table,
            self.member_bits(), self.positive_bits(labels), self.row_states(labels),
            self.matrix.row_indices,
        )

    def narrow(self, keep: bytearray) -> "MatrixView":
        """The sub-view of rows flagged in ``keep``, for constrained searches."""
        indices = array("l", compress(self.indices, map(keep.__getitem__, self.indices)))
        view = MatrixView(self.matrix, indices)
        if self._bits is not None:
            view._bits = self._bits & flags_to_bits(keep)
            if self._labels is not None:
                view._labels = self._labels
                view._positive = view._bits & self._labels[1]
        return view

    def split(self, keep: bytearray) -> "tuple[MatrixView, MatrixView]":
        """Partition into (flagged, unflagged) sub-views, stably."""
        keep_of = keep.__getitem__

        def partition(rows: Sequence[int]) -> tuple[array, array]:
            flags = bytes(map(keep_of, rows))
            inside = array("l", compress(rows, flags))
            outside = array("l", compress(rows, map((1).__sub__, flags)))
            return inside, outside

        left, right = partition(self.indices)
        left_orders: dict[str, array] = {}
        right_orders: dict[str, array] = {}
        for feature, order in self._orders.items():
            left_orders[feature], right_orders[feature] = partition(order)
        return (
            MatrixView(self.matrix, left, left_orders),
            MatrixView(self.matrix, right, right_orders),
        )


def search_column(
    column: FeatureColumn,
    indices: Sequence[int],
    order: Sequence[int],
    labels: bytearray,
    required_value: Any = _UNCONSTRAINED,
    table: Sequence[float] | None = None,
    positives: int | None = None,
) -> CandidatePredicate | None:
    """Best-predicate search over one column restricted to ``indices``.

    The hot path of tree fitting and clause growing: candidate gains are
    computed inline (the arithmetic mirrors
    :meth:`~repro.ml.splits.CandidateSelector.consider` expression by
    expression, so results are bit-identical to the row path), and in the
    unconstrained case ``>`` thresholds are skipped entirely — a ``>``
    candidate induces the same bipartition as its ``<=`` twin at the same
    midpoint, their gains are exactly equal (IEEE addition is commutative),
    and the first-wins tie rule always keeps ``<=``.  With a required value
    the search is :func:`_search_constrained`, which decides the satisfied
    side per midpoint instead, preserving the row path's candidate sequence
    exactly.

    :param column: the encoded feature column.
    :param indices: row indices of the current subset (any order).
    :param order: the subset's threshold-eligible rows in ascending value
        order (ignored for nominal columns and constrained searches, which
        sweep the column's own order).
    :param labels: full-length positive-label bitmap (indexed by row id).
    :param required_value: optional constraint — only predicates satisfied
        by this value are considered.
    :param table: a ``xlog2`` lookup table covering ``0..n_total`` (built
        locally when omitted — callers fitting many subsets should share
        one, e.g. :attr:`FeatureMatrix.gain_table`).
    :returns: the best candidate, or ``None`` when no valid predicate exists.
    """
    n_total = len(indices)
    if n_total == 0:
        return None
    if table is None:
        table = build_xlog2_table(n_total)
    if required_value is not _UNCONSTRAINED:
        flags = bytearray(len(column))
        for index in indices:
            flags[index] = 1
        member = flags_to_bits(flags)
        return _search_constrained(
            column, n_total, required_value, table, member,
            member & flags_to_bits(labels),
            bytes(map(mul, flags, labels.translate(_LABEL_STATES))),
            range(len(column)),
        )

    if column.clean:
        # Clean numeric column: equality buckets coincide with the sorted
        # order's runs, so one fused pass yields both candidate families.
        return _search_clean_numeric(column, indices, order, labels, n_total,
                                     table, positives)

    codes = column.codes
    n_codes = len(column.eq_values)
    pos_total = 0
    # Per-code (count, positives), packed as ``positives << 32 | count`` so
    # the counting pass costs one update per present row.  Small
    # cardinalities use a flat list (no hashing, no per-node sort);
    # high-cardinality columns fall back to a dict over present codes.
    flat = n_codes <= 512 or n_codes <= n_total
    counts: Any = [0] * n_codes if flat else {}
    if flat:
        for index in indices:
            code = codes[index]
            if labels[index]:
                pos_total += 1
                if code >= 0:
                    counts[code] += _PACKED_POSITIVE
            elif code >= 0:
                counts[code] += 1
    else:
        counts_get = counts.get
        for index in indices:
            code = codes[index]
            if labels[index]:
                pos_total += 1
                if code >= 0:
                    counts[code] = counts_get(code, 0) + _PACKED_POSITIVE
            elif code >= 0:
                counts[code] = counts_get(code, 0) + 1

    parent_parts = table[n_total] - table[pos_total] - table[n_total - pos_total]
    tolerance = GAIN_TIE_TOLERANCE
    best_gain = -1.0
    best_operator: str | None = None
    best_constant: Any = None

    # Equality candidates, in canonical value order (deterministic ties).
    eq_values = column.eq_values
    if flat:
        ordered = column.canonical_codes
    else:
        ordered = sorted(counts, key=column.eq_rank.__getitem__)
    for code in ordered:
        packed = counts[code] if flat else counts.get(code, 0)
        if not packed:
            continue
        n_in = packed & _PACKED_COUNT_MASK
        if n_in == n_total:
            continue
        pos_in = packed >> 32
        # Inline gain: same expression tree as CandidateSelector.consider.
        n_out = n_total - n_in
        pos_out = pos_total - pos_in
        parts = parent_parts - (
            (table[n_in] - table[pos_in] - table[n_in - pos_in])
            + (table[n_out] - table[pos_out] - table[n_out - pos_out])
        )
        gain = parts / n_total if parts > 0.0 else 0.0
        if best_operator is None or gain > best_gain + tolerance:
            best_gain = gain
            best_operator = "=="
            best_constant = eq_values[code]

    if not column.numeric or len(order) < 2:
        return _finalize(column.name, best_operator, best_constant, best_gain)

    # ``<=`` candidates over midpoints between consecutive distinct values
    # of the presorted subset (prefix counts, no re-sorting).
    floats = column.floats
    iterator = iter(order)
    first = next(iterator)
    previous = floats[first]
    cumulative_n = 1
    cumulative_pos = labels[first]
    for index in iterator:
        value = floats[index]
        if value != previous:
            threshold = (previous + value) / 2.0
            previous = value
            n_in = cumulative_n
            pos_in = cumulative_pos
            # Inline gain: same expression tree as CandidateSelector.consider.
            n_out = n_total - n_in
            pos_out = pos_total - pos_in
            parts = parent_parts - (
                (table[n_in] - table[pos_in] - table[n_in - pos_in])
                + (table[n_out] - table[pos_out] - table[n_out - pos_out])
            )
            gain = parts / n_total if parts > 0.0 else 0.0
            if best_operator is None or gain > best_gain + tolerance:
                best_gain = gain
                best_operator = "<="
                best_constant = threshold
        if labels[index]:
            cumulative_pos += 1
        cumulative_n += 1

    return _finalize(column.name, best_operator, best_constant, best_gain)


def _is_threshold_value(value: Any) -> bool:
    """Whether a required value can satisfy a threshold at all: non-numeric
    and NaN values satisfy none (``_satisfies`` returns False on
    TypeError)."""
    return isinstance(value, (int, float)) and value == value


def _search_constrained(
    column: FeatureColumn,
    n_total: int,
    required_value: Any,
    table: Sequence[float],
    member: int,
    positive: int,
    states: bytes,
    rows: Sequence[int],
) -> CandidatePredicate | None:
    """The best predicate ``required_value`` satisfies (Algorithm 1's search).

    ``member`` and ``positive`` are the searched rows and their positive
    rows as bitsets, ``states`` the same rows as per-row bytes (see
    :meth:`MatrixView.row_states`), ``n_total`` the number of searched
    rows, ``rows`` the row-index ints the column's order gather is built
    from (see :meth:`FeatureColumn.order_getter`).  Only the required value itself can appear in an equality
    predicate the pair of interest satisfies, so its counts are two
    ``int.bit_count()`` calls over the column's cached bitset for that
    value.  Thresholds sweep the searched rows' runs of equal values in
    ascending order (:func:`_present_runs`); the required value fixes
    which side of every midpoint is usable.

    The winner carries ``counts`` — its (matching, positive) rows — when
    they are exactly the rows ``satisfied_by`` accepts: always for ``==``
    (codes are assigned under dict equality, the relation ``==``
    evaluates); for ``<=`` and ``>`` only on clean columns and only when
    the midpoint lies strictly between the two runs it separates (a
    midpoint that rounds onto a run, or overflows to infinity, moves rows
    across the threshold); for ``>`` only when every searched row is
    threshold-eligible (the suffix count includes missing rows, which
    satisfy nothing).
    """
    if required_value is None:
        return None
    pos_total = positive.bit_count()
    parent_parts = table[n_total] - table[pos_total] - table[n_total - pos_total]
    tolerance = GAIN_TIE_TOLERANCE
    best_gain = -1.0
    best_operator: str | None = None
    best_constant: Any = None
    best_counts: tuple[int, int] | None = None

    # An absent value would create a degenerate partition and is skipped;
    # ``required == required`` filters NaN, which satisfies no equality.
    try:
        code = column.code_of.get(required_value, -1)
    except TypeError:  # unhashable required value: never stored
        code = -1
    if code >= 0 and required_value == required_value:
        bits = column.code_bits(code)
        n_in = (member & bits).bit_count()
        if n_in and n_in != n_total:
            pos_in = (positive & bits).bit_count()
            # Inline gain: same expression tree as CandidateSelector.consider.
            n_out = n_total - n_in
            pos_out = pos_total - pos_in
            parts = parent_parts - (
                (table[n_in] - table[pos_in] - table[n_in - pos_in])
                + (table[n_out] - table[pos_out] - table[n_out - pos_out])
            )
            best_gain = parts / n_total if parts > 0.0 else 0.0
            best_operator = "=="
            best_constant = required_value
            best_counts = (n_in, pos_in)

    if not column.numeric or not _is_threshold_value(required_value):
        return _finalize(column.name, best_operator, best_constant, best_gain,
                         best_counts)

    # Midpoints between consecutive runs: ``n_below``/``pos_below`` count
    # the rows (and positives) of every run before the current one.
    n_below = pos_below = 0
    low = 0.0
    for high, n_run, pos_run in _present_runs(column, states, rows):
        if n_below:
            threshold = (low + high) / 2.0
            if required_value <= threshold:
                n_in = n_below
                pos_in = pos_below
                operator = "<="
            else:
                # The suffix is the complement of the prefix (see module docs).
                n_in = n_total - n_below
                pos_in = pos_total - pos_below
                operator = ">"
            # Inline gain: same expression tree as CandidateSelector.consider.
            n_out = n_total - n_in
            pos_out = pos_total - pos_in
            parts = parent_parts - (
                (table[n_in] - table[pos_in] - table[n_in - pos_in])
                + (table[n_out] - table[pos_out] - table[n_out - pos_out])
            )
            gain = parts / n_total if parts > 0.0 else 0.0
            if best_operator is None or gain > best_gain + tolerance:
                best_gain = gain
                best_operator = operator
                best_constant = threshold
                best_counts = (n_in, pos_in) if low < threshold < high else None
        n_below += n_run
        pos_below += pos_run
        low = high
    if best_counts is not None and best_operator != "==":
        # Threshold counts are the satisfied rows only on clean columns, and
        # a ``>`` suffix only when every searched row is in some run.
        if not column.clean or (best_operator == ">" and n_below != n_total):
            best_counts = None
    return _finalize(column.name, best_operator, best_constant, best_gain, best_counts)


def _present_runs(
    column: FeatureColumn, states: bytes, rows: Sequence[int]
) -> Iterator[tuple[float, int, int]]:
    """``(value, rows, positive rows)`` of each distinct threshold-eligible
    value among the searched rows, in ascending order.

    The column's cached ``itemgetter`` (:meth:`FeatureColumn.order_getter`)
    gathers the searched rows' states (see :meth:`MatrixView.row_states`)
    in the column's presorted order at C level; each of the column's runs
    is then counted with ``bytes.count``.  A column with fewer than two
    eligible rows has no midpoint, so it yields nothing.
    """
    if len(column.order) < 2:
        return
    in_order = bytes(column.order_getter(rows)(states))
    values, bounds = column.runs()
    for value, start, end in zip(values, bounds, islice(bounds, 1, None)):
        pos_run = in_order.count(2, start, end)
        n_run = in_order.count(1, start, end) + pos_run
        if n_run:
            yield value, n_run, pos_run


#: Packed per-code counters: positives in the high bits, count in the low.
_PACKED_POSITIVE = (1 << 32) + 1
_PACKED_COUNT_MASK = (1 << 32) - 1


def _search_clean_numeric(
    column: FeatureColumn,
    indices: Sequence[int],
    order: Sequence[int],
    labels: bytearray,
    n_total: int,
    table: Sequence[float],
    positives: int | None = None,
) -> CandidatePredicate | None:
    """Fused unconstrained search over a clean numeric column.

    Every present value is threshold-eligible, so the presorted subset
    order enumerates the equality buckets as runs of equal values — in
    ascending order, which for numbers *is* the canonical candidate order.
    One C-level pass builds the value and prefix-positive lists; a C-level
    adjacent compare finds the run boundaries; equality candidates then
    thresholds are evaluated from the prefix sums via ``xlog2`` table
    lookups, preserving the general path's candidate sequence (and
    bit-identical gains) exactly.
    """
    label_of = labels.__getitem__
    pos_total = sum(map(label_of, indices)) if positives is None else positives
    n_present = len(order)
    if n_present == 0:
        return None
    parent_parts = table[n_total] - table[pos_total] - table[n_total - pos_total]
    tolerance = GAIN_TIE_TOLERANCE
    best_gain = -1.0
    best_operator: str | None = None
    best_constant: Any = None

    values = list(map(column.floats.__getitem__, order))
    prefix = list(accumulate(map(label_of, order)))
    # Positions where a new run of equal values starts (C-level adjacent
    # compare: values[i] != values[i+1] marks position i+1 as a boundary).
    bounds = list(
        compress(range(1, n_present), map(ne, values, islice(values, 1, None)))
    )

    # Equality candidates: one per run, ascending (canonical) order.  The
    # constant is the run's *raw* value (not its float image), so an
    # integer column yields ``== 3`` here just like the general path.
    raw = column.raw
    start = 0
    for end in bounds + [n_present]:
        n_in = end - start
        if n_in != n_total:
            pos_in = prefix[end - 1] - (prefix[start - 1] if start else 0)
            # Inline gain: same expression tree as CandidateSelector.consider.
            n_out = n_total - n_in
            pos_out = pos_total - pos_in
            parts = parent_parts - (
                (table[n_in] - table[pos_in] - table[n_in - pos_in])
                + (table[n_out] - table[pos_out] - table[n_out - pos_out])
            )
            gain = parts / n_total if parts > 0.0 else 0.0
            if best_operator is None or gain > best_gain + tolerance:
                best_gain = gain
                best_operator = "=="
                best_constant = raw[order[start]]
        start = end

    # Threshold candidates at every run boundary, ascending.  ``>`` twins
    # are skipped: same bipartition, exactly equal gain, ``<=`` wins the
    # first-wins tie (see search_column).
    for bound in bounds:
        n_in = bound
        pos_in = prefix[bound - 1]
        threshold = (values[bound - 1] + values[bound]) / 2.0
        # Inline gain: same expression tree as CandidateSelector.consider.
        n_out = n_total - n_in
        pos_out = pos_total - pos_in
        parts = parent_parts - (
            (table[n_in] - table[pos_in] - table[n_in - pos_in])
            + (table[n_out] - table[pos_out] - table[n_out - pos_out])
        )
        gain = parts / n_total if parts > 0.0 else 0.0
        if best_operator is None or gain > best_gain + tolerance:
            best_gain = gain
            best_operator = "<="
            best_constant = threshold

    return _finalize(column.name, best_operator, best_constant, best_gain)


def _finalize(
    feature: str,
    operator: str | None,
    constant: Any,
    gain: float,
    counts: tuple[int, int] | None = None,
) -> CandidatePredicate | None:
    if operator is None:
        return None
    return CandidatePredicate(feature, operator, constant, gain, counts)

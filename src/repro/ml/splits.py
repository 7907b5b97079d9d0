"""Best-predicate search per feature (the C4.5-style building block).

Given one feature column (with possible missing values), binary labels and
optionally a *required value* (the value the pair of interest has — any
predicate that the pair of interest does not satisfy is useless for an
explanation), this module finds the atomic predicate ``feature op constant``
with the highest information gain.

* nominal features: only equality predicates are considered (as in the
  paper);
* numeric features: equality plus threshold predicates (``<=`` and ``>``)
  over midpoints between consecutive distinct values;
* missing values never satisfy a predicate (the same semantics the PXQL
  evaluator uses), so they always fall in the "outside" partition.

:func:`best_predicate_for_feature` is a thin row-oriented adapter kept for
callers that hold plain value lists; the search itself runs on the columnar
encoding of :mod:`repro.ml.matrix`, which pre-sorts every numeric column
once and sweeps thresholds with prefix counts over index subsets.

Tie-breaking is explicit and deterministic.  Candidates are always
considered in a canonical order — equality predicates first (constants in
:func:`canonical_value_key` order), then thresholds in ascending midpoint
order with ``<=`` before ``>`` — and a candidate only replaces the
incumbent when its gain exceeds it by more than :data:`GAIN_TIE_TOLERANCE`.
Within a gain tie the earliest candidate in canonical order therefore wins,
independent of row order.  :func:`prefer_candidate` applies the same policy
across features: gain first, then feature name, then operator rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

#: Sentinel meaning "no required value constraint".
_UNCONSTRAINED = object()

#: Operators candidate predicates may use.
NOMINAL_OPERATORS = ("==",)
NUMERIC_OPERATORS = ("==", "<=", ">")

#: Gains closer than this are considered tied and broken deterministically.
GAIN_TIE_TOLERANCE = 1e-12

#: Deterministic preference order between operators on a gain tie:
#: equality is the most readable, then the two threshold directions.
OPERATOR_RANK = {"==": 0, "<=": 1, ">": 2, "!=": 3, "<": 4, ">=": 5}


@dataclass(frozen=True)
class CandidatePredicate:
    """An atomic predicate over one feature, with its information gain.

    ``counts`` is ``(matching, positive)``: how many of the searched rows
    satisfy the predicate, and how many of those are positive — set only
    when the search's own counts are exactly the rows :meth:`satisfied_by`
    accepts, so a consumer may use them instead of recounting.  It takes
    no part in equality.
    """

    feature: str
    operator: str
    value: Any
    gain: float
    counts: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def satisfied_by(self, value: Any) -> bool:
        """Whether a feature value satisfies this predicate (missing -> False)."""
        return _satisfies(value, self.operator, self.value)


def _satisfies(value: Any, operator: str, constant: Any) -> bool:
    if value is None:
        return False
    if operator == "==":
        return value == constant
    if operator == "!=":
        return value != constant
    try:
        if operator == "<=":
            return value <= constant
        if operator == "<":
            return value < constant
        if operator == ">=":
            return value >= constant
        if operator == ">":
            return value > constant
    except TypeError:
        return False
    raise ValueError(f"unknown operator: {operator!r}")


def xlog2(count: int) -> float:
    """``k * log2(k)`` (0 for ``k <= 0``): the gain formula's building block.

    All information gains are computed as
    ``(parts(n, pos) - parts(n_in, pos_in) - parts(n_out, pos_out)) / n``
    with ``parts(n, p) = xlog2(n) - xlog2(p) - xlog2(n - p)`` — an exact
    rewrite of "parent entropy minus size-weighted partition entropies"
    whose terms depend only on integer counts.  The columnar fast path
    tabulates ``xlog2`` once per fit and turns every candidate's gain into
    a handful of table lookups; because both paths evaluate the identical
    expression tree, their gains agree bit for bit.
    """
    if count <= 0:
        return 0.0
    return count * math.log2(count)


def build_xlog2_table(n: int) -> list[float]:
    """``[xlog2(0), ..., xlog2(n)]`` — entry ``k`` equals ``xlog2(k)`` exactly."""
    table = [0.0] * (n + 1)
    log2 = math.log2
    for count in range(1, n + 1):
        table[count] = count * log2(count)
    return table


def group_parts(n: int, positives: int) -> float:
    """``xlog2(n) - xlog2(pos) - xlog2(n - pos)``: one group's entropy times n."""
    return xlog2(n) - xlog2(positives) - xlog2(n - positives)


def canonical_value_key(value: Any):
    """A total, row-order-independent sort key over mixed feature values.

    Numbers (including bools — ``True == 1``) are keyed by their float
    value, so values that compare equal across types share one key no
    matter which representative was seen first.  Everything else is grouped
    by type name, so incomparable types never meet; within a type ``repr``
    gives a stable order.  Only *determinism* matters here — the key fixes
    which equality constant wins a gain tie, regardless of the order rows
    arrived in.
    """
    if isinstance(value, (bool, int, float)):
        as_float = float(value)
        if not math.isnan(as_float):
            return ("0num", as_float)
        return ("0nan", repr(value))
    return (type(value).__name__, repr(value))


def prefer_candidate(
    candidate: CandidatePredicate, incumbent: CandidatePredicate | None
) -> bool:
    """Whether ``candidate`` should replace ``incumbent`` across features.

    The explicit tie-break policy: higher gain wins; gains within
    :data:`GAIN_TIE_TOLERANCE` are broken by feature name, then operator
    rank.  Keeping this in one place makes the tree's split selection
    deterministic instead of an accident of iteration order.
    """
    if incumbent is None:
        return True
    if candidate.gain > incumbent.gain + GAIN_TIE_TOLERANCE:
        return True
    if incumbent.gain > candidate.gain + GAIN_TIE_TOLERANCE:
        return False
    if candidate.feature != incumbent.feature:
        return candidate.feature < incumbent.feature
    return OPERATOR_RANK.get(candidate.operator, 99) < OPERATOR_RANK.get(
        incumbent.operator, 99
    )


class CandidateSelector:
    """Accumulates candidate predicates for one feature, keeping the best.

    Candidates must be offered in canonical order (equality constants in
    :func:`canonical_value_key` order, then thresholds ascending with ``<=``
    before ``>``); the first candidate within a gain tie then wins, which
    makes the result invariant under row permutation.
    """

    __slots__ = ("feature", "n_total", "pos_total", "parent_parts",
                 "constrained", "required_value", "best")

    def __init__(
        self,
        feature: str,
        n_total: int,
        pos_total: int,
        constrained: bool,
        required_value: Any,
    ) -> None:
        self.feature = feature
        self.n_total = n_total
        self.pos_total = pos_total
        self.parent_parts = group_parts(n_total, pos_total)
        self.constrained = constrained
        self.required_value = required_value
        self.best: CandidatePredicate | None = None

    def consider(self, operator: str, constant: Any, pos_in: int, n_in: int) -> None:
        """Offer one candidate; degenerate or constraint-violating ones are skipped."""
        if n_in == 0 or n_in == self.n_total:
            return
        if self.constrained and not _satisfies(self.required_value, operator, constant):
            return
        n_out = self.n_total - n_in
        pos_out = self.pos_total - pos_in
        # ``parent - (in + out)``: the commutative inner sum keeps the gain
        # of a ``>`` threshold bitwise equal to its ``<=`` twin's.
        parts = self.parent_parts - (
            group_parts(n_in, pos_in) + group_parts(n_out, pos_out)
        )
        gain = parts / self.n_total if parts > 0.0 else 0.0
        if self.best is None or gain > self.best.gain + GAIN_TIE_TOLERANCE:
            self.best = CandidatePredicate(self.feature, operator, constant, gain)


def best_predicate_for_feature(
    feature: str,
    values: Sequence[Any],
    labels: Sequence[bool],
    numeric: bool,
    required_value: Any = _UNCONSTRAINED,
) -> CandidatePredicate | None:
    """The highest-information-gain predicate for one feature.

    This is the row-oriented adapter: it encodes the column once (via
    :class:`repro.ml.matrix.FeatureColumn`) and delegates to the columnar
    search, so callers holding plain value lists get identical results to
    callers operating on a :class:`~repro.ml.matrix.FeatureMatrix`.

    :param feature: feature name (copied into the result).
    :param values: feature value per example (``None`` = missing).
    :param labels: ``True`` for positive examples.
    :param numeric: whether the feature is numeric (enables thresholds).
    :param required_value: if given, only predicates satisfied by this value
        are considered (and a missing required value rules out the feature
        entirely).
    :returns: the best candidate, or ``None`` when no valid predicate exists
        (e.g. all values missing, or the required value is missing).
    """
    from repro.ml.matrix import FeatureColumn, search_column

    if len(values) != len(labels):
        raise ValueError("values and labels must have the same length")
    if required_value is not _UNCONSTRAINED and required_value is None:
        return None
    if not values:
        return None

    column = FeatureColumn.from_values(feature, values, numeric)
    label_bits = bytearray(1 if label else 0 for label in labels)
    return search_column(
        column,
        indices=range(len(values)),
        order=column.order,
        labels=label_bits,
        required_value=required_value,
    )


#: Re-exported for the columnar module (kept private-by-convention here).
__all__ = [
    "CandidatePredicate",
    "CandidateSelector",
    "GAIN_TIE_TOLERANCE",
    "NOMINAL_OPERATORS",
    "NUMERIC_OPERATORS",
    "OPERATOR_RANK",
    "best_predicate_for_feature",
    "canonical_value_key",
    "prefer_candidate",
]

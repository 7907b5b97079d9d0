"""Pair (training-example) features — Table 1 of the paper.

A training example is a *pair* of executions.  For every raw feature ``f``
of a single execution, the pair gets up to four derived features:

==============  =====================================================
``f_isSame``    ``"T"`` / ``"F"`` — do the two executions agree on f?
``f_compare``   ``"LT"`` / ``"SIM"`` / ``"GT"`` — numeric features only
``f_diff``      ``"(v1, v2)"`` — nominal features only
``f``           the shared value, copied only when both agree
==============  =====================================================

``compare`` uses the paper's 10%-similarity rule.  ``isSame`` for numeric
features uses a small tolerance (default 2%): on real clusters two
co-scheduled tasks share the exact same Ganglia samples and therefore have
*identical* metric averages, whereas the simulator's samples carry
measurement noise; the tolerance restores the "same machine state" meaning
the paper's ``isSame`` features have (documented in DESIGN.md).

Missing raw values propagate: if either side is missing, every derived
feature of ``f`` is missing.  NaN raw values behave like any non-equal
value under ``==`` (``NaN != NaN``), so a NaN side can never produce
``isSame = "T"`` — which is why despite-clause blocking
(:func:`repro.core.pairkernel.blocking_group_indices` and the reference's
record grouping) drops records whose blocked raw value is missing *or*
NaN: neither can ever join an ``isSame = T`` group, and dropping them
keeps grouping independent of NaN object identity (a requirement for
chunked blocks, whose spilled chunks are pickle round-tripped).

The functions here define the *scalar* semantics and serve the reference
path (``tests/oracles/pairref.py``) plus the one pair a caller holds: the
pair of interest every technique derives, and ``PerfXplain.pair_features``
(a one-pair kernel context costs about ten times as much per vector).
Bulk derivation over many candidate pairs runs column-at-a-time in
:mod:`repro.core.pairkernel`, whose outputs the differential suite pins to
these definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.features import (
    PERFORMANCE_METRIC,
    FeatureLevel,
    FeatureSchema,
)
from repro.exceptions import ConfigurationError
from repro.logs.records import ExecutionRecord, FeatureValue

#: Suffixes of the derived pair features.
IS_SAME_SUFFIX = "_isSame"
COMPARE_SUFFIX = "_compare"
DIFF_SUFFIX = "_diff"

#: Values of the derived nominal features.
SAME = "T"
NOT_SAME = "F"
LESS_THAN = "LT"
SIMILAR = "SIM"
GREATER_THAN = "GT"


@dataclass(frozen=True)
class PairFeatureConfig:
    """Tunables of the pair-feature encoding.

    :param sim_threshold: two numeric values are ``SIM`` when within this
        relative fraction of one another (the paper uses 10%).
    :param is_same_tolerance: relative tolerance under which two numeric
        values count as "the same" for ``isSame`` features.
    :param level: which feature level to emit (Section 6.8).
    """

    sim_threshold: float = 0.10
    is_same_tolerance: float = 0.02
    level: FeatureLevel = FeatureLevel.FULL

    def __post_init__(self) -> None:
        if not 0.0 < self.sim_threshold < 1.0:
            raise ConfigurationError("sim_threshold must be in (0, 1)")
        if not 0.0 <= self.is_same_tolerance < 1.0:
            raise ConfigurationError("is_same_tolerance must be in [0, 1)")


DEFAULT_PAIR_CONFIG = PairFeatureConfig()


def relative_close(a: float, b: float, threshold: float) -> bool:
    """Whether two numbers are within ``threshold`` of one another.

    The paper's rule: "two values are considered to be similar if they are
    within 10% of one another".  Interpreted symmetrically:
    ``|a - b| <= threshold * max(|a|, |b|)``; two zeros are always close.
    """
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    if scale == 0:
        return True
    return abs(a - b) <= threshold * scale


def compare_values(a: float, b: float, threshold: float) -> str:
    """``LT`` / ``SIM`` / ``GT`` comparison of the first value to the second."""
    if relative_close(a, b, threshold):
        return SIMILAR
    return LESS_THAN if a < b else GREATER_THAN


def _is_numeric_value(value: FeatureValue) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _raw_value(record: ExecutionRecord, feature: str) -> FeatureValue:
    if feature == PERFORMANCE_METRIC:
        return record.duration
    return record.features.get(feature)


def compute_pair_feature(
    feature: str,
    first: ExecutionRecord,
    second: ExecutionRecord,
    schema: FeatureSchema,
    config: PairFeatureConfig = DEFAULT_PAIR_CONFIG,
) -> dict[str, FeatureValue]:
    """Derived features of a single raw feature for one pair of records."""
    numeric = schema.is_numeric(feature)
    value_a = _raw_value(first, feature)
    value_b = _raw_value(second, feature)
    derived: dict[str, FeatureValue] = {}

    missing = value_a is None or value_b is None
    both_numeric = _is_numeric_value(value_a) and _is_numeric_value(value_b)

    # isSame
    if missing:
        is_same: FeatureValue = None
    elif numeric and both_numeric:
        is_same = SAME if relative_close(float(value_a), float(value_b),
                                         config.is_same_tolerance) else NOT_SAME
    else:
        is_same = SAME if value_a == value_b else NOT_SAME
    derived[feature + IS_SAME_SUFFIX] = is_same

    # compare (numeric only)
    if config.level >= FeatureLevel.COMPARISON:
        if numeric:
            if missing or not both_numeric:
                derived[feature + COMPARE_SUFFIX] = None
            else:
                derived[feature + COMPARE_SUFFIX] = compare_values(
                    float(value_a), float(value_b), config.sim_threshold
                )
        else:
            derived[feature + COMPARE_SUFFIX] = None

        # diff (nominal only)
        if numeric:
            derived[feature + DIFF_SUFFIX] = None
        elif missing:
            derived[feature + DIFF_SUFFIX] = None
        else:
            derived[feature + DIFF_SUFFIX] = f"({value_a}, {value_b})"

    # base feature, copied only when the two executions agree exactly
    if config.level >= FeatureLevel.FULL:
        if not missing and value_a == value_b:
            derived[feature] = value_a
        else:
            derived[feature] = None

    return derived


def compute_pair_features(
    first: ExecutionRecord,
    second: ExecutionRecord,
    schema: FeatureSchema,
    config: PairFeatureConfig = DEFAULT_PAIR_CONFIG,
    features: list[str] | None = None,
) -> dict[str, FeatureValue]:
    """The full pair feature vector for (first, second).

    :param features: restrict to these raw features (used for the lazy
        evaluation of query predicates over many candidate pairs).
    """
    names = features if features is not None else schema.names()
    vector: dict[str, FeatureValue] = {}
    for feature in names:
        vector.update(compute_pair_feature(feature, first, second, schema, config))
    return vector


def pair_feature_catalog(
    schema: FeatureSchema,
    config: PairFeatureConfig = DEFAULT_PAIR_CONFIG,
    exclude_performance: bool = True,
) -> dict[str, bool]:
    """All pair feature names mapped to "is numeric".

    Only base features of numeric raw features are numeric; every derived
    ``isSame`` / ``compare`` / ``diff`` feature is nominal.  Features derived
    from the performance metric (``duration``) are excluded by default —
    they are what explanations must explain, not what they may mention.
    """
    catalog: dict[str, bool] = {}
    for feature in schema.names():
        if exclude_performance and feature == PERFORMANCE_METRIC:
            continue
        numeric = schema.is_numeric(feature)
        catalog[feature + IS_SAME_SUFFIX] = False
        if config.level >= FeatureLevel.COMPARISON:
            if numeric:
                catalog[feature + COMPARE_SUFFIX] = False
            else:
                catalog[feature + DIFF_SUFFIX] = False
        if config.level >= FeatureLevel.FULL:
            catalog[feature] = numeric
    return catalog


def raw_feature_of(pair_feature: str) -> str:
    """The raw feature a pair feature was derived from.

    >>> raw_feature_of("inputsize_compare")
    'inputsize'
    >>> raw_feature_of("blocksize")
    'blocksize'
    """
    for suffix in (IS_SAME_SUFFIX, COMPARE_SUFFIX, DIFF_SUFFIX):
        if pair_feature.endswith(suffix):
            return pair_feature[: -len(suffix)]
    return pair_feature

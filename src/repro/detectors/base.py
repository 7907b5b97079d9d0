"""The deterministic rule-based detector framework.

A detector is an explanation technique whose because clause comes from a
hand-written performance rule (Herodotou-style threshold models) instead
of a learned decision tree.  Each concrete detector contributes
*findings* — candidate because-atoms with a score and the threshold
evidence that justifies them — and this base class turns findings into
the standard :class:`~repro.core.explanation.Explanation` objects every
other technique emits:

1. bind the query's pair of interest and compute its pair-feature vector;
2. ask the subclass for findings (:meth:`RuleBasedDetector.findings`);
3. keep only findings whose atom actually holds on the pair (Definition 3
   requires the because clause to apply to the pair of interest);
4. order them deterministically (score descending, then feature name) and
   keep the top ``width``;
5. score the three quality metrics over the query's training examples and
   attach the merged rule evidence to the metrics.

Everything is deterministic by construction: no unordered iteration
reaches the output, and metric sampling always uses a fresh seeded
generator — the same log and query produce bit-identical explanations,
which the detector test suite asserts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.examples import (
    TrainingMatrix,
    construct_training_matrix,
    find_record,
    records_for_query,
)
from repro.core.explanation import (
    Explanation,
    ExplanationMetrics,
    evaluate_explanation,
)
from repro.core.features import FeatureSchema, infer_schema
from repro.core.pairs import (
    COMPARE_SUFFIX,
    GREATER_THAN,
    LESS_THAN,
    PairFeatureConfig,
    SIMILAR,
    compute_pair_features,
)
from repro.core.pxql.ast import Comparison, Predicate, TRUE_PREDICATE
from repro.core.pxql.query import PXQLQuery
from repro.exceptions import ExplanationError
from repro.logs.records import ExecutionRecord, FeatureValue
from repro.logs.store import ExecutionLog

#: Default because-clause width when the caller does not pass one.
DEFAULT_DETECTOR_WIDTH = 3


@dataclass(frozen=True)
class Finding:
    """One candidate because-atom a rule produced, with its justification.

    :param atom: the pair-feature comparison to put in the because clause.
    :param score: ranking weight (higher = cited earlier); ties break on
        the atom's feature name so ordering never depends on rule order.
    :param evidence: ``(name, value)`` threshold measurements backing the
        finding, merged into the explanation metrics' evidence.
    """

    atom: Comparison
    score: float
    evidence: tuple[tuple[str, float], ...] = ()


class RuleBasedDetector:
    """Shared driver for the deterministic detectors (see module docs).

    Subclasses set ``name``/``technique`` and implement :meth:`findings`;
    ``default_query`` is the canonical unbound PXQL text the CLI ``detect``
    subcommand uses when the user supplies no query.
    """

    #: The registry key; also stamped as ``Explanation.technique``, so a
    #: wire response names exactly the technique that produced it.
    name = "detect-base"
    default_query = ""

    def __init__(self, pair_config: PairFeatureConfig | None = None) -> None:
        self.pair_config = (
            pair_config if pair_config is not None else PairFeatureConfig()
        )

    # ------------------------------------------------------------------ #
    # the Explainer protocol
    # ------------------------------------------------------------------ #

    def explain(
        self,
        log: ExecutionLog,
        query: PXQLQuery,
        schema: FeatureSchema | None = None,
        width: int | None = None,
        examples: TrainingMatrix | None = None,
    ) -> Explanation:
        """Run the detector's rules against the query's pair of interest.

        :raises ExplanationError: when the query has no pair, or when no
            rule fires (the pathology this detector knows is not present
            in the pair) — detectors never fabricate an explanation.
        """
        if not query.has_pair:
            raise ExplanationError("the query must be bound to a pair of interest")
        width = width if width is not None else DEFAULT_DETECTOR_WIDTH
        records = records_for_query(log, query)
        schema = schema if schema is not None else infer_schema(records)
        first = find_record(log, query, query.first_id)
        second = find_record(log, query, query.second_id)
        pair_values = compute_pair_features(first, second, schema, self.pair_config)

        findings = self.findings(log, query, schema, first, second, pair_values)
        applicable = _select(findings, pair_values, width)
        if not applicable:
            raise ExplanationError(
                f"{self.name}: no rule fired for this pair — the pathology "
                "this detector recognises is not evident in the log"
            )
        because = Predicate.conjunction([finding.atom for finding in applicable])
        explanation = Explanation(
            because=because, despite=TRUE_PREDICATE, technique=self.name
        )
        if examples is None:
            examples = construct_training_matrix(
                log, query, schema, config=self.pair_config, rng=random.Random(0)
            )
        if examples:
            metrics = evaluate_explanation(explanation, examples)
        else:
            metrics = ExplanationMetrics(
                relevance=0.0, precision=0.0, generality=0.0, support=0
            )
        evidence: dict[str, float] = {}
        for finding in applicable:
            evidence.update(finding.evidence)
        return explanation.with_metrics(metrics.with_evidence(evidence))

    # ------------------------------------------------------------------ #
    # the rule interface
    # ------------------------------------------------------------------ #

    def findings(
        self,
        log: ExecutionLog,
        query: PXQLQuery,
        schema: FeatureSchema,
        first: ExecutionRecord,
        second: ExecutionRecord,
        pair_values: Mapping[str, FeatureValue],
    ) -> list[Finding]:
        """Candidate because-atoms for this pair; empty when nothing fires."""
        raise NotImplementedError


def _select(
    findings: Sequence[Finding],
    pair_values: Mapping[str, FeatureValue],
    width: int,
) -> list[Finding]:
    """Applicable findings, deterministically ordered and deduplicated."""
    applicable = [f for f in findings if f.atom.evaluate(pair_values)]
    applicable.sort(key=lambda f: (-f.score, f.atom.feature))
    selected: list[Finding] = []
    seen: set[str] = set()
    for finding in applicable:
        if finding.atom.feature in seen:
            continue
        seen.add(finding.atom.feature)
        selected.append(finding)
        if len(selected) >= width:
            break
    return selected


# --------------------------------------------------------------------- #
# shared rule helpers
# --------------------------------------------------------------------- #


def duration_direction(pair_values: Mapping[str, FeatureValue]) -> str | None:
    """The pair's ``duration_compare`` value (GT/LT/SIM), if computable."""
    value = pair_values.get("duration" + COMPARE_SUFFIX)
    if value in (GREATER_THAN, LESS_THAN, SIMILAR):
        return str(value)
    return None


def invert_direction(direction: str) -> str:
    """GT <-> LT (SIM is its own inverse)."""
    if direction == GREATER_THAN:
        return LESS_THAN
    if direction == LESS_THAN:
        return GREATER_THAN
    return direction


def slower_faster(
    first: ExecutionRecord, second: ExecutionRecord, direction: str
) -> tuple[ExecutionRecord, ExecutionRecord]:
    """(slower, faster) according to the pair's duration direction."""
    if direction == LESS_THAN:
        return second, first
    return first, second


def numeric_feature(record: ExecutionRecord, feature: str) -> float | None:
    """A record's numeric raw-feature value, or ``None``."""
    value = record.features.get(feature)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def relative_difference(a: float | None, b: float | None) -> float:
    """``|a - b| / max(|a|, |b|)`` — the default finding score."""
    if a is None or b is None:
        return 0.0
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


def median(values: Sequence[float]) -> float | None:
    """The median of a non-empty sequence (``None`` when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0

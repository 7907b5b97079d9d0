"""The SimButDiff baseline (Section 5.2, Algorithm 2).

SimButDiff works only with the binary ``isSame`` features.  It finds the
training examples that are similar to the pair of interest (agree on at
least a fraction ``s`` of the isSame features), then scores each feature by
a what-if analysis: among the similar pairs that *disagree* with the pair of
interest on the feature, what fraction performed as expected?  The
explanation is the conjunction ``feature = <pair's value>`` of the top-w
scoring features.
"""

from __future__ import annotations

import random
from operator import add

from repro.core.examples import (
    TrainingExample,
    TrainingMatrix,
    construct_training_matrix,
    find_record,
    records_for_query,
)
from repro.core.explanation import Explanation, evaluate_explanation
from repro.core.features import PERFORMANCE_METRIC, FeatureSchema, infer_schema
from repro.core.pairs import (
    IS_SAME_SUFFIX,
    PairFeatureConfig,
    compute_pair_features,
    raw_feature_of,
)
from repro.core.pxql.ast import Comparison, Operator, Predicate, TRUE_PREDICATE
from repro.core.pxql.query import PXQLQuery
from repro.core.registry import register_explainer
from repro.exceptions import ConfigurationError, ExplanationError
from repro.logs.store import ExecutionLog


@register_explainer("simbutdiff", override=True)
class SimButDiffExplainer:
    """What-if analysis over the isSame features of similar pairs."""

    name = "SimButDiff"

    def __init__(
        self,
        similarity_threshold: float = 0.9,
        pair_config: PairFeatureConfig | None = None,
        sample_size: int = 2000,
        rng: random.Random | None = None,
    ) -> None:
        if not 0.0 < similarity_threshold <= 1.0:
            raise ConfigurationError("similarity_threshold must be in (0, 1]")
        self.similarity_threshold = similarity_threshold
        self.pair_config = pair_config if pair_config is not None else PairFeatureConfig()
        self.sample_size = sample_size
        self._rng = rng if rng is not None else random.Random(0)

    def explain(
        self,
        log: ExecutionLog,
        query: PXQLQuery,
        schema: FeatureSchema | None = None,
        width: int | None = None,
        auto_despite: bool = False,
        examples: "list[TrainingExample] | TrainingMatrix | None" = None,
    ) -> Explanation:
        """Generate a width-``width`` explanation via Algorithm 2.

        ``auto_despite`` is accepted for interface compatibility and ignored.
        Precomputed training ``examples`` (from the session layer) replace
        the internal related-pair enumeration.
        """
        if not query.has_pair:
            raise ExplanationError("the query must be bound to a pair of interest")
        width = width if width is not None else 3
        records = records_for_query(log, query)
        schema = schema if schema is not None else infer_schema(records)
        first = find_record(log, query, query.first_id)
        second = find_record(log, query, query.second_id)
        pair_values = compute_pair_features(first, second, schema, self.pair_config)

        if examples is None:
            examples = construct_training_matrix(
                log, query, schema,
                config=self.pair_config,
                sample_size=self.sample_size,
                rng=self._rng,
            )
        matrix = TrainingMatrix.of(examples)
        is_same_features = sorted(
            name
            for name in pair_values
            if name.endswith(IS_SAME_SUFFIX)
            and raw_feature_of(name) != PERFORMANCE_METRIC
        )

        similar = self._similar_examples(matrix, pair_values, is_same_features)
        scores = self._feature_scores(matrix, similar, pair_values, is_same_features)

        atoms: list[Comparison] = []
        for feature, _ in scores:
            if len(atoms) >= width:
                break
            value = pair_values.get(feature)
            if value is None:
                continue
            atoms.append(Comparison(feature, Operator.EQ, value))
        because = Predicate.conjunction(atoms)

        explanation = Explanation(
            because=because, despite=TRUE_PREDICATE, technique=self.name
        )
        if matrix:
            explanation = explanation.with_metrics(
                evaluate_explanation(explanation, matrix)
            )
        return explanation

    # ------------------------------------------------------------------ #
    # Algorithm 2 internals
    # ------------------------------------------------------------------ #

    def _similar_examples(
        self,
        matrix: TrainingMatrix,
        pair_values: dict,
        is_same_features: list[str],
    ) -> list[int]:
        """Rows that agree with the pair of interest on >= s of the features."""
        if not is_same_features:
            return list(range(len(matrix)))
        needed = self.similarity_threshold * len(is_same_features)
        agreements = [0] * len(matrix)
        for feature in is_same_features:
            pair_value = pair_values.get(feature)
            agree = [
                value is not None and value == pair_value
                for value in matrix.values(feature)
            ]
            agreements = list(map(add, agreements, agree))
        return [row for row, count in enumerate(agreements) if count >= needed]

    def _feature_scores(
        self,
        matrix: TrainingMatrix,
        similar: list[int],
        pair_values: dict,
        is_same_features: list[str],
    ) -> list[tuple[str, float]]:
        """Per-feature what-if scores over the similar rows, sorted decreasing."""
        observed = matrix.observed
        scores: list[tuple[str, float]] = []
        for feature in is_same_features:
            pair_value = pair_values.get(feature)
            if pair_value is None:
                continue
            values = matrix.values(feature)
            disagreeing = [
                row
                for row in similar
                if values[row] is not None and values[row] != pair_value
            ]
            if not disagreeing:
                scores.append((feature, 0.0))
                continue
            expected = sum(1 for row in disagreeing if not observed[row])
            scores.append((feature, expected / len(disagreeing)))
        scores.sort(key=lambda item: (item[1], item[0]), reverse=True)
        return scores

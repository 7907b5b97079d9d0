"""The RuleOfThumb baseline (Section 5.1).

RuleOfThumb ignores the query: it ranks raw features once by their global
impact on runtime using Relief (RReliefF, because the target is numeric and
features are mixed with missing values), then answers every query by
pointing to the top-w ranked features on which the pair of interest
disagrees, as ``feature_isSame = F`` predicates.
"""

from __future__ import annotations

import random

from repro.core.examples import (
    TrainingMatrix,
    construct_training_matrix,
    find_record,
    records_for_query,
)
from repro.core.explanation import Explanation, evaluate_explanation
from repro.core.features import PERFORMANCE_METRIC, FeatureSchema, infer_schema
from repro.core.pairs import (
    IS_SAME_SUFFIX,
    NOT_SAME,
    PairFeatureConfig,
    compute_pair_features,
)
from repro.core.pxql.ast import Comparison, Operator, Predicate, TRUE_PREDICATE
from repro.core.pxql.query import PXQLQuery
from repro.core.registry import register_explainer
from repro.exceptions import ExplanationError
from repro.logs.store import ExecutionLog
from repro.ml.relief import relieff_importance


@register_explainer("ruleofthumb", override=True)
class RuleOfThumbExplainer:
    """Explain by pointing at globally important features the pair disagrees on."""

    name = "RuleOfThumb"

    def __init__(
        self,
        pair_config: PairFeatureConfig | None = None,
        num_neighbors: int = 10,
        relief_sample_size: int | None = 150,
        rng: random.Random | None = None,
    ) -> None:
        self.pair_config = pair_config if pair_config is not None else PairFeatureConfig()
        self.num_neighbors = num_neighbors
        self.relief_sample_size = relief_sample_size
        self._rng = rng if rng is not None else random.Random(0)
        self._importance_cache: dict[int, dict[str, float]] = {}

    def rank_features(
        self, log: ExecutionLog, query: PXQLQuery, schema: FeatureSchema
    ) -> list[tuple[str, float]]:
        """Raw features sorted by decreasing Relief importance.

        The ranking depends only on the log (not on the query), so it is
        cached per log object — RuleOfThumb's "identification of important
        features is executed only once".
        """
        cache_key = id(log) ^ hash(query.entity)
        if cache_key not in self._importance_cache:
            records = records_for_query(log, query)
            if not records:
                raise ExplanationError("the log has no records of the queried entity kind")
            rows = [record.features for record in records]
            targets = [record.duration for record in records]
            numeric = {name: schema.is_numeric(name) for name in schema.names()
                       if name != PERFORMANCE_METRIC}
            importance = relieff_importance(
                rows,
                targets,
                numeric,
                features=[name for name in schema.names() if name != PERFORMANCE_METRIC],
                num_neighbors=self.num_neighbors,
                sample_size=self.relief_sample_size,
                rng=self._rng,
            )
            self._importance_cache[cache_key] = importance
        importance = self._importance_cache[cache_key]
        return sorted(importance.items(), key=lambda item: item[1], reverse=True)

    def explain(
        self,
        log: ExecutionLog,
        query: PXQLQuery,
        schema: FeatureSchema | None = None,
        width: int | None = None,
        auto_despite: bool = False,
        examples: TrainingMatrix | None = None,
    ) -> Explanation:
        """Top-``width`` important features the pair disagrees on.

        The ``auto_despite`` flag is accepted for interface compatibility but
        ignored: RuleOfThumb never generates a despite clause.  A precomputed
        training matrix ``examples`` (from the session layer) is only used
        to score the explanation's metrics.
        """
        if not query.has_pair:
            raise ExplanationError("the query must be bound to a pair of interest")
        width = width if width is not None else 3
        records = records_for_query(log, query)
        schema = schema if schema is not None else infer_schema(records)
        first = find_record(log, query, query.first_id)
        second = find_record(log, query, query.second_id)
        pair_values = compute_pair_features(first, second, schema, self.pair_config)

        ranked = self.rank_features(log, query, schema)
        atoms: list[Comparison] = []
        for feature, _ in ranked:
            if len(atoms) >= width:
                break
            is_same_feature = feature + IS_SAME_SUFFIX
            if pair_values.get(is_same_feature) == NOT_SAME:
                atoms.append(Comparison(is_same_feature, Operator.EQ, NOT_SAME))
        because = Predicate.conjunction(atoms)

        explanation = Explanation(
            because=because, despite=TRUE_PREDICATE, technique=self.name
        )
        if examples is None:
            examples = construct_training_matrix(
                log, query, schema, config=self.pair_config, rng=self._rng
            )
        if examples:
            explanation = explanation.with_metrics(
                evaluate_explanation(explanation, examples)
            )
        return explanation

"""The SimButDiff baseline (Section 5.2, Algorithm 2).

SimButDiff works only with the binary ``isSame`` features.  It finds the
training examples that are similar to the pair of interest (agree on at
least a fraction ``s`` of the isSame features), then scores each feature by
a what-if analysis: among the similar pairs that *disagree* with the pair of
interest on the feature, what fraction performed as expected?  The
explanation is the conjunction ``feature = <pair's value>`` of the top-w
scoring features.

Both steps count with row bitsets (Python ints, bit ``i`` for training
example ``i``).  A feature's agreement with the pair of interest is
:meth:`TrainingMatrix.equal_bits <repro.core.examples.TrainingMatrix.equal_bits>`,
a cached bitset on the matrix's encoded columns.  Similarity is a
bit-sliced threshold counter over the features' non-agreements: a row
agreeing on ``count`` of ``k`` features is similar when
``count >= s * k``, that is when it fails to agree on at most
``k - ceil(s * k)`` of them.  A feature's score is then two
``int.bit_count()`` calls over the similar rows that disagree with the
pair.
"""

from __future__ import annotations

import math
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
    PairFeatureConfig,
    compute_pair_features,
    raw_feature_of,
)
from repro.core.pxql.ast import Comparison, Operator, Predicate, TRUE_PREDICATE
from repro.core.pxql.query import PXQLQuery
from repro.core.registry import register_explainer
from repro.exceptions import ConfigurationError, ExplanationError
from repro.logs.store import ExecutionLog
from repro.ml.matrix import flags_to_bits


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
        examples: TrainingMatrix | None = None,
    ) -> Explanation:
        """Generate a width-``width`` explanation via Algorithm 2.

        ``auto_despite`` is accepted for interface compatibility and ignored.
        A precomputed training matrix ``examples`` (from the session layer)
        replaces the internal related-pair enumeration.
        """
        if not query.has_pair:
            raise ExplanationError("the query must be bound to a pair of interest")
        width = width if width is not None else 3
        records = records_for_query(log, query)
        schema = schema if schema is not None else infer_schema(records)
        first = find_record(log, query, query.first_id)
        second = find_record(log, query, query.second_id)
        pair_values = compute_pair_features(first, second, schema, self.pair_config)

        matrix = examples
        if matrix is None:
            matrix = construct_training_matrix(
                log, query, schema,
                config=self.pair_config,
                sample_size=self.sample_size,
                rng=self._rng,
            )
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
    ) -> int:
        """Rows that agree with the pair of interest on >= s of the
        features, as a row bitset."""
        every_row = (1 << len(matrix)) - 1
        # ``count >= s * k`` holds for an integer count exactly when
        # ``count >= ceil(s * k)``, with ``s * k`` as the float it is.
        allowed = len(is_same_features) - math.ceil(
            self.similarity_threshold * len(is_same_features)
        )
        # over[j]: the rows that failed to agree on more than j features so
        # far (a saturating counter, one bitset per count).
        over = [0] * (allowed + 1)
        for feature in is_same_features:
            missed = every_row & ~matrix.equal_bits(feature, pair_values.get(feature))
            for count in range(allowed, 0, -1):
                over[count] |= over[count - 1] & missed
            over[0] |= missed
        return every_row & ~over[allowed]

    def _feature_scores(
        self,
        matrix: TrainingMatrix,
        similar: int,
        pair_values: dict,
        is_same_features: list[str],
    ) -> list[tuple[str, float]]:
        """Per-feature what-if scores over the similar rows, sorted decreasing."""
        observed = flags_to_bits(matrix.observed)
        scores: list[tuple[str, float]] = []
        for feature in is_same_features:
            pair_value = pair_values.get(feature)
            if pair_value is None:
                continue
            disagreeing = (
                similar
                & matrix.present_bits(feature)
                & ~matrix.equal_bits(feature, pair_value)
            )
            n_disagreeing = disagreeing.bit_count()
            if not n_disagreeing:
                scores.append((feature, 0.0))
                continue
            expected = n_disagreeing - (disagreeing & observed).bit_count()
            scores.append((feature, expected / n_disagreeing))
        scores.sort(key=lambda item: (item[1], item[0]), reverse=True)
        return scores

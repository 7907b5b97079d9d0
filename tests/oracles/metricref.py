"""Reference row-walking counts: explanation metrics and SimButDiff.

This module preserves, as they shipped before the counts moved to row
bitsets, the per-example loops behind

* :meth:`repro.core.examples.TrainingMatrix.satisfied` — one flag per
  example, ``Comparison.evaluate_value`` mapped over every atom's values;
* :func:`repro.core.explanation._tally` — the four Section 3.3 counts
  summed from those flags;
* SimButDiff's ``_similar_examples`` and ``_feature_scores`` (Algorithm 2)
  — per-row agreement counts compared with ``s * k``, and per-feature
  what-if scores over the similar rows' values.

The differential tests (``tests/core/test_explanation_and_examples.py``)
check that the bitset counts equal these on random and edge example sets.
Do not optimise this module — it is the fixed point the bitset counts are
proven against.
"""

from __future__ import annotations

from operator import add, and_

from repro.core.examples import TrainingMatrix
from repro.core.pxql.ast import Predicate


def satisfied_reference(matrix: TrainingMatrix, predicate: Predicate) -> bytearray:
    """Per-example flag: the pair satisfies every atom of ``predicate``."""
    mask = bytearray(b"\x01") * len(matrix)
    for atom in predicate.atoms:
        satisfied = map(atom.evaluate_value, matrix.values(atom.feature))
        mask = bytearray(map(and_, mask, satisfied))
    return mask


def tally_reference(
    despite: Predicate, because: Predicate, matrix: TrainingMatrix
) -> tuple[int, int, int, int]:
    """(in context, in-context observed, matching, matching observed)."""
    in_context = satisfied_reference(matrix, despite)
    matching = bytearray(map(and_, in_context, satisfied_reference(matrix, because)))
    observed = matrix.observed
    return (
        sum(in_context),
        sum(map(and_, in_context, observed)),
        sum(matching),
        sum(map(and_, matching, observed)),
    )


def similar_examples_reference(
    similarity_threshold: float,
    matrix: TrainingMatrix,
    pair_values: dict,
    is_same_features: list[str],
) -> list[int]:
    """Rows that agree with the pair of interest on >= s of the features."""
    if not is_same_features:
        return list(range(len(matrix)))
    needed = similarity_threshold * len(is_same_features)
    agreements = [0] * len(matrix)
    for feature in is_same_features:
        pair_value = pair_values.get(feature)
        agree = [
            value is not None and value == pair_value
            for value in matrix.values(feature)
        ]
        agreements = list(map(add, agreements, agree))
    return [row for row, count in enumerate(agreements) if count >= needed]


def feature_scores_reference(
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

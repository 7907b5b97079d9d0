"""Machine-learning primitives implemented from scratch.

The paper reuses two standard algorithms: C4.5-style information-gain split
selection (for picking the best predicate per feature) and Relief (for the
RuleOfThumb baseline's global feature ranking).  Neither scikit-learn nor
Weka is available offline, so this package provides:

* :mod:`repro.ml.entropy` — entropy and information gain;
* :mod:`repro.ml.matrix` — the columnar training pipeline: datasets are
  encoded once (integer value codes, float arrays, one global sort per
  numeric column) and searched over index subsets;
* :mod:`repro.ml.splits` — best predicate search per feature over numeric
  and nominal values with missing-value handling and explicit,
  deterministic tie-breaking;
* :mod:`repro.ml.relief` — RReliefF feature importance for a numeric target
  (the adaptation of Relief for regression the paper cites);
* :mod:`repro.ml.decision_tree` — a small C4.5-flavoured decision tree used
  in tests and ablations to contrast plain classification with PerfXplain's
  explanation objective;
* :mod:`repro.ml.ranking` — percentile-rank normalisation used when
  combining precision and generality scores.
"""

from repro.ml.entropy import binary_entropy, entropy, information_gain
from repro.ml.matrix import FeatureColumn, FeatureMatrix, MatrixView, search_column
from repro.ml.splits import (
    CandidatePredicate,
    best_predicate_for_feature,
    prefer_candidate,
)
from repro.ml.relief import relieff_importance
from repro.ml.decision_tree import DecisionTree, DecisionTreeNode
from repro.ml.ranking import percentile_ranks

__all__ = [
    "binary_entropy",
    "entropy",
    "information_gain",
    "FeatureColumn",
    "FeatureMatrix",
    "MatrixView",
    "search_column",
    "CandidatePredicate",
    "best_predicate_for_feature",
    "prefer_candidate",
    "relieff_importance",
    "DecisionTree",
    "DecisionTreeNode",
    "percentile_ranks",
]

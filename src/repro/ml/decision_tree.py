"""A small C4.5-flavoured decision tree.

PerfXplain is *not* a decision tree (Section 4.2 discusses the differences:
the pair of interest must always be classified as "observed", and the output
must be a single readable conjunction scored by precision *and* generality),
but it borrows the information-gain criterion.  This classifier exists so
tests and ablation benchmarks can contrast the two: a tree reaches similar
accuracy but produces path-shaped rules that need not apply to the pair of
interest at all.

Training runs on the columnar pipeline of :mod:`repro.ml.matrix`: ``fit``
encodes the rows into a :class:`~repro.ml.matrix.FeatureMatrix` once, and
every node operates on an index subset (a
:class:`~repro.ml.matrix.MatrixView`) of that encoding.  Numeric columns
are sorted once globally; each split filters the parent's order stably
instead of re-extracting and re-sorting — the split search is a
prefix-count sweep.  Split ties are broken explicitly by
:func:`repro.ml.splits.prefer_candidate` (gain, then feature name, then
operator), never by iteration accidents.

The frozen row-oriented reference implementation lives in
``tests/oracles/rowpath.py``; the differential suite asserts both produce
identical trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.ml.matrix import FeatureMatrix, MatrixView
from repro.ml.splits import CandidatePredicate, prefer_candidate


@dataclass
class DecisionTreeNode:
    """One node of the tree: either a leaf or an internal split."""

    prediction: bool | None = None
    probability: float = 0.5
    split: CandidatePredicate | None = None
    left: "DecisionTreeNode | None" = None   # split satisfied
    right: "DecisionTreeNode | None" = None  # split not satisfied

    @property
    def is_leaf(self) -> bool:
        """Whether the node is a leaf."""
        return self.split is None


@dataclass
class DecisionTree:
    """Binary classifier over feature dictionaries.

    :param max_depth: maximum tree depth.
    :param min_samples_split: do not split nodes smaller than this.
    :param min_gain: minimum information gain required to split.
    """

    max_depth: int = 6
    min_samples_split: int = 10
    min_gain: float = 1e-6
    numeric: Mapping[str, bool] = field(default_factory=dict)
    root: DecisionTreeNode | None = None

    def fit(
        self,
        rows: Sequence[Mapping[str, Any]],
        labels: Sequence[bool],
        numeric: Mapping[str, bool] | None = None,
    ) -> "DecisionTree":
        """Fit the tree; returns ``self`` for chaining."""
        if len(rows) != len(labels):
            raise ValueError("rows and labels must have the same length")
        if not rows:
            raise ValueError("cannot fit a tree on zero examples")
        if numeric is not None:
            self.numeric = dict(numeric)
        matrix = FeatureMatrix.from_rows(rows, numeric=self.numeric)
        label_bits = bytearray(1 if label else 0 for label in labels)
        self.root = self._build(matrix.view(), label_bits, depth=0)
        return self

    def _build(
        self,
        view: MatrixView,
        labels: bytearray,
        depth: int,
    ) -> DecisionTreeNode:
        indices = view.indices
        positives = sum(map(labels.__getitem__, indices))
        probability = positives / len(indices)
        leaf = DecisionTreeNode(prediction=probability >= 0.5, probability=probability)
        if (
            depth >= self.max_depth
            or len(indices) < self.min_samples_split
            or positives == 0
            or positives == len(indices)
        ):
            return leaf

        best: CandidatePredicate | None = None
        for feature in view.matrix.features:
            candidate = view.best_predicate(feature, labels, positives=positives)
            if candidate is not None and prefer_candidate(candidate, best):
                best = candidate
        if best is None or best.gain < self.min_gain:
            return leaf

        raw = view.matrix.column(best.feature).raw
        satisfied = bytearray(view.matrix.n_rows)
        n_left = 0
        for index in indices:
            if best.satisfied_by(raw[index]):
                satisfied[index] = 1
                n_left += 1
        if n_left == 0 or n_left == len(indices):
            return leaf

        left_view, right_view = view.split(satisfied)
        node = DecisionTreeNode(probability=probability, split=best)
        node.left = self._build(left_view, labels, depth + 1)
        node.right = self._build(right_view, labels, depth + 1)
        return node

    def predict_proba(self, row: Mapping[str, Any]) -> float:
        """Probability that the row belongs to the positive class."""
        if self.root is None:
            raise ValueError("the tree has not been fitted")
        node = self.root
        while not node.is_leaf:
            assert node.split is not None
            if node.split.satisfied_by(row.get(node.split.feature)):
                node = node.left  # type: ignore[assignment]
            else:
                node = node.right  # type: ignore[assignment]
        return node.probability

    def predict(self, row: Mapping[str, Any]) -> bool:
        """Predicted class for one row."""
        return self.predict_proba(row) >= 0.5

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""
        def walk(node: DecisionTreeNode | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        return walk(self.root)

"""Differential suite: columnar pipeline vs the frozen row path.

The columnar training pipeline (:mod:`repro.ml.matrix`) must be a pure
re-layout of the row-oriented algorithm preserved in
:mod:`tests.oracles.rowpath`: on any dataset, split search returns **identical**
best predicates (feature, operator, constant and bit-identical gain) and
tree fitting produces **identical** structures and ``predict_proba``
outputs.  This file checks that on ~50 randomized datasets mixing numeric
and nominal columns, missing values, duplicated values and constant
columns — the cases where an encoding bug would bite.
"""

from __future__ import annotations

import random

import pytest

from repro.ml.decision_tree import DecisionTree, DecisionTreeNode
from repro.ml.matrix import FeatureMatrix
from repro.ml.splits import best_predicate_for_feature

from tests.oracles.rowpath import RowPathDecisionTree, rowpath_best_predicate_for_feature

#: Randomized dataset seeds exercised by every differential test.
DATASET_SEEDS = list(range(50))

#: Value pools chosen to force duplicates (small pools, many rows).
NUMERIC_POOL = [-3.0, -1.5, 0.0, 0.5, 0.5, 2.0, 2.0, 7.25, 11.0]
INTEGER_POOL = [0, 1, 1, 2, 5, 9]
NOMINAL_POOL = ["alpha", "beta", "gamma", "delta"]


def random_dataset(seed: int) -> tuple[list[dict], list[bool], dict[str, bool]]:
    """One randomized mixed-type dataset with adversarial columns.

    Columns cover: floats with duplicates, integers, nominals, a constant
    column, an all-missing column and a high-missing-rate numeric column.
    Labels are random with a seed-dependent skew (sometimes nearly pure).
    """
    rng = random.Random(seed)
    n = rng.randint(8, 90)
    positive_rate = rng.choice([0.1, 0.3, 0.5, 0.5, 0.7, 0.95])
    rows: list[dict] = []
    labels: list[bool] = []
    for _ in range(n):
        rows.append({
            "f_float": rng.choice(NUMERIC_POOL + [None]),
            "f_int": rng.choice(INTEGER_POOL + [None]),
            "f_nom": rng.choice(NOMINAL_POOL + [None]),
            "f_const": 42.0,
            "f_all_missing": None,
            "f_sparse": rng.choice([None, None, None, 1.5, 6.0]),
        })
        labels.append(rng.random() < positive_rate)
    numeric = {
        "f_float": True, "f_int": True, "f_nom": False,
        "f_const": True, "f_all_missing": True, "f_sparse": True,
    }
    return rows, labels, numeric


def edge_dataset(seed: int) -> tuple[list[dict], list[bool], dict[str, bool]]:
    """Columns whose threshold and equality counts are easy to get wrong.

    * ``e_ulp`` — adjacent doubles ``1 + 2**-52`` and ``1 + 2**-51``,
      whose midpoint rounds onto the upper value;
    * ``e_huge`` — ``1.6e308`` and ``1.7e308``, whose midpoint overflows
      to ``inf``;
    * ``e_mixed`` — bools and NaN inside a numeric column;
    * ``e_ones`` — ``1``, ``1.0``, ``True`` and ``"1"`` in one nominal
      column (the first three are one dict-equality class);
    * ``e_gt`` — a numeric column whose best constrained threshold is a
      ``>`` that the labels favour, beside missing rows;
    * ``e_bigint`` — ints beyond ``2**53``, where ``2**53`` and
      ``2**53 + 1`` share one float image but are two equality classes
      (drawn from a generator of its own, so the other columns keep the
      data they had before it was added).
    """
    rng = random.Random(seed)
    bigint_rng = random.Random(f"bigint:{seed}")
    n = rng.randint(6, 60)
    rows: list[dict] = []
    labels: list[bool] = []
    for _ in range(n):
        high = rng.choice([1.0, 2.0, 3.0, 4.0, None])
        rows.append({
            "e_ulp": rng.choice([1.0, 1 + 2**-52, 1 + 2**-51, 2.0, None]),
            "e_huge": rng.choice([-1.7e308, 1.6e308, 1.7e308, 0.0, None]),
            "e_mixed": rng.choice([True, False, float("nan"), 0.5, 2.0, 1, None]),
            "e_ones": rng.choice([1, 1.0, True, "1", "2", None]),
            "e_gt": high,
            "e_bigint": bigint_rng.choice([2**53 + k for k in (0, 1, 1, 2, 4)] + [None]),
        })
        favoured = high is not None and high >= 3.0
        labels.append(favoured if rng.random() < 0.8 else not favoured)
    numeric = {
        "e_ulp": True, "e_huge": True, "e_mixed": True, "e_ones": False,
        "e_gt": True, "e_bigint": True,
    }
    return rows, labels, numeric


#: Every differential dataset: the random ones, ids ``0``-``49``, and the
#: edge ones, ids ``edge-0``-``edge-49``.
DATASETS = [
    pytest.param(random_dataset, seed, id=str(seed)) for seed in DATASET_SEEDS
] + [pytest.param(edge_dataset, seed, id=f"edge-{seed}") for seed in DATASET_SEEDS]


def _assert_counts_exact(candidate, rows, values, labels) -> None:
    """A candidate's reported counts are the rows ``satisfied_by`` accepts."""
    if candidate is None or candidate.counts is None:
        return
    matching = [row for row in rows if candidate.satisfied_by(values[row])]
    positive = sum(1 for row in matching if labels[row])
    assert candidate.counts == (len(matching), positive)


def tree_signature(node: DecisionTreeNode | None):
    """A comparable rendering of a fitted tree (splits and leaf posteriors)."""
    if node is None:
        return None
    if node.is_leaf:
        return ("leaf", node.prediction, node.probability)
    return (
        ("split", node.split.feature, node.split.operator, node.split.value,
         node.split.gain),
        tree_signature(node.left),
        tree_signature(node.right),
    )


class TestSplitSearchEquivalence:
    @pytest.mark.parametrize("dataset, seed", DATASETS)
    def test_unconstrained_splits_identical(self, dataset, seed):
        rows, labels, numeric = dataset(seed)
        for feature, is_numeric in numeric.items():
            values = [row.get(feature) for row in rows]
            columnar = best_predicate_for_feature(
                feature, values, labels, numeric=is_numeric
            )
            rowpath = rowpath_best_predicate_for_feature(
                feature, values, labels, numeric=is_numeric
            )
            assert columnar == rowpath
            if columnar is not None:
                # Bit-identical gains, not just approximately equal.
                assert columnar.gain == rowpath.gain

    @pytest.mark.parametrize("dataset, seed", DATASETS)
    def test_constrained_splits_identical(self, dataset, seed):
        """Constrained search over all rows and over narrowed subsets.

        The explainer grows clauses over narrowed views, so besides the
        row adapter every feature is searched through
        ``FeatureMatrix.view(subset)`` and through ``narrow`` (whose
        bitsets are ANDed down from the parent's) on random subsets, each
        against the row path over the same rows.  Wherever a candidate
        reports counts, they must be the rows ``satisfied_by`` accepts.
        """
        rows, labels, numeric = dataset(seed)
        rng = random.Random(seed + 1000)
        matrix = FeatureMatrix.from_rows(rows, numeric=numeric, features=list(numeric))
        label_bits = bytearray(1 if label else 0 for label in labels)
        subsets = [list(range(len(rows)))] + [
            sorted(rng.sample(range(len(rows)), rng.randint(1, len(rows))))
            for _ in range(3)
        ]
        for feature, is_numeric in numeric.items():
            values = [row.get(feature) for row in rows]
            present = [value for value in values if value is not None]
            required_options = [None, "never-present"]
            if dataset is edge_dataset:
                required_options.extend(present)
            elif present:
                required_options.append(rng.choice(present))
            for required in required_options:
                columnar = best_predicate_for_feature(
                    feature, values, labels, numeric=is_numeric,
                    required_value=required,
                )
                rowpath = rowpath_best_predicate_for_feature(
                    feature, values, labels, numeric=is_numeric,
                    required_value=required,
                )
                assert columnar == rowpath
                _assert_counts_exact(columnar, range(len(rows)), values, labels)
                for subset in subsets:
                    keep = bytearray(len(rows))
                    for index in subset:
                        keep[index] = 1
                    parent = matrix.view()
                    parent.positive_bits(label_bits)
                    expected = rowpath_best_predicate_for_feature(
                        feature, [values[i] for i in subset],
                        [labels[i] for i in subset], numeric=is_numeric,
                        required_value=required,
                    )
                    for view in (matrix.view(subset), parent.narrow(keep)):
                        found = view.best_predicate(
                            feature, label_bits, required_value=required
                        )
                        assert found == expected
                        if found is not None:
                            assert found.gain == expected.gain
                        _assert_counts_exact(found, subset, values, labels)


class TestTreeEquivalence:
    @pytest.mark.parametrize("dataset, seed", DATASETS)
    def test_trees_identical(self, dataset, seed):
        rows, labels, numeric = dataset(seed)
        params = dict(max_depth=5, min_samples_split=4, min_gain=1e-6)
        columnar = DecisionTree(**params).fit(rows, labels, numeric=numeric)
        rowpath = RowPathDecisionTree(**params).fit(rows, labels, numeric=numeric)
        assert tree_signature(columnar.root) == tree_signature(rowpath.root)

    @pytest.mark.parametrize("seed", DATASET_SEEDS[::5])
    def test_predict_proba_identical_on_unseen_rows(self, seed):
        rows, labels, numeric = random_dataset(seed)
        columnar = DecisionTree(max_depth=6, min_samples_split=2).fit(
            rows, labels, numeric=numeric
        )
        rowpath = RowPathDecisionTree(max_depth=6, min_samples_split=2).fit(
            rows, labels, numeric=numeric
        )
        probe_rng = random.Random(seed + 5000)
        probes = list(rows)
        for _ in range(40):
            probes.append({
                "f_float": probe_rng.uniform(-5, 13),
                "f_int": probe_rng.randint(-1, 10),
                "f_nom": probe_rng.choice(NOMINAL_POOL + ["unseen"]),
                "f_const": probe_rng.choice([42.0, 0.0]),
                "f_sparse": probe_rng.choice([None, 1.5, 3.0]),
            })
        for probe in probes:
            assert columnar.predict_proba(probe) == rowpath.predict_proba(probe)
            assert columnar.predict(probe) == rowpath.predict(probe)

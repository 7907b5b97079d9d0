"""Algorithm 1: PerfXplain explanation generation.

The because clause is grown greedily, one atomic predicate per iteration:

1. for every candidate pair feature, find the predicate with the highest
   information gain over the current example set — restricted to predicates
   the *pair of interest* satisfies, so the explanation stays applicable;
2. compute each candidate's precision ``P(obs | p, X)`` and generality
   ``P(p | X)`` over the current set, replace both with their percentile
   ranks, and score ``w * precision_rank + (1 - w) * generality_rank``
   (``w = 0.8`` in the paper);
3. append the best-scoring predicate to the explanation and keep only the
   examples that satisfy it.

The despite clause uses the identical procedure with relevance
``P(exp | p, X)`` in place of precision (Section 4.2, "Generating the des'
clause").

Each step only appends to the clause, and what it appends depends only on
the growth's context and the rows the clause has narrowed to: the pair of
interest's values, the starting rows, the excluded features, the scoring
tunables (``score_weight``, ``min_examples``) and the explainer class.  So
for one context the width-``w`` clause is the first ``w`` atoms of every
wider one.  A :class:`~repro.core.examples.TrainingMatrix` keeps its latest
growth per positive label (its ``growths``): a request whose context
matches takes the first ``w`` atoms when the growth already holds them (or
stopped early), and otherwise grows on from the stored atoms and rows;
any other request grows from the empty clause and replaces the stored
growth.  A widening request for one pair therefore searches each clause
step once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from operator import and_
from typing import NamedTuple

from repro.core.examples import (
    Label,
    TrainingMatrix,
    construct_training_matrix,
    encode_training_examples,
    find_record,
)
from repro.core.explanation import (
    Explanation,
    evaluate_explanation,
)
from repro.core.features import FeatureLevel, FeatureSchema, infer_schema
from repro.core.pairs import PairFeatureConfig, compute_pair_features
from repro.core.pxql.ast import Comparison, Operator, Predicate, TRUE_PREDICATE
from repro.core.pxql.query import PXQLQuery
from repro.core.registry import register_explainer
from repro.exceptions import ConfigurationError, ExplanationError
from repro.logs.records import FeatureValue
from repro.logs.store import ExecutionLog
from repro.ml.matrix import bits_to_flags
from repro.ml.ranking import percentile_ranks
from repro.ml.splits import CandidatePredicate

#: Operator symbols produced by the split search, mapped to PXQL operators.
_SPLIT_OPERATORS = {
    "==": Operator.EQ,
    "!=": Operator.NE,
    "<=": Operator.LE,
    "<": Operator.LT,
    ">=": Operator.GE,
    ">": Operator.GT,
}


class _Growth(NamedTuple):
    """One greedy clause growth over a matrix, as the matrix keeps it."""

    #: What the growth depends on besides the matrix and the positive
    #: label (see :func:`_growth_context`).
    context: tuple | None
    #: The atoms chosen so far.
    clause: Predicate
    #: The starting rows that satisfy the clause, as a bitset.
    rows: int
    #: Whether growth stopped before reaching the width last asked for.
    stopped: bool


def _growth_context(
    explainer: "PerfXplainExplainer",
    rows: int,
    pair_values: dict[str, FeatureValue],
    exclude_features: frozenset[str],
) -> tuple | None:
    """The context a clause growth depends on, or ``None`` when it must
    not be matched.

    An ``==`` atom cites the pair's value itself, so each pair value is
    keyed by its type and its ``repr``: ``1``, ``1.0`` and ``True`` differ,
    and so do ``0.0`` and ``-0.0``.  A NaN value makes the context
    ``None``: it never matches.
    """
    values = []
    for name, value in pair_values.items():
        if value != value:
            return None
        values.append((name, type(value), repr(value)))
    config = explainer.config
    return (
        type(explainer),
        config.score_weight,
        config.min_examples,
        rows,
        exclude_features,
        tuple(values),
    )


@dataclass(frozen=True)
class PerfXplainConfig:
    """Tunables of the explanation-generation algorithm.

    :param width: number of atomic predicates in a clause.
    :param score_weight: weight of the precision (or relevance) percentile
        rank versus the generality rank (the paper uses 0.8).
    :param sample_size: balanced-sample size for training examples.
    :param feature_level: which pair features may appear in explanations.
    :param pair_config: pair-feature encoding parameters.
    :param min_examples: stop growing a clause when fewer related examples
        than this remain.
    :param pair_workers: processes the candidate-pair filtering is sharded
        across (``1`` = serial in-process).  Results are bit-identical for
        every worker count; this is purely a throughput knob for large
        (task-level) logs.
    """

    width: int = 3
    score_weight: float = 0.8
    sample_size: int = 2000
    feature_level: FeatureLevel = FeatureLevel.FULL
    pair_config: PairFeatureConfig = field(default_factory=PairFeatureConfig)
    min_examples: int = 4
    pair_workers: int = 1

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ConfigurationError("width must be >= 0")
        if not 0.0 <= self.score_weight <= 1.0:
            raise ConfigurationError("score_weight must be in [0, 1]")
        if self.sample_size < 1:
            raise ConfigurationError("sample_size must be >= 1")
        if self.min_examples < 2:
            raise ConfigurationError("min_examples must be >= 2")
        if self.pair_workers < 1:
            raise ConfigurationError("pair_workers must be >= 1")


@register_explainer("perfxplain", override=True)
class PerfXplainExplainer:
    """Generates PerfXplain explanations for PXQL queries."""

    name = "PerfXplain"

    def __init__(self, config: PerfXplainConfig | None = None,
                 rng: random.Random | None = None) -> None:
        self.config = config if config is not None else PerfXplainConfig()
        self._rng = rng if rng is not None else random.Random(0)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def explain(
        self,
        log: ExecutionLog,
        query: PXQLQuery,
        schema: FeatureSchema | None = None,
        width: int | None = None,
        auto_despite: bool = False,
        despite_width: int | None = None,
        examples: TrainingMatrix | None = None,
    ) -> Explanation:
        """Generate an explanation for a query bound to a pair of interest.

        :param log: the log of past executions to learn from.
        :param query: a PXQL query with both pair identifiers set.
        :param schema: raw-feature schema (inferred from the log if omitted).
        :param width: because-clause width (defaults to the config's).
        :param auto_despite: also generate a ``des'`` clause (Section 4.2)
            and use it as additional context for the because clause.
        :param despite_width: width of the generated despite clause.
        :param examples: a precomputed
            :class:`~repro.core.examples.TrainingMatrix` for the query's
            clauses (the session layer shares one construction *and* one
            encoding across many calls).  With ``auto_despite`` its rows
            are narrowed by the generated ``des'`` extension.
        """
        if not query.has_pair:
            raise ExplanationError("the query must be bound to a pair of interest")
        schema = schema if schema is not None else self._infer_schema(log, query)
        width = width if width is not None else self.config.width
        pair_values = self._pair_values(log, query, schema)
        query.validate_against_pair(pair_values, strict=True)

        if examples is not None:
            # Encode once up front: generate_despite and the clause growth
            # below share the same columnar encoding.
            examples = self._encode(examples, schema)
        working_query = query
        despite_extension = TRUE_PREDICATE
        if auto_despite:
            despite_extension = self.generate_despite(
                log, query, schema,
                width=despite_width if despite_width is not None else width,
                pair_values=pair_values,
                examples=examples,
            )
            working_query = query.with_despite(query.despite.and_then(despite_extension))

        precomputed = examples is not None
        if examples is None:
            # Built under this config's catalog, so _encode below is a
            # pass-through.
            examples = construct_training_matrix(
                log, working_query, schema,
                config=self.config.pair_config,
                sample_size=self.config.sample_size,
                rng=self._rng,
                feature_level=self.config.feature_level,
                workers=self.config.pair_workers,
            )
        encoded = self._encode(examples, schema)
        if precomputed and not despite_extension.is_true:
            # Freshly constructed examples already satisfy the extension
            # (it is part of ``working_query``); shared ones must be
            # narrowed to the generated ``des'`` context.
            rows = encoded.satisfied(despite_extension)
        else:
            rows = (1 << len(encoded)) - 1
        if not rows:
            raise ExplanationError(
                "no pair of executions in the log is related to the query; "
                "cannot generate an explanation"
            )
        because = self._grow_clause(
            encoded, rows, pair_values, width, positive_label=Label.OBSERVED
        )
        explanation = Explanation(
            because=because,
            despite=despite_extension,
            technique=self.name,
        )
        # The metrics' context is the rows satisfying ``des'``, which are
        # exactly ``rows`` (all rows when the examples were built for
        # ``working_query``), so they are measured over the whole matrix.
        return explanation.with_metrics(evaluate_explanation(explanation, encoded))

    def generate_despite(
        self,
        log: ExecutionLog,
        query: PXQLQuery,
        schema: FeatureSchema | None = None,
        width: int | None = None,
        pair_values: dict[str, FeatureValue] | None = None,
        examples: TrainingMatrix | None = None,
    ) -> Predicate:
        """Generate a ``des'`` clause for an (under-specified) query.

        The despite clause is grown with the same greedy algorithm as the
        because clause but scores candidates by *relevance* — the fraction
        of matching pairs that performed as expected.
        """
        if not query.has_pair:
            raise ExplanationError("the query must be bound to a pair of interest")
        schema = schema if schema is not None else self._infer_schema(log, query)
        width = width if width is not None else self.config.width
        if pair_values is None:
            pair_values = self._pair_values(log, query, schema)

        if examples is None:
            examples = construct_training_matrix(
                log, query, schema,
                config=self.config.pair_config,
                sample_size=self.config.sample_size,
                rng=self._rng,
                feature_level=self.config.feature_level,
                workers=self.config.pair_workers,
            )
        if not examples:
            raise ExplanationError(
                "no pair of executions in the log is related to the query; "
                "cannot generate a despite clause"
            )
        encoded = self._encode(examples, schema)
        return self._grow_clause(
            encoded, (1 << len(encoded)) - 1, pair_values, width,
            positive_label=Label.EXPECTED,
            exclude_features=frozenset(query.despite.features()),
        )

    # ------------------------------------------------------------------ #
    # the greedy clause-growing loop
    # ------------------------------------------------------------------ #

    def _encode(self, examples: TrainingMatrix, schema: FeatureSchema) -> TrainingMatrix:
        """A training matrix under this config's catalog.

        Precomputed matrices are reused only when their encoding parameters
        match (:func:`~repro.core.examples.encode_training_examples`
        re-encodes otherwise).
        """
        return encode_training_examples(
            examples, schema,
            config=self.config.pair_config,
            feature_level=self.config.feature_level,
        )

    def _grow_clause(
        self,
        encoded: TrainingMatrix,
        rows: int,
        pair_values: dict[str, FeatureValue],
        width: int,
        positive_label: Label,
        exclude_features: frozenset[str] = frozenset(),
    ) -> Predicate:
        """Grow a clause of at most ``width`` atoms over ``rows`` (a row
        bitset), resuming the matrix's latest growth for ``positive_label``
        when its context matches (see the module docstring)."""
        context = _growth_context(self, rows, pair_values, exclude_features)
        growth = encoded.growths.get(positive_label)
        if context is None or growth is None or growth.context != context:
            growth = _Growth(context, TRUE_PREDICATE, rows, False)
        clause = growth.clause
        if clause.width >= width or growth.stopped:
            return Predicate(clause.atoms[:max(width, 0)])

        matrix = encoded.matrix
        positive = encoded.positive_labels(positive_label)
        used = set(exclude_features)
        used.update(clause.features())
        remaining = list(
            compress(range(matrix.n_rows), bits_to_flags(growth.rows, matrix.n_rows))
        )
        view = matrix.view(None if len(remaining) == matrix.n_rows else remaining)

        stopped = True  # unless the loop runs out of width below
        while clause.width < width:
            if len(remaining) < self.config.min_examples:
                break
            positives = view.positive_bits(positive).bit_count()
            if positives == 0 or positives == len(remaining):
                break
            candidates = self._best_predicates(view, positive, pair_values, used)
            if not candidates:
                break
            best = self._select_candidate(candidates, encoded, remaining, positive)
            if best is None:
                break
            atom = Comparison(
                feature=best.feature,
                operator=_SPLIT_OPERATORS[best.operator],
                value=best.value,
            )
            clause = clause.extended(atom)
            used.add(best.feature)
            # The atom's column holds exactly the values the examples carry
            # for that feature.  Where the search's counts were exact, the
            # vector path selects exactly the rows the atom accepts;
            # otherwise the atom is evaluated value by value.
            column = matrix.column(best.feature)
            satisfied = (
                self._satisfied_flags(best, column, remaining)
                if best.counts is not None
                else None
            )
            if satisfied is None:
                satisfied = map(atom.evaluate_value, map(column.raw.__getitem__, remaining))
            remaining = list(compress(remaining, satisfied))
            keep = bytearray(matrix.n_rows)
            for index in remaining:
                keep[index] = 1
            view = view.narrow(keep)
        else:
            stopped = False
        if context is not None:
            encoded.growths[positive_label] = _Growth(
                context, clause, view.member_bits(), stopped
            )
        return clause

    def _best_predicates(
        self,
        view,
        positive: bytearray,
        pair_values: dict[str, FeatureValue],
        used: set[str],
    ) -> list[CandidatePredicate]:
        candidates: list[CandidatePredicate] = []
        for feature in view.matrix.features:
            if feature in used:
                continue
            required = pair_values.get(feature)
            if required is None:
                continue
            candidate = view.best_predicate(feature, positive, required_value=required)
            if candidate is not None:
                candidates.append(candidate)
        return candidates

    def _select_candidate(
        self,
        candidates: list[CandidatePredicate],
        encoded: TrainingMatrix,
        remaining: list[int],
        positive: bytearray,
    ) -> CandidatePredicate | None:
        """Score candidates by percentile-ranked precision and generality.

        A candidate's precision and generality come from the rows of
        ``remaining`` that satisfy it.  Where the search already counted
        exactly those rows it hands them over as
        :attr:`~repro.ml.splits.CandidatePredicate.counts` — every ``==``
        candidate, and a ``<=``/``>`` threshold on a clean column whose
        midpoint lies strictly between the runs it separates (``>`` also
        needs every remaining row to be threshold-eligible) — and they are
        used as they are.  Every other candidate is recounted over the
        columnar encoding (:meth:`_satisfied_flags`), and mixed-type
        columns fall back to scalar ``satisfied_by`` probing.
        """
        precisions: list[float] = []
        generalities: list[float] = []
        positive_flags: list[int] | None = None
        for candidate in candidates:
            if candidate.counts is not None:
                matching, matching_positive = candidate.counts
            else:
                if positive_flags is None:
                    positive_flags = list(map(positive.__getitem__, remaining))
                column = encoded.matrix.column(candidate.feature)
                satisfied = self._satisfied_flags(candidate, column, remaining)
                if satisfied is None:
                    raw = column.raw
                    satisfied = [
                        1 if candidate.satisfied_by(raw[index]) else 0
                        for index in remaining
                    ]
                matching = sum(satisfied)
                matching_positive = sum(map(and_, satisfied, positive_flags))
            precisions.append(matching_positive / matching if matching else 0.0)
            generalities.append(matching / len(remaining) if remaining else 0.0)

        precision_ranks = percentile_ranks(precisions)
        generality_ranks = percentile_ranks(generalities)
        weight = self.config.score_weight
        best_index: int | None = None
        best_score = float("-inf")
        for index in range(len(candidates)):
            score = weight * precision_ranks[index] + (1.0 - weight) * generality_ranks[index]
            if score > best_score + 1e-12 or (
                abs(score - best_score) <= 1e-12
                and best_index is not None
                and precisions[index] > precisions[best_index]
            ):
                best_score = score
                best_index = index
        if best_index is None:
            return None
        if precisions[best_index] == 0.0:
            # A predicate matching only negative examples cannot explain the
            # observed behaviour.
            positive_indices = [i for i, p in enumerate(precisions) if p > 0.0]
            if not positive_indices:
                return None
            best_index = max(
                positive_indices,
                key=lambda i: weight * precision_ranks[i] + (1 - weight) * generality_ranks[i],
            )
        return candidates[best_index]

    @staticmethod
    def _satisfied_flags(
        candidate: CandidatePredicate, column, remaining: list[int]
    ) -> "list[int] | None":
        """Vectorised ``satisfied_by`` over one column's remaining rows.

        Returns ``None`` when no exact vector path applies (the caller then
        probes values one by one).  Semantics are identical to
        :meth:`~repro.ml.splits.CandidatePredicate.satisfied_by`:

        * ``==`` — value codes are assigned under dict equality, which is
          the same relation ``value == constant`` evaluates for the hashable
          constants the search emits; a NaN constant satisfies nothing.
        * ``<=`` / ``>`` — exact only on *clean* numeric columns: every
          present value is threshold-eligible (no bools, NaN or mixed
          types) and equals its float image (no int beyond 2**53 that
          shares its image with another), so comparing float images orders
          the rows exactly as ``satisfied_by`` does; missing rows are
          excluded by the eligibility mask.
        """
        operator = candidate.operator
        if operator == "==":
            constant = candidate.value
            if constant != constant:
                return [0] * len(remaining)
            code = column.code_of.get(constant, -1)
            if code < 0:
                # Not a stored value (candidates always are; be safe): the
                # -1 sentinel must not match missing rows' -1 codes.
                return [0] * len(remaining)
            return list(map(code.__eq__, map(column.codes.__getitem__, remaining)))
        if operator in ("<=", ">") and column.numeric and column.clean:
            threshold = candidate.value
            # value <= t  <=>  t >= value (and mirrored for >), giving a
            # bound method mappable at C level over the float image.
            compare = threshold.__ge__ if operator == "<=" else threshold.__lt__
            return list(
                map(
                    and_,
                    map(column.numeric_ok.__getitem__, remaining),
                    map(compare, map(column.floats.__getitem__, remaining)),
                )
            )
        return None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _infer_schema(self, log: ExecutionLog, query: PXQLQuery) -> FeatureSchema:
        from repro.core.examples import records_for_query

        records = records_for_query(log, query)
        if not records:
            raise ExplanationError("the log has no records of the queried entity kind")
        return infer_schema(records)

    def _pair_values(
        self, log: ExecutionLog, query: PXQLQuery, schema: FeatureSchema
    ) -> dict[str, FeatureValue]:
        assert query.first_id is not None and query.second_id is not None
        first = find_record(log, query, query.first_id)
        second = find_record(log, query, query.second_id)
        full_config = PairFeatureConfig(
            sim_threshold=self.config.pair_config.sim_threshold,
            is_same_tolerance=self.config.pair_config.is_same_tolerance,
            level=FeatureLevel.FULL,
        )
        return compute_pair_features(first, second, schema, full_config)

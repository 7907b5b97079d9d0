"""Evaluation harness: repeated 2-fold cross-validation (Section 6).

The paper's procedure: split the log into a training log and a test log by
assigning each *job* to the training side with 50% probability, generate
the explanation from the training log, measure its precision (and
relevance / generality) over the test log, and repeat ten times reporting
means and standard deviations.  This module implements that procedure plus
the specific sweeps behind each figure:

* precision vs. explanation width for several techniques (Fig. 3a, 3b);
* cross-workload training (Fig. 3c);
* precision vs. training-log size (Fig. 3d);
* relevance of generated despite clauses (Table 3, Fig. 4a);
* precision vs. generality trade-off (Fig. 4b);
* feature levels (Fig. 4c).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Sequence

from operator import and_, gt

from repro.core.examples import (
    Label,
    pair_kernel_for,
    related_index_batches,
    validate_query_features,
    records_for_query,
)
from repro.core.explanation import Explanation, ExplanationMetrics
from repro.core.explainer import PerfXplainConfig, PerfXplainExplainer
from repro.core.features import FeatureLevel, FeatureSchema, infer_schema
from repro.core.pairkernel import PairContext
from repro.core.pairs import PairFeatureConfig
from repro.core.pxql.ast import TRUE_PREDICATE
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.core.registry import Explainer
from repro.exceptions import EvaluationError
from repro.logs.store import ExecutionLog


# --------------------------------------------------------------------- #
# measuring an explanation on a held-out log
# --------------------------------------------------------------------- #


def measure_on_log(
    explanation: Explanation,
    query: PXQLQuery,
    log: ExecutionLog,
    schema: FeatureSchema | None = None,
    config: PairFeatureConfig | None = None,
    max_candidate_pairs: int | None = 500_000,
    rng: random.Random | None = None,
    workers: int = 1,
) -> ExplanationMetrics:
    """Relevance, precision and generality of an explanation over a log.

    The metrics are estimated over all pairs of the log that are related to
    the query (Definition 7).  Both the relatedness filter and the
    explanation's despite/because clauses run as vectorised kernel masks
    over batched candidate index pairs, so only the derived features the
    query and explanation mention are ever computed — column-at-a-time,
    never per pair.  Explanation atoms over features missing from the log's
    schema behave like the missing pair-feature values they would read:
    they satisfy nothing.
    """
    config = config if config is not None else PairFeatureConfig()
    rng = rng if rng is not None else random.Random(0)
    records = records_for_query(log, query)
    if schema is None:
        schema = infer_schema(records)
    validate_query_features(query, schema)

    in_context = 0
    in_context_expected = 0
    matching_because = 0
    matching_because_observed = 0

    kernel = pair_kernel_for(log, query, schema, config)
    observed_label = Label.OBSERVED
    for firsts, seconds, labels in related_index_batches(
        kernel, query, max_candidate_pairs, rng, workers=workers
    ):
        ctx = PairContext(firsts, seconds)
        despite = kernel.predicate_mask(explanation.despite, ctx)
        because = kernel.predicate_mask(explanation.because, ctx)
        observed_flags = bytearray(
            1 if label is observed_label else 0 for label in labels
        )
        both = bytearray(map(and_, despite, because))
        in_context += sum(despite)
        # Labels are binary: expected == related and not observed.
        in_context_expected += sum(map(gt, despite, observed_flags))
        matching_because += sum(both)
        matching_because_observed += sum(map(and_, both, observed_flags))

    relevance = in_context_expected / in_context if in_context else 0.0
    precision = matching_because_observed / matching_because if matching_because else 0.0
    generality = matching_because / in_context if in_context else 0.0
    return ExplanationMetrics(
        relevance=relevance,
        precision=precision,
        generality=generality,
        support=in_context,
    )


# --------------------------------------------------------------------- #
# sweep results
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunMetrics:
    """Metrics of one (technique, width, repetition) measurement."""

    technique: str
    width: int
    repetition: int
    metrics: ExplanationMetrics
    explanation: Explanation | None = None


@dataclass
class SweepResult:
    """All measurements of one experiment sweep."""

    runs: list[RunMetrics] = field(default_factory=list)

    def add(self, run: RunMetrics) -> None:
        """Record one measurement."""
        self.runs.append(run)

    def techniques(self) -> list[str]:
        """Technique names present, in first-seen order."""
        seen: list[str] = []
        for run in self.runs:
            if run.technique not in seen:
                seen.append(run.technique)
        return seen

    def widths(self) -> list[int]:
        """Widths present, sorted."""
        return sorted({run.width for run in self.runs})

    def select(self, technique: str, width: int | None = None) -> list[RunMetrics]:
        """All runs of a technique (optionally at one width)."""
        return [
            run
            for run in self.runs
            if run.technique == technique and (width is None or run.width == width)
        ]

    def _values(self, technique: str, width: int, metric: str) -> list[float]:
        return [getattr(run.metrics, metric) for run in self.select(technique, width)]

    def mean(self, technique: str, width: int, metric: str = "precision") -> float:
        """Mean of a metric across repetitions (0 when absent)."""
        values = self._values(technique, width, metric)
        return statistics.fmean(values) if values else 0.0

    def std(self, technique: str, width: int, metric: str = "precision") -> float:
        """Sample standard deviation of a metric across repetitions."""
        values = self._values(technique, width, metric)
        return statistics.stdev(values) if len(values) > 1 else 0.0

    def series(self, technique: str, metric: str = "precision") -> list[tuple[int, float, float]]:
        """(width, mean, std) points for one technique."""
        return [
            (width, self.mean(technique, width, metric), self.std(technique, width, metric))
            for width in self.widths()
        ]

    def format_table(self, metric: str = "precision") -> str:
        """A plain-text table: one row per width, one column per technique."""
        techniques = self.techniques()
        header = "width".ljust(8) + "".join(name.ljust(22) for name in techniques)
        lines = [header]
        for width in self.widths():
            cells = [str(width).ljust(8)]
            for name in techniques:
                mean = self.mean(name, width, metric)
                std = self.std(name, width, metric)
                cells.append(f"{mean:.3f} +/- {std:.3f}".ljust(22))
            lines.append("".join(cells))
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# train / test splitting helpers
# --------------------------------------------------------------------- #


def _forced_job_ids(log: ExecutionLog, query: PXQLQuery) -> set[str]:
    """Jobs that must be present on both sides of a split (pair of interest)."""
    forced: set[str] = set()
    if not query.has_pair:
        return forced
    if query.entity is EntityKind.JOB:
        forced.update({query.first_id, query.second_id})  # type: ignore[arg-type]
    else:
        for task_id in (query.first_id, query.second_id):
            task = log.find_task(task_id)  # type: ignore[arg-type]
            if task is not None:
                forced.add(task.job_id)
    return forced


def split_for_repetition(
    log: ExecutionLog,
    query: PXQLQuery,
    repetition: int,
    seed: int,
    train_fraction: float = 0.5,
) -> tuple[ExecutionLog, ExecutionLog]:
    """The train/test split used for one repetition of an experiment."""
    rng = random.Random((seed * 1_000_003) ^ repetition)
    forced = _forced_job_ids(log, query)
    return log.split_train_test(
        train_fraction=train_fraction, rng=rng, always_include_job_ids=forced
    )


# --------------------------------------------------------------------- #
# the sweeps behind each figure
# --------------------------------------------------------------------- #


def evaluate_precision_vs_width(
    log: ExecutionLog,
    query: PXQLQuery,
    techniques: Sequence[Explainer],
    widths: Sequence[int] = (0, 1, 2, 3, 4, 5),
    repetitions: int = 10,
    seed: int = 0,
    train_fraction: float = 0.5,
    pair_config: PairFeatureConfig | None = None,
    max_eval_pairs: int | None = 200_000,
) -> SweepResult:
    """Figures 3(a) and 3(b): explanation precision versus width.

    For every repetition the log is re-split; every technique generates an
    explanation of every width from the training log, and the explanation is
    scored on the test log.
    """
    if not query.has_pair:
        raise EvaluationError("the query must be bound to a pair of interest")
    if repetitions < 1:
        raise EvaluationError("repetitions must be >= 1")
    result = SweepResult()
    for repetition in range(repetitions):
        train, test = split_for_repetition(log, query, repetition, seed, train_fraction)
        test_schema = infer_schema(records_for_query(test, query))
        for technique in techniques:
            for width in widths:
                try:
                    explanation = technique.explain(train, query, width=width)
                except Exception:
                    # A technique can legitimately fail on a degenerate split
                    # (e.g. no related pairs); record nothing for that run.
                    continue
                metrics = measure_on_log(
                    explanation, query, test, schema=test_schema,
                    config=pair_config, max_candidate_pairs=max_eval_pairs,
                    rng=random.Random(seed + repetition),
                )
                result.add(
                    RunMetrics(
                        technique=technique.name,
                        width=width,
                        repetition=repetition,
                        metrics=metrics,
                        explanation=explanation,
                    )
                )
    return result


def evaluate_despite_relevance(
    log: ExecutionLog,
    query: PXQLQuery,
    widths: Sequence[int] = (0, 1, 2, 3, 4, 5),
    repetitions: int = 10,
    seed: int = 0,
    explainer: PerfXplainExplainer | None = None,
    pair_config: PairFeatureConfig | None = None,
    max_eval_pairs: int | None = 200_000,
) -> SweepResult:
    """Figure 4(a) / Table 3: relevance of PerfXplain-generated despite clauses.

    The user's despite clause is removed; PerfXplain generates a ``des'``
    clause of each width from the training log, and its relevance
    ``P(exp | des')`` is measured on the test log.  Width 0 corresponds to
    the empty despite clause (the "before" column of Table 3).
    """
    if not query.has_pair:
        raise EvaluationError("the query must be bound to a pair of interest")
    stripped = query.without_despite()
    explainer = explainer if explainer is not None else PerfXplainExplainer()
    result = SweepResult()
    for repetition in range(repetitions):
        train, test = split_for_repetition(log, query, repetition, seed)
        test_schema = infer_schema(records_for_query(test, query))
        for width in widths:
            if width == 0:
                despite = TRUE_PREDICATE
            else:
                try:
                    despite = explainer.generate_despite(train, stripped, width=width)
                except Exception:
                    continue
            explanation = Explanation(because=TRUE_PREDICATE, despite=despite,
                                      technique="PerfXplain-despite")
            metrics = measure_on_log(
                explanation, stripped, test, schema=test_schema,
                config=pair_config, max_candidate_pairs=max_eval_pairs,
                rng=random.Random(seed + repetition),
            )
            result.add(
                RunMetrics(
                    technique="PerfXplain-despite",
                    width=width,
                    repetition=repetition,
                    metrics=metrics,
                    explanation=explanation,
                )
            )
    return result


def relevance_of_user_despite(
    log: ExecutionLog,
    query: PXQLQuery,
    repetitions: int = 10,
    seed: int = 0,
    pair_config: PairFeatureConfig | None = None,
    max_eval_pairs: int | None = 200_000,
) -> list[float]:
    """Relevance of the *user-specified* despite clause (Section 6.4 baseline)."""
    stripped = query.without_despite()
    relevances = []
    for repetition in range(repetitions):
        _, test = split_for_repetition(log, query, repetition, seed)
        explanation = Explanation(because=TRUE_PREDICATE, despite=query.despite,
                                  technique="user-despite")
        metrics = measure_on_log(
            explanation, stripped, test, config=pair_config,
            max_candidate_pairs=max_eval_pairs, rng=random.Random(seed + repetition),
        )
        relevances.append(metrics.relevance)
    return relevances


def evaluate_log_fraction(
    log: ExecutionLog,
    query: PXQLQuery,
    techniques: Sequence[Explainer],
    fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
    width: int = 3,
    repetitions: int = 10,
    seed: int = 0,
    pair_config: PairFeatureConfig | None = None,
    max_eval_pairs: int | None = 200_000,
) -> dict[float, SweepResult]:
    """Figure 3(d): precision at a fixed width versus training-log size.

    For each fraction ``x`` a random ``x`` of the jobs form the training log
    and the remaining jobs form the test log.
    """
    if not query.has_pair:
        raise EvaluationError("the query must be bound to a pair of interest")
    results: dict[float, SweepResult] = {}
    forced = _forced_job_ids(log, query)
    for fraction in fractions:
        sweep = SweepResult()
        for repetition in range(repetitions):
            rng = random.Random((seed * 7_777_777) ^ repetition ^ hash(fraction) & 0xFFFF)
            train = log.sample_jobs(fraction, rng=rng, always_include_job_ids=forced)
            train_ids = {job.job_id for job in train.jobs}
            test = log.filter_jobs(lambda job: job.job_id not in train_ids or job.job_id in forced)
            test_schema = infer_schema(records_for_query(test, query))
            for technique in techniques:
                try:
                    explanation = technique.explain(train, query, width=width)
                except Exception:
                    continue
                metrics = measure_on_log(
                    explanation, query, test, schema=test_schema,
                    config=pair_config, max_candidate_pairs=max_eval_pairs,
                    rng=random.Random(seed + repetition),
                )
                sweep.add(
                    RunMetrics(
                        technique=technique.name,
                        width=width,
                        repetition=repetition,
                        metrics=metrics,
                        explanation=explanation,
                    )
                )
        results[fraction] = sweep
    return results


def evaluate_feature_levels(
    log: ExecutionLog,
    query: PXQLQuery,
    levels: Sequence[FeatureLevel] = (
        FeatureLevel.IS_SAME_ONLY,
        FeatureLevel.COMPARISON,
        FeatureLevel.FULL,
    ),
    widths: Sequence[int] = (0, 1, 2, 3, 4, 5),
    repetitions: int = 10,
    seed: int = 0,
    base_config: PerfXplainConfig | None = None,
    max_eval_pairs: int | None = 200_000,
) -> SweepResult:
    """Figure 4(c): PerfXplain precision when restricted to each feature level."""
    base_config = base_config if base_config is not None else PerfXplainConfig()
    techniques = []
    for level in levels:
        config = PerfXplainConfig(
            width=base_config.width,
            score_weight=base_config.score_weight,
            sample_size=base_config.sample_size,
            feature_level=level,
            pair_config=base_config.pair_config,
            min_examples=base_config.min_examples,
        )
        explainer = PerfXplainExplainer(config)
        explainer.name = f"PerfXplain-level{int(level)}"
        techniques.append(explainer)
    return evaluate_precision_vs_width(
        log, query, techniques, widths=widths, repetitions=repetitions, seed=seed,
        max_eval_pairs=max_eval_pairs,
    )


def evaluate_cross_workload(
    log: ExecutionLog,
    query: PXQLQuery,
    train_script: str = "simple-groupby.pig",
    test_script: str = "simple-filter.pig",
    techniques: Sequence[Explainer] = (),
    widths: Sequence[int] = (0, 1, 2, 3, 4, 5),
    repetitions: int = 10,
    seed: int = 0,
    max_eval_pairs: int | None = 200_000,
) -> SweepResult:
    """Figure 3(c): train on one kind of job, explain and test on another.

    The training log contains only ``train_script`` jobs plus the pair of
    interest (which runs ``test_script``); the test log contains only
    ``test_script`` jobs.
    """
    if not query.has_pair:
        raise EvaluationError("the query must be bound to a pair of interest")
    forced = _forced_job_ids(log, query)
    result = SweepResult()
    for repetition in range(repetitions):
        rng = random.Random((seed * 31337) ^ repetition)
        train_pool = log.filter_jobs(
            lambda job: job.features.get("pig_script") == train_script
            or job.job_id in forced
        )
        # Re-sample half of the training pool each repetition so that the
        # repetitions differ, mirroring the 2-fold splits of the other plots.
        train = train_pool.sample_jobs(0.5, rng=rng, always_include_job_ids=forced)
        test = log.filter_jobs(
            lambda job: job.features.get("pig_script") == test_script
        )
        test_schema = infer_schema(records_for_query(test, query))
        for technique in techniques:
            for width in widths:
                try:
                    explanation = technique.explain(train, query, width=width)
                except Exception:
                    continue
                metrics = measure_on_log(
                    explanation, query, test, schema=test_schema,
                    max_candidate_pairs=max_eval_pairs,
                    rng=random.Random(seed + repetition),
                )
                result.add(
                    RunMetrics(
                        technique=technique.name,
                        width=width,
                        repetition=repetition,
                        metrics=metrics,
                        explanation=explanation,
                    )
                )
    return result


def precision_generality_points(
    sweep: SweepResult, technique: str
) -> list[tuple[float, float]]:
    """(generality, precision) mean points per width for one technique (Fig. 4b)."""
    points = []
    for width in sweep.widths():
        if width == 0:
            continue
        points.append(
            (sweep.mean(technique, width, "generality"),
             sweep.mean(technique, width, "precision"))
        )
    return points

"""The diff engine: explain a performance regression between two runs.

:class:`DiffEngine` is the cross-log generalization of a single PerfXplain
query.  Given a *before* and an *after* :class:`~repro.logs.store.ExecutionLog`
it:

1. merges the logs under namespaced ids (:class:`repro.diff.view.CrossLogView`),
2. auto-generates the job-level PXQL comparison (pinning the workload
   features the two runs actually share),
3. picks the highest-contrast *cross-run* pair of interest with the existing
   sharded pair kernels — deterministic for every worker count,
4. learns an explanation for that pair over the merged log,
5. runs every deterministic detector on each side independently,
6. computes config/metric deltas between the runs, and
7. emits a JSON-round-trippable :class:`~repro.diff.report.DiffReport`.

Every step is a pure function of ``(before, after, config, seed, technique,
width)``: the same inputs produce byte-identical reports whether the engine
is called directly, through :class:`repro.service.PerfXplainService`, over
HTTP, or from the CLI, and for any ``pair_workers`` setting.
"""

from __future__ import annotations

import random
from operator import and_
from typing import Iterable, Sequence

from repro.core.api import PerfXplainSession
from repro.core.examples import (
    PairPick,
    observed_flags,
    pair_kernel_for,
    related_index_batches,
    validate_query_features,
)
from repro.core.explainer import PerfXplainConfig
from repro.core.features import FeatureSchema, infer_schema
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.core.registry import create_explainer
from repro.detectors import DETECTOR_TECHNIQUES
from repro.diff.report import (
    IMPROVEMENT,
    REGRESSION,
    SIMILAR,
    DetectorOutcome,
    DiffReport,
    FeatureDelta,
    RunSummary,
)
from repro.diff.view import AFTER_RUN, BEFORE_RUN, CrossLogView
from repro.exceptions import DiffError, ReproError
from repro.logs.records import ExecutionRecord
from repro.logs.store import ExecutionLog

#: Median job-duration ratio beyond which the runs count as different.
DIRECTION_THRESHOLD = 1.1

#: Most-recognisable workload identities, pinned first in the auto-generated
#: despite clause when constant across both runs.
_PREFERRED_PINNED = ("pig_script", "app_name")

#: At most this many ``_isSame = T`` atoms are pinned.
_MAX_PINNED = 3

#: Numeric deltas below this signed relative change are noise, not evidence.
MIN_RELATIVE_DELTA = 0.05

#: The report keeps at most this many deltas, largest relative change first.
MAX_DELTAS = 10

_EPSILON = 1e-9


def _median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of middles for even counts)."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _pinned_features(
    jobs: Sequence[ExecutionRecord], schema: FeatureSchema
) -> list[str]:
    """Nominal raw features constant and non-missing across ALL merged jobs.

    Pinning only constants means the despite clause documents what the runs
    share without filtering out a single cross-run candidate pair.
    """
    constant = []
    for name in schema.nominal_features():
        values = {job.features.get(name) for job in jobs}
        if len(values) == 1 and None not in values:
            constant.append(name)
    preferred = [name for name in _PREFERRED_PINNED if name in constant]
    rest = sorted(name for name in constant if name not in _PREFERRED_PINNED)
    return (preferred + rest)[:_MAX_PINNED]


class DiffEngine:
    """Compare two execution logs and explain the difference.

    :param before: the baseline run.
    :param after: the run under suspicion.
    :param config: explanation configuration; ``pair_workers`` controls how
        many processes the cross-run candidate filtering shards across
        (bit-identical output for every setting).
    :param seed: seed for sampling inside the learned explainer.
    :param technique: registered learned technique for step 4.
    :param width: explanation width (defaults to the configured width).
    :param detectors: deterministic detector techniques run on each side.
    :param max_candidate_pairs: safety valve for the cross-run pair scan.
    """

    def __init__(
        self,
        before: ExecutionLog,
        after: ExecutionLog,
        config: PerfXplainConfig | None = None,
        seed: int = 0,
        technique: str = "perfxplain",
        width: int | None = None,
        detectors: Iterable[str] = DETECTOR_TECHNIQUES,
        max_candidate_pairs: int | None = 500_000,
        direction_threshold: float = DIRECTION_THRESHOLD,
    ) -> None:
        self.before = before
        self.after = after
        self.config = config if config is not None else PerfXplainConfig()
        self.seed = seed
        self.technique = technique
        self.width = width
        self.detectors = tuple(detectors)
        self.max_candidate_pairs = max_candidate_pairs
        self.direction_threshold = direction_threshold
        self._view: CrossLogView | None = None

    @property
    def view(self) -> CrossLogView:
        """The merged cross-log view (built on first use)."""
        if self._view is None:
            self._view = CrossLogView(self.before, self.after)
        return self._view

    # ------------------------------------------------------------------ #
    # the auto-generated comparison
    # ------------------------------------------------------------------ #

    def comparison_query(self) -> PXQLQuery:
        """The job-level cross-run PXQL comparison this diff answers.

        DESPITE pins the nominal workload features both runs share (so the
        question reads "same script, same setup — why slower?"), OBSERVED is
        ``duration_compare = GT`` and EXPECTED is ``SIM`` — the paper's
        canonical why-slower shape, ranging over the merged log.
        """
        merged = self.view.merged
        schema = infer_schema(merged.jobs)
        pinned = _pinned_features(merged.jobs, schema)
        despite = Predicate.conjunction(
            [Comparison(f"{name}_isSame", Operator.EQ, "T") for name in pinned]
        )
        return PXQLQuery(
            entity=EntityKind.JOB,
            despite=despite,
            observed=Predicate.of(Comparison("duration_compare", Operator.EQ, "GT")),
            expected=Predicate.of(Comparison("duration_compare", Operator.EQ, "SIM")),
            name="CrossLogDiff",
        )

    # ------------------------------------------------------------------ #
    # cross-run pair of interest
    # ------------------------------------------------------------------ #

    def find_cross_pair(
        self, query: PXQLQuery, regressed_run: str
    ) -> tuple[str, str] | None:
        """The highest-contrast OBSERVED pair that straddles the run boundary.

        The same contrast rule as
        :func:`repro.core.queries.find_pair_of_interest` (max
        ``|log(d1/d2)|``, strict improvement, first wins; the shared
        :class:`~repro.core.examples.PairPick`), restricted to pairs whose
        members come from different runs with the *first* (the slower, by
        OBSERVED = GT) in ``regressed_run``.  Returns namespaced ids, or
        ``None`` when no cross-run pair satisfies the query.

        Sharded via ``config.pair_workers``; the candidate stream is
        byte-identical for every worker count, so the selected pair is too.
        """
        merged = self.view.merged
        schema = infer_schema(merged.jobs)
        validate_query_features(query, schema)
        kernel = pair_kernel_for(merged, query, schema, self.config.pair_config)
        boundary = self.view.job_boundary
        # Row indices below the boundary are before-jobs: the slower
        # (first) member must sit in the regressed run, the other across.
        if regressed_run == AFTER_RUN:
            first_side, second_side = boundary.__le__, boundary.__gt__
        else:
            first_side, second_side = boundary.__gt__, boundary.__le__
        pick = PairPick(kernel.block.records)
        for firsts, seconds, labels in related_index_batches(
            kernel,
            query,
            self.max_candidate_pairs,
            random.Random(self.seed),
            workers=self.config.pair_workers,
        ):
            cross = map(and_, map(first_side, firsts), map(second_side, seconds))
            pick.scan(firsts, seconds, bytes(map(and_, observed_flags(labels), cross)))
        return pick.ids()

    # ------------------------------------------------------------------ #
    # detectors and deltas
    # ------------------------------------------------------------------ #

    def _detector_outcomes(self) -> tuple[DetectorOutcome, ...]:
        """Every detector's verdict on each side, in a fixed order."""
        # Imported here, not at module level: the wire protocol imports the
        # report types, so a top-level service import would be circular.
        from repro.service.protocol import error_code_for

        outcomes = []
        for run, log in ((BEFORE_RUN, self.before), (AFTER_RUN, self.after)):
            facade = PerfXplainSession(log, config=self.config, seed=self.seed)
            for name in self.detectors:
                query_text = create_explainer(name).default_query
                try:
                    explanation = facade.explain(query_text, technique=name)
                except ReproError as error:
                    outcomes.append(
                        DetectorOutcome(
                            technique=name,
                            run=run,
                            fired=False,
                            reason=str(error),
                            code=error_code_for(error),
                        )
                    )
                else:
                    outcomes.append(
                        DetectorOutcome(
                            technique=name,
                            run=run,
                            fired=True,
                            explanation=explanation,
                        )
                    )
        return tuple(outcomes)

    def _feature_deltas(self) -> tuple[FeatureDelta, ...]:
        """Config/metric features whose distributions moved between runs."""
        schema = infer_schema(
            list(self.before.jobs) + list(self.after.jobs), include_duration=False
        )
        deltas = []
        for name in schema.names():
            before_values = [
                job.features.get(name)
                for job in self.before.jobs
                if job.features.get(name) is not None
            ]
            after_values = [
                job.features.get(name)
                for job in self.after.jobs
                if job.features.get(name) is not None
            ]
            if schema.is_numeric(name):
                before_median = _median(before_values) if before_values else None
                after_median = _median(after_values) if after_values else None
                if before_median is None and after_median is None:
                    continue
                if before_median is None or after_median is None:
                    change = 1.0  # the feature appeared or disappeared
                else:
                    scale = max(abs(before_median), abs(after_median), _EPSILON)
                    change = (after_median - before_median) / scale
                if abs(change) < MIN_RELATIVE_DELTA:
                    continue
                deltas.append(
                    FeatureDelta(
                        feature=name,
                        kind="numeric",
                        before=before_median,
                        after=after_median,
                        relative_change=change,
                    )
                )
            else:
                before_set = sorted({str(value) for value in before_values})
                after_set = sorted({str(value) for value in after_values})
                if before_set == after_set:
                    continue
                deltas.append(
                    FeatureDelta(
                        feature=name,
                        kind="nominal",
                        before=before_set,
                        after=after_set,
                        relative_change=1.0,
                    )
                )
        deltas.sort(key=lambda delta: (-abs(delta.relative_change), delta.feature))
        return tuple(deltas[:MAX_DELTAS])

    # ------------------------------------------------------------------ #
    # the report
    # ------------------------------------------------------------------ #

    def report(self) -> DiffReport:
        """Run the full diff and emit the structured report.

        :raises DiffError: when either side has no job records — there is
            no job-level distribution to compare.
        """
        for run, log in ((BEFORE_RUN, self.before), (AFTER_RUN, self.after)):
            if log.num_jobs == 0:
                raise DiffError(
                    f"diff requires job records on both sides; "
                    f"the {run} log has none"
                )

        before_median = _median([job.duration for job in self.before.jobs])
        after_median = _median([job.duration for job in self.after.jobs])
        ratio = after_median / max(before_median, _EPSILON)
        if ratio > self.direction_threshold:
            direction = REGRESSION
        elif ratio < 1.0 / self.direction_threshold:
            direction = IMPROVEMENT
        else:
            direction = SIMILAR
        regressed_run = AFTER_RUN if ratio >= 1.0 else BEFORE_RUN

        query = self.comparison_query()
        pair = self.find_cross_pair(query, regressed_run)

        explanation = None
        explanation_error = None
        first_id = second_id = None
        if pair is None:
            explanation_error = (
                "no cross-run pair satisfies the despite and observed "
                "clauses of the generated comparison"
            )
        else:
            first_id, second_id = pair
            session = PerfXplainSession(
                self.view.merged, config=self.config, seed=self.seed
            )
            try:
                explanation = session.explain(
                    query.with_pair(first_id, second_id),
                    width=self.width,
                    technique=self.technique,
                )
            except ReproError as error:
                explanation_error = str(error)

        return DiffReport(
            before=RunSummary(
                run=BEFORE_RUN,
                num_jobs=self.before.num_jobs,
                num_tasks=self.before.num_tasks,
                median_job_duration=before_median,
            ),
            after=RunSummary(
                run=AFTER_RUN,
                num_jobs=self.after.num_jobs,
                num_tasks=self.after.num_tasks,
                median_job_duration=after_median,
            ),
            direction=direction,
            duration_ratio=ratio,
            query=str(query),
            first_id=first_id,
            second_id=second_id,
            explanation=explanation,
            explanation_error=explanation_error,
            detectors=self._detector_outcomes(),
            deltas=self._feature_deltas(),
        )

"""The two PXQL queries evaluated in the paper, plus pair-of-interest helpers.

Section 6.2 defines:

* **WhyLastTaskFaster** — a task-level query: despite processing a similar
  amount of data, on the same host, within the same job, the last task was
  faster than an earlier task; the user expected similar durations.
* **WhySlowerDespiteSameNumInstances** — a job-level query: despite running
  the same Pig script on the same number of instances, one job was much
  slower; the user expected similar durations.

Feature names follow this repository's execution-log schema (``job_id``
instead of the paper's ``jobID``, ``pig_script`` instead of ``pigscript``).
"""

from __future__ import annotations

import random

from repro.core.examples import (
    PAIR_SEARCH_CANDIDATES,
    PairPick,
    no_pair_error,
    observed_flags,
    pair_kernel_for,
    records_for_query,
    related_index_batches,
    validate_query_features,
)
from repro.core.features import FeatureSchema, infer_schema
from repro.core.pairs import PairFeatureConfig
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.logs.store import ExecutionLog

#: Pair-feature value constants (duplicated here for readable query builders).
_T = "T"
_SIM = "SIM"
_LT = "LT"
_GT = "GT"


def why_last_task_faster(
    first_id: str | None = None, second_id: str | None = None
) -> PXQLQuery:
    """The paper's first evaluation query (task level).

    "Why did task T1 run slower than task T2 (the last task on the host),
    even though both belong to the same job, process a similar amount of
    data and ran on the same host?"  The pair of interest is ordered so
    that the *first* task is the slower, earlier one; the observed relation
    is that the second (last) task was faster — ``duration_compare = GT``
    read as T1's duration being greater than T2's.

    The despite clause additionally pins ``task_type_isSame = T`` (the
    paper's Example 5 is explicitly about map tasks; without this atom a
    map/reduce pair that happens to read similar byte counts could slip in).
    """
    despite = Predicate.of(
        Comparison("job_id_isSame", Operator.EQ, _T),
        Comparison("task_type_isSame", Operator.EQ, _T),
        Comparison("inputsize_compare", Operator.EQ, _SIM),
        Comparison("hostname_isSame", Operator.EQ, _T),
    )
    observed = Predicate.of(Comparison("duration_compare", Operator.EQ, _GT))
    expected = Predicate.of(Comparison("duration_compare", Operator.EQ, _SIM))
    return PXQLQuery(
        entity=EntityKind.TASK,
        despite=despite,
        observed=observed,
        expected=expected,
        first_id=first_id,
        second_id=second_id,
        name="WhyLastTaskFaster",
    )


def why_slower_despite_same_num_instances(
    first_id: str | None = None, second_id: str | None = None
) -> PXQLQuery:
    """The paper's second evaluation query (job level).

    "Why was job J1 much slower than job J2, even though both run the same
    Pig script on the same number of instances?"
    """
    despite = Predicate.of(
        Comparison("numinstances_isSame", Operator.EQ, _T),
        Comparison("pig_script_isSame", Operator.EQ, _T),
    )
    observed = Predicate.of(Comparison("duration_compare", Operator.EQ, _GT))
    expected = Predicate.of(Comparison("duration_compare", Operator.EQ, _SIM))
    return PXQLQuery(
        entity=EntityKind.JOB,
        despite=despite,
        observed=observed,
        expected=expected,
        first_id=first_id,
        second_id=second_id,
        name="WhySlowerDespiteSameNumInstances",
    )


#: The paper's queries, keyed by their evaluation-section names.
PAPER_QUERIES = {
    "WhyLastTaskFaster": why_last_task_faster,
    "WhySlowerDespiteSameNumInstances": why_slower_despite_same_num_instances,
}


def find_pair_of_interest(
    log: ExecutionLog,
    query: PXQLQuery,
    schema: FeatureSchema | None = None,
    config: PairFeatureConfig | None = None,
    rng: random.Random | None = None,
    max_candidate_pairs: int | None = PAIR_SEARCH_CANDIDATES,
) -> tuple[str, str]:
    """Pick a pair of executions that the query could legitimately be about.

    The pair must be related to the query and labeled OBSERVED (it satisfies
    the despite and observed clauses).  Among all such pairs the first one
    with the largest runtime contrast (``|log(d1 / d2)|``,
    :func:`~repro.core.examples.highest_contrast`) is returned, which gives
    the evaluation a clear, reproducible pair of interest.  A session reads
    the same pick off its training matrix's pass
    (:meth:`~repro.core.examples.TrainingMatrix.pair_of_interest`).

    :raises ExplanationError: if no pair in the log matches the query.
    """
    rng = rng if rng is not None else random.Random(0)
    if schema is None:
        schema = infer_schema(records_for_query(log, query))
    config = config if config is not None else PairFeatureConfig()
    validate_query_features(query, schema)
    kernel = pair_kernel_for(log, query, schema, config)
    pick = PairPick(kernel.block.records)
    for firsts, seconds, labels in related_index_batches(
        kernel, query, max_candidate_pairs, rng
    ):
        pick.scan(firsts, seconds, observed_flags(labels))
    pair = pick.ids()
    if pair is None:
        raise no_pair_error(query)
    return pair

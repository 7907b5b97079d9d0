"""On-demand derivation: a technique pays only for the pair features it reads.

A :class:`~repro.core.examples.TrainingMatrix` derives a raw feature's
Table-1 columns through :meth:`PairKernel.derived_columns` the first time
one of them is read.  These tests count those calls: a detector answer
derives only the raw features it cites, and racing readers of one cold
matrix derive each raw feature exactly once and see the serial columns.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

# Randomized-log builder and NaN-aware column equality shared with the
# kernel differential suite.
from test_pair_pipeline_equivalence import _columns_equal, random_log

from repro.core.api import PerfXplainSession
from repro.core.baselines import SimButDiffExplainer
from repro.core.examples import construct_training_matrix
from repro.core.explainer import PerfXplainExplainer
from repro.core.features import infer_schema
from repro.core.pairkernel import PairKernel
from repro.core.pairs import raw_feature_of
from repro.core.pxql.parser import parse_query
from repro.core.queries import find_pair_of_interest
from repro.ingest import ingest_path

JHIST_FIXTURE = (
    Path(__file__).resolve().parent.parent / "logs" / "fixtures"
    / "job_201207121733_0001.jhist"
)

TASK_QUERY = """
    FOR TASKS ?, ?
    DESPITE job_id_isSame = T AND task_type_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""

JOB_QUERY = """
    FOR JOBS ?, ?
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


@pytest.fixture
def derivations(monkeypatch):
    """Every raw feature :meth:`PairKernel.derived_columns` is called for."""
    calls: Counter = Counter()
    lock = threading.Lock()
    derive = PairKernel.derived_columns

    def counted(self, ctx, raw, level):
        with lock:
            calls[raw] += 1
        return derive(self, ctx, raw, level)

    monkeypatch.setattr(PairKernel, "derived_columns", counted)
    return calls


@pytest.mark.parametrize("technique", ["detect-skew", "detect-straggler"])
def test_a_detector_derives_only_the_features_it_cites(derivations, technique):
    session = PerfXplainSession(ingest_path(JHIST_FIXTURE).log)
    explanation = session.explain(TASK_QUERY, technique=technique)
    cited = {
        raw_feature_of(feature)
        for feature in explanation.despite.features() + explanation.because.features()
    }
    assert cited
    assert derivations == Counter(cited)
    # The matrix stays cached; asking again derives nothing new.
    session.explain(TASK_QUERY, technique=technique, width=1)
    assert derivations == Counter(cited)


def test_racing_readers_derive_each_raw_feature_once(derivations):
    """Racing column readers and explanations over one cold matrix.

    Besides reading columns, every reader explains one pair from the shared
    matrix at widths 1-5 (in an order of its own) with PerfXplain and with
    SimButDiff, calling the explainers directly, with no technique lock.
    So the columns' lazily built codes, value bitsets and order gathers,
    and the matrix's stored clause growth, are read and replaced by racing
    threads too; every answer must equal the one a fresh matrix gives.
    """
    log = random_log(5)
    schema = infer_schema(log.jobs)
    query = parse_query(JOB_QUERY)
    bound = query.with_pair(*find_pair_of_interest(log, query, schema))
    widths = range(1, 6)

    def cold_matrix():
        return construct_training_matrix(log, query, schema, rng=random.Random(5))

    def explain(matrix, width: int) -> str:
        return "\n".join(
            technique().explain(log, bound, schema=schema, width=width, examples=matrix).to_json()
            for technique in (PerfXplainExplainer, SimButDiffExplainer)
        )

    def explain_widths(matrix, offset: int) -> dict[int, str]:
        order = list(widths)
        random.Random(offset).shuffle(order)
        return {width: explain(matrix, width) for width in order}

    serial = cold_matrix()
    features = list(serial.matrix.features)
    expected = {feature: serial.matrix.column(feature).raw for feature in features}
    serial_answer = {widths[0]: explain(serial, widths[0])}
    derived_serially = dict(derivations)
    serial_answer.update({width: explain(cold_matrix(), width) for width in widths[1:]})
    derivations.clear()

    matrix = cold_matrix()
    threads = 4 * max(2, os.cpu_count() or 1)
    barrier = threading.Barrier(threads)
    seen: dict[int, dict] = {}
    answers: dict[int, str] = {}
    errors: list[BaseException] = []

    def read(offset: int) -> None:
        try:
            barrier.wait(timeout=30)
            if offset % 2:
                answers[offset] = explain_widths(matrix, offset)
            order = features[offset % len(features):] + features[: offset % len(features)]
            seen[offset] = {feature: matrix.matrix.column(feature).raw for feature in order}
            if not offset % 2:
                answers[offset] = explain_widths(matrix, offset)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=read, args=(index * 7,)) for index in range(threads)]
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 60.0
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers), "readers did not finish in time"
    assert errors == []

    assert derivations == Counter(derived_serially)
    assert set(derivations.values()) == {1}
    assert len(seen) == threads
    assert answers == {offset: serial_answer for offset in seen}
    for columns in seen.values():
        for feature in features:
            # One published column per feature, equal to the serial one.
            assert columns[feature] is matrix.matrix.column(feature).raw
            assert _columns_equal(columns[feature], expected[feature]), feature

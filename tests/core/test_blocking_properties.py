"""Property tests for blocking-group semantics (despite-clause blocking).

Blocking is a pure optimisation: pairs are only enumerated within groups of
records agreeing on every raw feature whose exact equality the despite
clause implies.  These properties pin down its contract over random schemas
and record populations:

* numeric raw features are never blocked (tolerance-based ``isSame`` could
  split genuinely "same" float pairs);
* records missing a blocked value are dropped (they can never satisfy
  ``isSame = T``);
* the kernel path's code-keyed grouping
  (:func:`repro.core.pairkernel.blocking_group_indices`) produces exactly
  the reference's value-keyed groups, including group order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.examples import _blocking_features
from repro.core.features import FeatureKind, FeatureSchema
from repro.core.pairkernel import blocking_group_indices
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.logs.records import JobRecord
from repro.logs.store import ExecutionLog

from tests.oracles.pairref import group_records_reference

#: Candidate raw features (name, kind, value pool).  Pools are tiny to
#: force collisions, and every pool includes missing values; ``epsilon``
#: includes NaN (a nominal-typed float), which blocking must drop exactly
#: like a missing value — NaN can never satisfy ``isSame = T``.
FEATURE_POOLS = {
    "alpha": (FeatureKind.NOMINAL, ["a", "b", "c", None]),
    "beta": (FeatureKind.NOMINAL, [True, False, 1, 0, None]),
    "gamma": (FeatureKind.NUMERIC, [1, 2, 2.0, None]),
    "delta": (FeatureKind.NUMERIC, [0.5, 3.5, None]),
    "epsilon": (FeatureKind.NOMINAL, ["x", None, float("nan")]),
}


@st.composite
def schema_records_and_query(draw):
    feature_names = draw(
        st.lists(st.sampled_from(sorted(FEATURE_POOLS)), min_size=1, max_size=5,
                 unique=True)
    )
    schema = FeatureSchema()
    for name in feature_names:
        schema.add(name, FEATURE_POOLS[name][0])
    schema.add("duration", FeatureKind.NUMERIC)

    n_records = draw(st.integers(min_value=0, max_value=25))
    records = []
    for index in range(n_records):
        features = {
            name: draw(st.sampled_from(FEATURE_POOLS[name][1]))
            for name in feature_names
        }
        records.append(
            JobRecord(job_id=f"job_{index}", features=features, duration=1.0 + index)
        )

    # The despite clause mixes isSame = T atoms (blocking candidates for
    # nominal raws), non-blocking operators/values, and unknown features.
    atom_pool = []
    for name in feature_names:
        atom_pool.append(Comparison(f"{name}_isSame", Operator.EQ, "T"))
        atom_pool.append(Comparison(f"{name}_isSame", Operator.EQ, "F"))
        atom_pool.append(Comparison(f"{name}_isSame", Operator.NE, "T"))
    atom_pool.append(Comparison("ghost_isSame", Operator.EQ, "T"))
    atoms = draw(st.lists(st.sampled_from(atom_pool), max_size=4, unique_by=id))
    query = PXQLQuery(
        entity=EntityKind.JOB,
        despite=Predicate.conjunction(atoms),
        observed=Predicate.of(Comparison("duration_compare", Operator.EQ, "GT")),
        expected=Predicate.of(Comparison("duration_compare", Operator.EQ, "SIM")),
    )
    return schema, records, query


@settings(max_examples=120, deadline=None)
@given(data=schema_records_and_query())
def test_numeric_features_are_never_blocked(data):
    schema, _, query = data
    blocking = _blocking_features(query, schema)
    for raw in blocking:
        assert raw in schema
        assert not schema.is_numeric(raw)


@settings(max_examples=120, deadline=None)
@given(data=schema_records_and_query())
def test_blocking_only_from_is_same_equals_t_atoms(data):
    schema, _, query = data
    blocking = _blocking_features(query, schema)
    implied = {
        atom.feature[: -len("_isSame")]
        for atom in query.despite.atoms
        if atom.operator is Operator.EQ
        and atom.value == "T"
        and atom.feature.endswith("_isSame")
    }
    assert set(blocking) <= implied


@settings(max_examples=120, deadline=None)
@given(data=schema_records_and_query())
def test_groups_drop_missing_and_agree_on_blocked_values(data):
    schema, records, query = data
    blocking = _blocking_features(query, schema)
    groups = group_records_reference(records, blocking)
    grouped = [record for group in groups for record in group]
    if blocking:
        for record in records:
            missing = any(
                value is None or value != value
                for value in (record.features.get(name) for name in blocking)
            )
            assert (record in grouped) == (not missing)
        for group in groups:
            anchor = group[0]
            for record in group:
                for name in blocking:
                    assert record.features.get(name) == anchor.features.get(name)
    else:
        assert grouped == list(records)


@settings(max_examples=120, deadline=None)
@given(data=schema_records_and_query())
def test_kernel_groups_match_reference_groups(data):
    schema, records, query = data
    blocking = _blocking_features(query, schema)
    log = ExecutionLog(jobs=list(records))
    block = log.record_block(schema, kind="job")
    kernel_groups = blocking_group_indices(block, blocking)
    reference_groups = group_records_reference(records, blocking)
    as_records = [[records[index] for index in group] for group in kernel_groups]
    assert as_records == reference_groups


@settings(max_examples=60, deadline=None)
@given(data=schema_records_and_query())
def test_chunked_kernel_groups_match_reference_groups(data):
    """Chunked blocks group identically — global codes span chunk edges."""
    schema, records, query = data
    blocking = _blocking_features(query, schema)
    log = ExecutionLog(jobs=list(records))
    log.configure_blocks(chunk_rows=5, max_resident_chunks=2)
    block = log.record_block(schema, kind="job")
    kernel_groups = blocking_group_indices(block, blocking)
    reference_groups = group_records_reference(records, blocking)
    as_records = [[records[index] for index in group] for group in kernel_groups]
    assert as_records == reference_groups

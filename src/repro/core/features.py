"""Raw-feature schema: kinds, domains and feature levels.

PerfXplain treats each execution as a flat feature vector.  Before pair
features can be computed we need to know, per raw feature, whether it is
numeric (so that ``compare`` features and threshold predicates make sense)
or nominal (so that ``diff`` features and equality predicates apply).  The
schema is inferred from the log, with an override list for features whose
numeric representation is really an identifier (e.g. ``instance_index``).

Feature *levels* implement Section 6.8:

* level 1 — only the ``isSame`` features;
* level 2 — ``isSame`` + ``compare`` + ``diff`` features;
* level 3 — everything, including the copied base features.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import UnknownFeatureError
from repro.logs.records import ExecutionRecord, FeatureValue


class FeatureKind(enum.Enum):
    """Whether a raw feature is numeric or nominal."""

    NUMERIC = "numeric"
    NOMINAL = "nominal"


class FeatureLevel(enum.IntEnum):
    """The three feature sets compared in the paper's Section 6.8."""

    IS_SAME_ONLY = 1
    COMPARISON = 2
    FULL = 3


#: The performance metric; never available to explanations.
PERFORMANCE_METRIC = "duration"

#: Raw features that look numeric but are identifiers or wall-clock stamps
#: whose *magnitude* carries no meaning; they are treated as nominal so that
#: threshold predicates over them are never generated.
DEFAULT_NOMINAL_OVERRIDES: frozenset[str] = frozenset(
    {"instance_index", "grid_repetition"}
)

#: Provenance stamps written into every record: the workload runner's
#: replay/ground-truth labels (``engine_seed``/``scenario``/
#: ``scenario_variant``) and the ingestion layer's source-file stamps
#: (``source_format``/``source_path``, see :mod:`repro.ingest`), plus the
#: cross-log diff layer's ``run`` stamp (``before``/``after``, see
#: :mod:`repro.diff`).  They label the data rather than describe the
#: execution, so schema inference drops them entirely — an explanation must
#: never cite the scenario label that generated its own ground truth, the
#: file a record came from, nor which side of a diff a record sits on.
DEFAULT_EXCLUDED_FEATURES: frozenset[str] = frozenset(
    {"engine_seed", "run", "scenario", "scenario_variant", "source_format", "source_path"}
)


@dataclass(frozen=True)
class FeatureSpec:
    """Kind (and optionally the observed domain) of one raw feature."""

    name: str
    kind: FeatureKind

    @property
    def is_numeric(self) -> bool:
        """Whether the feature is numeric."""
        return self.kind is FeatureKind.NUMERIC


@dataclass
class FeatureSchema:
    """The set of raw features PerfXplain knows about for one entity kind."""

    specs: dict[str, FeatureSpec] = field(default_factory=dict)

    def __contains__(self, name: str) -> bool:
        return name in self.specs

    def __len__(self) -> int:
        return len(self.specs)

    def names(self) -> list[str]:
        """All raw feature names, sorted."""
        return sorted(self.specs)

    def spec(self, name: str) -> FeatureSpec:
        """The spec of one feature; raises if unknown."""
        if name not in self.specs:
            raise UnknownFeatureError(name, list(self.specs))
        return self.specs[name]

    def is_numeric(self, name: str) -> bool:
        """Whether a raw feature is numeric."""
        return self.spec(name).is_numeric

    def add(self, name: str, kind: FeatureKind) -> None:
        """Register (or overwrite) a feature."""
        self.specs[name] = FeatureSpec(name=name, kind=kind)

    def numeric_features(self) -> list[str]:
        """Names of all numeric features, sorted."""
        return [name for name in self.names() if self.specs[name].is_numeric]

    def nominal_features(self) -> list[str]:
        """Names of all nominal features, sorted."""
        return [name for name in self.names() if not self.specs[name].is_numeric]


def _value_is_numeric(value: FeatureValue) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class SchemaFold:
    """:func:`infer_schema` as a fold that takes records a batch at a time.

    A feature stays numeric while every value folded in is numeric, and
    features keep their first-occurrence order, so folding a log's records
    in any batching gives the schema one pass over all of them gives.  An
    appended batch therefore costs only its own records.  :meth:`schema`
    returns the previous call's object while the result is unchanged (spec
    order included), so what is cached under that object stays findable.
    """

    __slots__ = ("overrides", "dropped", "include_duration", "seen", "any_records", "_schema")

    def __init__(
        self,
        nominal_overrides: Iterable[str] = DEFAULT_NOMINAL_OVERRIDES,
        include_duration: bool = True,
        excluded: Iterable[str] = DEFAULT_EXCLUDED_FEATURES,
    ) -> None:
        self.overrides = frozenset(nominal_overrides)
        self.dropped = frozenset(excluded)
        self.include_duration = include_duration
        #: Feature name -> every value so far is numeric, in first-occurrence order.
        self.seen: dict[str, bool] = {}
        self.any_records = False
        self._schema: FeatureSchema | None = None

    def add(self, records: Iterable[ExecutionRecord]) -> None:
        """Fold in records that come after every record folded in so far."""
        dropped = self.dropped
        seen = self.seen
        any_records = False
        for record in records:
            any_records = True
            for name, value in record.features.items():
                if name in dropped:
                    continue
                if value is None:
                    seen.setdefault(name, True)
                    continue
                numeric = _value_is_numeric(value)
                seen[name] = seen.get(name, True) and numeric
        self.any_records = self.any_records or any_records

    def schema(self) -> FeatureSchema:
        """The schema of every record folded in so far."""
        schema = FeatureSchema()
        for name, numeric in self.seen.items():
            if name in self.overrides:
                kind = FeatureKind.NOMINAL
            else:
                kind = FeatureKind.NUMERIC if numeric else FeatureKind.NOMINAL
            schema.add(name, kind)
        if self.include_duration and self.any_records:
            schema.add(PERFORMANCE_METRIC, FeatureKind.NUMERIC)
        previous = self._schema
        if previous is not None and list(previous.specs.items()) == list(schema.specs.items()):
            return previous
        self._schema = schema
        return schema


def infer_schema(
    records: Sequence[ExecutionRecord] | Iterable[ExecutionRecord],
    nominal_overrides: Iterable[str] = DEFAULT_NOMINAL_OVERRIDES,
    include_duration: bool = True,
    excluded: Iterable[str] = DEFAULT_EXCLUDED_FEATURES,
) -> FeatureSchema:
    """Infer the raw-feature schema from a collection of records.

    A feature is numeric when every non-missing value across the records is
    an ``int`` or ``float`` (booleans count as nominal).  Features appearing
    in ``nominal_overrides`` are forced to nominal.

    :param records: job or task records (normally all of one kind).
    :param nominal_overrides: features forced to nominal regardless of type.
    :param include_duration: whether to add the ``duration`` pseudo-feature
        (needed so that PXQL predicates over ``duration_compare`` can be
        evaluated; it is still excluded from explanations).
    :param excluded: features dropped from the schema entirely (provenance
        stamps by default; see :data:`DEFAULT_EXCLUDED_FEATURES`).
    """
    fold = SchemaFold(nominal_overrides, include_duration, excluded)
    fold.add(records)
    return fold.schema()

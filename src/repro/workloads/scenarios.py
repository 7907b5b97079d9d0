"""Declarative catalog of performance-pathology scenarios.

PerfXplain's evaluation needs logs that exhibit *known* pathologies so that
explanations can be scored against ground truth.  Each :class:`Scenario`
bundles everything needed to manufacture one pathology end to end:

* **variants** — declarative workload configurations
  (:class:`ScenarioVariant`), typically a healthy baseline and an affected
  twin differing in exactly one knob (input size, instance type, fault
  model, background-load model, reducer count, ``io.sort.factor``,
  locality-miss fraction, ...);
* a **PXQL query** (despite / observed / expected clauses plus the entity
  kind) that a user debugging the pathology would ask;
* the **consistent features** — the raw features a correct explanation may
  cite, which is the scenario's ground truth for evaluation.

:func:`build_scenario_log` simulates every variant (repetitions
interleaved, so submission order never separates the variants) and stamps
``scenario`` / ``scenario_variant`` / ``engine_seed`` into every record;
the stamps are excluded from the explanation schema
(:data:`repro.core.features.DEFAULT_EXCLUDED_FEATURES`) but let any log
record be traced back to a reproducible ``(scenario, seed)`` replay and
let evaluation label pairs with ground truth.

The catalog (:func:`scenario_catalog`) ships the pathology families the
paper and the follow-on literature discuss: map-wave steps from input
growth, the motivating cluster-underuse case, degraded nodes, straggler
tasks, noisy-neighbour contention, reducer data skew, the last-task-faster
effect, heterogeneous hardware, merge/reducer misconfigurations and cold
HDFS locality misses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.cluster.background import DEFAULT_BACKGROUND_MODEL, BackgroundLoadModel
from repro.cluster.cluster import ClusterSpec
from repro.cluster.config import MapReduceConfig
from repro.cluster.faults import NO_FAULTS, FaultModel
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.pxql.query import EntityKind, PXQLQuery
from repro.exceptions import WorkloadError
from repro.logs.store import ExecutionLog
from repro.units import MB
from repro.workloads.excite import DEFAULT_PROFILE, ExciteLogProfile, excite_dataset
from repro.workloads.pig import get_script
from repro.workloads.runner import run_workload

#: All avg_* monitoring features derived from CPU, load and process counts —
#: the evidence trail of anything that slows a node down without changing
#: the job's configuration.
_LOAD_FEATURES = (
    "avg_cpu_user", "avg_cpu_system", "avg_cpu_idle", "avg_cpu_wio",
    "avg_load_one", "avg_load_five", "avg_load_fifteen",
    "avg_proc_total", "avg_proc_run",
)


@dataclass(frozen=True)
class ScenarioVariant:
    """One workload configuration inside a scenario.

    Defaults describe a small healthy cluster; scenarios override the one
    knob they are about (plus whatever scale they need).  Variants are
    frozen and picklable, so scenario sweeps parallelise like grid sweeps.
    """

    label: str
    script_name: str = "simple-filter.pig"
    concat_factor: int = 6
    num_instances: int = 2
    block_size: int = 64 * MB
    reduce_tasks_factor: float = 1.0
    num_reduce_tasks: int | None = None
    io_sort_factor: int = 10
    instance_type: str = "m1.large"
    background_model: BackgroundLoadModel | None = DEFAULT_BACKGROUND_MODEL
    fault_model: FaultModel = NO_FAULTS
    locality_miss_fraction: float = 0.0
    repetitions: int = 3

    def resolved_reduce_tasks(self) -> int:
        """Reducer count: explicit override, else the paper's factor rule."""
        if self.num_reduce_tasks is not None:
            return self.num_reduce_tasks
        return max(1, int(round(self.num_instances * self.reduce_tasks_factor)))

    def config(self) -> MapReduceConfig:
        """The MapReduce configuration for this variant."""
        return MapReduceConfig(
            dfs_block_size=self.block_size,
            num_reduce_tasks=self.resolved_reduce_tasks(),
            io_sort_factor=self.io_sort_factor,
        )

    def cluster_spec(self) -> ClusterSpec:
        """The cluster this variant provisions."""
        return ClusterSpec(
            num_instances=self.num_instances,
            instance_type=self.instance_type,
            background_model=self.background_model,
        )

    def but(self, label: str, **overrides) -> "ScenarioVariant":
        """A copy with a new label and overridden knobs (composition)."""
        return replace(self, label=label, **overrides)


@dataclass(frozen=True)
class Scenario:
    """One catalog entry: a reproducible pathology plus its ground truth.

    :param name: stable identifier stamped into every record.
    :param entity: ``"job"`` or ``"task"`` — the query's entity kind.
    :param description: what the pathology is and how it is manufactured.
    :param paper_query: the paper query family the scenario exercises.
    :param knobs: human-readable summary of the knob(s) the affected
        variant turns (for the catalog table).
    :param consistent_features: raw features a scenario-consistent
        explanation may cite (the evaluation ground truth).
    :param variants: the workload configurations to simulate.
    :param despite: despite-clause atoms as (pair feature, operator, value).
    :param observed: the observed ``duration_compare`` value.
    :param expected: the expected ``duration_compare`` value.
    :param sampling_period: Ganglia sampling period for the scenario's
        jobs (scenario jobs are small, so sampling is finer than the
        grid's 5 s default).
    """

    name: str
    entity: str
    description: str
    paper_query: str
    knobs: str
    consistent_features: frozenset[str]
    variants: tuple[ScenarioVariant, ...]
    despite: tuple[tuple[str, Operator, str], ...]
    observed: str = "GT"
    expected: str = "SIM"
    sampling_period: float = 2.0

    def __post_init__(self) -> None:
        if self.entity not in ("job", "task"):
            raise WorkloadError(
                f"scenario entity must be job or task, got {self.entity!r}"
            )
        if not self.variants:
            raise WorkloadError(f"scenario {self.name!r} has no variants")

    def query(self) -> PXQLQuery:
        """The PXQL query a user debugging this pathology would ask."""
        despite = Predicate.conjunction(
            [Comparison(feature, operator, value)
             for feature, operator, value in self.despite]
        )
        return PXQLQuery(
            entity=EntityKind.JOB if self.entity == "job" else EntityKind.TASK,
            despite=despite,
            observed=Predicate.of(
                Comparison("duration_compare", Operator.EQ, self.observed)
            ),
            expected=Predicate.of(
                Comparison("duration_compare", Operator.EQ, self.expected)
            ),
            name=f"scenario:{self.name}",
        )

    def is_consistent(self, explanation) -> bool:
        """Whether an explanation's because clause cites ground truth.

        ``explanation`` is a :class:`repro.core.explanation.Explanation`;
        at least one because-atom must be over a consistent raw feature.
        """
        from repro.core.pairs import raw_feature_of

        return any(
            raw_feature_of(atom.feature) in self.consistent_features
            for atom in explanation.because.atoms
        )


def build_scenario_log(
    scenario: Scenario,
    seed: int = 0,
    profile: ExciteLogProfile = DEFAULT_PROFILE,
    job_sequence_start: int = 0,
    log: ExecutionLog | None = None,
) -> ExecutionLog:
    """Simulate every variant of a scenario and collect the stamped log.

    Variant repetitions are interleaved (repetition-major order) so that
    wall-clock submission order never becomes a proxy for the variant
    label.  Each job's seed derives from the base seed in iteration order;
    together with the stamped ``engine_seed`` feature this makes any job in
    the log replayable in isolation.

    :param scenario: the catalog entry to simulate.
    :param seed: base seed for the per-job seed stream.
    :param profile: synthetic Excite data profile.
    :param job_sequence_start: offset for minted job ids (lets several
        scenario logs merge without id collisions).
    :param log: existing log to append to (a new one by default).
    """
    rng = random.Random(seed)
    log = log if log is not None else ExecutionLog()
    sequence = job_sequence_start
    max_repetitions = max(variant.repetitions for variant in scenario.variants)
    submit_clock = 0.0
    for repetition in range(max_repetitions):
        for variant in scenario.variants:
            if repetition >= variant.repetitions:
                continue
            sequence += 1
            job_seed = rng.randrange(2 ** 31)
            run = run_workload(
                script=get_script(variant.script_name),
                dataset=excite_dataset(variant.concat_factor, profile),
                config=variant.config(),
                num_instances=variant.num_instances,
                seed=job_seed,
                job_sequence=sequence,
                reduce_tasks_factor=variant.reduce_tasks_factor,
                fault_model=variant.fault_model,
                profile=profile,
                sampling_period=scenario.sampling_period,
                submit_time=submit_clock,
                scenario=scenario.name,
                scenario_variant=variant.label,
                cluster_spec=variant.cluster_spec(),
                locality_miss_fraction=variant.locality_miss_fraction,
            )
            submit_clock += run.job_record.duration + 30.0
            log.extend(jobs=(run.job_record,), tasks=run.task_records)
    return log


def build_catalog_log(
    scenarios: "list[Scenario] | tuple[Scenario, ...] | None" = None,
    seed: int = 0,
) -> ExecutionLog:
    """One merged log covering several scenarios (distinct job ids)."""
    if scenarios is None:
        scenarios = list(scenario_catalog().values())
    log = ExecutionLog()
    for position, scenario in enumerate(scenarios):
        build_scenario_log(
            scenario,
            seed=seed + position,
            job_sequence_start=1000 * (position + 1),
            log=log,
        )
    return log


# --------------------------------------------------------------------- #
# the catalog
# --------------------------------------------------------------------- #

_EQ = Operator.EQ

#: A quiet cluster: constant daemon-level load, no noisy neighbours.
_QUIET = BackgroundLoadModel(quiet_load=0.25, busy_probability=0.0)

#: A heavily contended cluster: long, frequent noisy-neighbour bursts.
_NOISY = BackgroundLoadModel(
    quiet_load=0.4, busy_probability=0.85, busy_load_mean=2.5,
    busy_load_sigma=0.3, episode_seconds_mean=40.0,
)

_JOB_DESPITE_SAME_SCRIPT_CLUSTER = (
    ("pig_script_isSame", _EQ, "T"),
    ("numinstances_isSame", _EQ, "T"),
)


def _catalog() -> list[Scenario]:
    baseline = ScenarioVariant(label="baseline")
    return [
        Scenario(
            name="input-growth-step",
            entity="job",
            description=(
                "The input grows past the cluster's map-slot capacity, adding "
                "map waves: runtime steps up although script, cluster and "
                "configuration are unchanged."
            ),
            paper_query="WhySlowerDespiteSameNumInstances",
            knobs="concat_factor 4 -> 12 (one wave -> three waves)",
            consistent_features=frozenset({
                "inputsize", "input_records", "num_map_tasks", "map_waves",
                "dataset_name", "hdfs_bytes_read", "hdfs_bytes_written",
                "map_input_records", "map_output_bytes", "map_output_records",
                "file_bytes_written",
            }),
            variants=(
                # Enough repetitions that bursty background load cannot
                # accidentally separate the variants as cleanly as the
                # input-size features do.
                baseline.but("baseline", concat_factor=4, repetitions=5),
                baseline.but("affected", concat_factor=12, repetitions=5),
            ),
            despite=_JOB_DESPITE_SAME_SCRIPT_CLUSTER + (
                ("blocksize_isSame", _EQ, "T"),
            ),
        ),
        Scenario(
            name="cluster-underuse",
            entity="job",
            description=(
                "The paper's motivating example: with large blocks on a big "
                "cluster, a 4x larger input takes the same time because "
                "neither input fills the cluster and every map processes one "
                "block.  A small-block contrast variant shows what changing "
                "the wave structure actually does."
            ),
            paper_query="motivating example (Section 1)",
            knobs="concat_factor 6 -> 24 at blocksize 256MB on 8 instances",
            consistent_features=frozenset({
                "map_waves", "blocksize", "num_map_tasks", "cluster_map_slots",
            }),
            variants=(
                ScenarioVariant(label="baseline", concat_factor=6,
                                num_instances=8, block_size=256 * MB),
                ScenarioVariant(label="affected", concat_factor=24,
                                num_instances=8, block_size=256 * MB),
                ScenarioVariant(label="contrast", concat_factor=24,
                                num_instances=8, block_size=64 * MB),
            ),
            despite=_JOB_DESPITE_SAME_SCRIPT_CLUSTER + (
                ("inputsize_isSame", _EQ, "F"),
            ),
            observed="SIM",
            expected="GT",
        ),
        Scenario(
            name="degraded-node",
            entity="job",
            description=(
                "Every node of the affected jobs' cluster runs at a fraction "
                "of its rated speed (contended hypervisor, failing disk): "
                "identical configuration, much slower job, and only the "
                "monitoring time series tell the story."
            ),
            paper_query="WhySlowerDespiteSameNumInstances",
            knobs="slow_node_probability=1.0, slow_node_factor=0.35",
            consistent_features=frozenset(_LOAD_FEATURES),
            variants=(
                baseline.but("baseline", background_model=_QUIET),
                baseline.but(
                    "affected",
                    background_model=_QUIET,
                    fault_model=FaultModel(slow_node_probability=1.0,
                                           slow_node_factor=0.35),
                ),
            ),
            despite=_JOB_DESPITE_SAME_SCRIPT_CLUSTER + (
                ("inputsize_isSame", _EQ, "T"),
            ),
        ),
        Scenario(
            name="straggler-node",
            entity="task",
            description=(
                "Some nodes of one cluster are degraded, so otherwise "
                "identical map tasks straggle on the slow hosts while their "
                "twins finish on time."
            ),
            paper_query="WhyLastTaskFaster (task-level contrast)",
            knobs="slow_node_probability=0.5, slow_node_factor=0.4",
            consistent_features=frozenset({
                "hostname", "tracker_name", "instance_index",
                "start_time", "taskfinishtime", "wave", "slot_order",
            } | set(_LOAD_FEATURES)),
            variants=(
                ScenarioVariant(
                    label="affected",
                    concat_factor=12,
                    num_instances=4,
                    background_model=_QUIET,
                    fault_model=FaultModel(slow_node_probability=0.5,
                                           slow_node_factor=0.4),
                    repetitions=3,
                ),
            ),
            despite=(
                ("job_id_isSame", _EQ, "T"),
                ("task_type_isSame", _EQ, "T"),
                ("inputsize_compare", _EQ, "SIM"),
            ),
        ),
        Scenario(
            name="background-contention",
            entity="job",
            description=(
                "Noisy neighbours: the affected jobs run on instances with "
                "heavy bursty background load that steals CPU from every "
                "task.  Configuration is identical; load averages and "
                "process counts give it away."
            ),
            paper_query="WhySlowerDespiteSameNumInstances",
            knobs="busy_probability 0 -> 0.85, busy_load_mean 2.5",
            # avg_mem_free rides along: busy episodes consume memory too.
            consistent_features=frozenset(_LOAD_FEATURES) | {"avg_mem_free"},
            variants=(
                baseline.but("baseline", background_model=_QUIET),
                baseline.but("affected", background_model=_NOISY),
            ),
            despite=_JOB_DESPITE_SAME_SCRIPT_CLUSTER + (
                ("inputsize_isSame", _EQ, "T"),
            ),
        ),
        Scenario(
            name="data-skew",
            entity="task",
            description=(
                "A group-by over a pathologically skewed key distribution: "
                "one reducer receives a large multiple of the median "
                "shuffle share and dominates the job tail."
            ),
            paper_query="WhyLastTaskFaster (reduce-side contrast)",
            knobs="reducer_skew_sigma=1.2 (skewed-groupby.pig), 8 reducers",
            consistent_features=frozenset({
                "inputsize", "input_records", "output_bytes", "output_records",
                "shuffle_bytes", "file_bytes_read", "hdfs_bytes_written",
                "spilled_records", "sorttime", "shuffletime",
                "combine_input_records", "combine_output_records",
            }),
            variants=(
                # Large enough input that the fat reducer's share dwarfs the
                # fixed task-startup overhead every reducer pays.
                ScenarioVariant(
                    label="affected",
                    script_name="skewed-groupby.pig",
                    concat_factor=24,
                    num_instances=2,
                    num_reduce_tasks=8,
                    background_model=_QUIET,
                    repetitions=3,
                ),
            ),
            despite=(
                ("job_id_isSame", _EQ, "T"),
                ("task_type_isSame", _EQ, "T"),
            ),
        ),
        Scenario(
            name="last-task-faster",
            entity="task",
            description=(
                "The paper's first evaluation query: the final map task of a "
                "wave-remainder has the machine to itself and finishes "
                "faster than its co-located predecessors."
            ),
            paper_query="WhyLastTaskFaster",
            knobs="11 equal-size maps on 4 map slots (partial final wave)",
            # avg_mem_free rides along: a lone task leaves task memory free.
            consistent_features=frozenset({
                "wave", "slot_order", "start_time", "taskfinishtime",
                "avg_mem_free",
            } | set(_LOAD_FEATURES)),
            variants=(
                # 16 x 44MB = 704MB = exactly 11 x 64MB blocks: every split
                # is full-size, so inputsize_compare = SIM holds across the
                # whole job and only the wave structure differs.
                ScenarioVariant(
                    label="affected",
                    concat_factor=16,
                    num_instances=2,
                    background_model=_QUIET,
                    repetitions=3,
                ),
            ),
            despite=(
                ("job_id_isSame", _EQ, "T"),
                ("task_type_isSame", _EQ, "T"),
                ("inputsize_compare", _EQ, "SIM"),
                ("hostname_isSame", _EQ, "T"),
            ),
        ),
        Scenario(
            name="heterogeneous-hardware",
            entity="job",
            description=(
                "The affected jobs were provisioned on a weaker instance "
                "type (fewer, slower cores, less memory): same script, same "
                "cluster size, very different runtime."
            ),
            paper_query="WhySlowerDespiteSameNumInstances",
            knobs="instance_type m1.large -> m1.small",
            consistent_features=frozenset({
                "instance_type", "avg_mem_free", "avg_mem_cached",
            } | set(_LOAD_FEATURES)),
            variants=(
                baseline.but("baseline", background_model=_QUIET),
                baseline.but("affected", background_model=_QUIET,
                             instance_type="m1.small"),
            ),
            despite=_JOB_DESPITE_SAME_SCRIPT_CLUSTER + (
                ("inputsize_isSame", _EQ, "T"),
            ),
        ),
        Scenario(
            name="merge-misconfiguration",
            entity="job",
            description=(
                "io.sort.factor misconfigured to 2: merging the map "
                "segments takes four on-disk passes instead of one, and the "
                "shuffle-bound job pays the difference in its reduce sort."
            ),
            paper_query="WhySlowerDespiteSameNumInstances",
            knobs="io_sort_factor 100 -> 2 on shuffle-heavy.pig",
            consistent_features=frozenset({"iosortfactor"}),
            variants=(
                ScenarioVariant(
                    label="baseline", script_name="shuffle-heavy.pig",
                    concat_factor=12, num_instances=2, num_reduce_tasks=1,
                    io_sort_factor=100, background_model=_QUIET,
                ),
                ScenarioVariant(
                    label="affected", script_name="shuffle-heavy.pig",
                    concat_factor=12, num_instances=2, num_reduce_tasks=1,
                    io_sort_factor=2, background_model=_QUIET,
                ),
            ),
            despite=_JOB_DESPITE_SAME_SCRIPT_CLUSTER + (
                ("inputsize_isSame", _EQ, "T"),
            ),
        ),
        Scenario(
            name="reducer-starvation",
            entity="job",
            description=(
                "mapred.reduce.tasks misconfigured to 1: the whole shuffle "
                "lands on a single reducer and the reduce phase serialises "
                "while the rest of the cluster idles.  Both the cause "
                "(reducer count) and its monitoring symptom (an idle "
                "cluster during the long tail) are scenario-consistent."
            ),
            paper_query="WhySlowerDespiteSameNumInstances",
            knobs="num_reduce_tasks 8 -> 1 on simple-join.pig",
            consistent_features=frozenset({
                "num_reduce_tasks", "reduce_tasks_factor",
            } | set(_LOAD_FEATURES)),
            variants=(
                ScenarioVariant(
                    label="baseline", script_name="simple-join.pig",
                    concat_factor=8, num_instances=4, num_reduce_tasks=8,
                    reduce_tasks_factor=2.0, background_model=_QUIET,
                ),
                ScenarioVariant(
                    label="affected", script_name="simple-join.pig",
                    concat_factor=8, num_instances=4, num_reduce_tasks=1,
                    reduce_tasks_factor=0.25, background_model=_QUIET,
                ),
            ),
            despite=_JOB_DESPITE_SAME_SCRIPT_CLUSTER + (
                ("inputsize_isSame", _EQ, "T"),
            ),
        ),
        Scenario(
            name="cold-hdfs-locality",
            entity="job",
            description=(
                "Cold HDFS: the affected jobs' map inputs have no local "
                "replica and stream across the oversubscribed rack link.  "
                "An I/O-bound scan pays for it directly, and the network "
                "ingress counters expose the remote reads."
            ),
            paper_query="WhySlowerDespiteSameNumInstances",
            knobs="locality_miss_fraction 0 -> 0.9 on scan-heavy.pig",
            consistent_features=frozenset({"avg_bytes_in", "avg_pkts_in"}),
            variants=(
                ScenarioVariant(
                    label="baseline", script_name="scan-heavy.pig",
                    concat_factor=24, num_instances=2, block_size=256 * MB,
                    background_model=_QUIET,
                ),
                ScenarioVariant(
                    label="affected", script_name="scan-heavy.pig",
                    concat_factor=24, num_instances=2, block_size=256 * MB,
                    background_model=_QUIET, locality_miss_fraction=0.9,
                ),
            ),
            despite=_JOB_DESPITE_SAME_SCRIPT_CLUSTER + (
                ("inputsize_isSame", _EQ, "T"),
                ("blocksize_isSame", _EQ, "T"),
            ),
        ),
    ]


def scenario_catalog() -> dict[str, Scenario]:
    """All catalog scenarios, keyed by name."""
    return {scenario.name: scenario for scenario in _catalog()}


def get_scenario(name: str) -> Scenario:
    """Look up one scenario by name."""
    catalog = scenario_catalog()
    try:
        return catalog[name]
    except KeyError as exc:
        known = ", ".join(sorted(catalog))
        raise WorkloadError(
            f"unknown scenario {name!r}; known scenarios: {known}"
        ) from exc

"""Workload substrate: datasets, Pig scripts and the experiment grid.

The paper's log was collected by running two Pig scripts
(``simple-filter.pig`` and ``simple-groupby.pig``) over the Excite search
log from the Pig tutorial, across the parameter grid of Table 2.  This
package recreates that pipeline:

* :mod:`repro.workloads.excite` — a synthetic Excite-style search-query log
  (the real file is not redistributable; the generator preserves the
  characteristics the cost model needs: record size, URL-query fraction and
  the user-skew that drives group-by reducer imbalance);
* :mod:`repro.workloads.pig` — Pig script cost models compiled into
  simulator :class:`~repro.cluster.jobs.JobSpec` objects;
* :mod:`repro.workloads.runner` — run one configured job through the
  simulator + monitoring and emit execution-log records (columnar task
  batches, provenance stamps);
* :mod:`repro.workloads.grid` — the Table 2 parameter grid and the
  (optionally process-parallel) sweep executor that builds a full
  experiment log;
* :mod:`repro.workloads.scenarios` — the declarative catalog of
  performance pathologies (skew, stragglers, contention, misconfiguration,
  locality misses, ...) with per-scenario ground truth for evaluation.
"""

from repro.workloads.excite import ExciteLogProfile, excite_dataset, generate_excite_records
from repro.workloads.pig import (
    PigScript,
    SIMPLE_FILTER,
    SIMPLE_GROUPBY,
    SKEWED_GROUPBY,
    SCAN_HEAVY,
    SHUFFLE_HEAVY,
    SIMPLE_JOIN,
    SIMPLE_DISTINCT,
    PIG_SCRIPTS,
    compile_pig_job,
)
from repro.workloads.runner import WorkloadRun, run_workload
from repro.workloads.grid import (
    GridPoint,
    ParameterGrid,
    paper_grid,
    small_grid,
    tiny_grid,
    build_experiment_log,
)
from repro.workloads.scenarios import (
    Scenario,
    ScenarioVariant,
    build_catalog_log,
    build_scenario_log,
    get_scenario,
    scenario_catalog,
)

__all__ = [
    "ExciteLogProfile",
    "excite_dataset",
    "generate_excite_records",
    "PigScript",
    "SIMPLE_FILTER",
    "SIMPLE_GROUPBY",
    "SKEWED_GROUPBY",
    "SCAN_HEAVY",
    "SHUFFLE_HEAVY",
    "SIMPLE_JOIN",
    "SIMPLE_DISTINCT",
    "PIG_SCRIPTS",
    "compile_pig_job",
    "WorkloadRun",
    "run_workload",
    "GridPoint",
    "ParameterGrid",
    "paper_grid",
    "small_grid",
    "tiny_grid",
    "build_experiment_log",
    "Scenario",
    "ScenarioVariant",
    "build_catalog_log",
    "build_scenario_log",
    "get_scenario",
    "scenario_catalog",
]

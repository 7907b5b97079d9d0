"""Discrete-event MapReduce cluster simulator.

This package stands in for the Amazon EC2 + Hadoop substrate that the
PerfXplain paper collected its execution log from.  It models:

* HDFS-style block splitting of input datasets (:mod:`repro.cluster.hdfs`),
* virtual-machine instances with a fixed number of cores, map slots and
  reduce slots, plus background load (:mod:`repro.cluster.instance`),
* a slot-based FIFO scheduler that runs map tasks in waves followed by
  reduce tasks (:mod:`repro.cluster.scheduler`),
* a processor-sharing discrete-event engine that advances running tasks at a
  rate determined by per-instance contention (:mod:`repro.cluster.engine`),
* fault injection — slow nodes and failing task attempts
  (:mod:`repro.cluster.faults`).

The engine produces :class:`~repro.cluster.engine.SimulationResult` objects
containing per-task and per-job timings and counters, plus a utilization
trace that the :mod:`repro.monitoring` package samples like Ganglia would.
"""

from repro.cluster.background import BackgroundLoadModel, BackgroundLoadProfile
from repro.cluster.config import MapReduceConfig
from repro.cluster.hdfs import Dataset, InputSplit, split_dataset
from repro.cluster.provisioning import InstanceType, INSTANCE_TYPES
from repro.cluster.instance import Instance
from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.tasks import Phase, PhaseKind, TaskAttempt, TaskType
from repro.cluster.jobs import JobSpec
from repro.cluster.faults import FaultModel
from repro.cluster.engine import (
    SimulationEngine,
    SimulationResult,
    TaskExecution,
    JobExecution,
)
from repro.cluster.trace import UtilizationInterval, UtilizationTrace

__all__ = [
    "BackgroundLoadModel",
    "BackgroundLoadProfile",
    "MapReduceConfig",
    "Dataset",
    "InputSplit",
    "split_dataset",
    "InstanceType",
    "INSTANCE_TYPES",
    "Instance",
    "Cluster",
    "ClusterSpec",
    "Phase",
    "PhaseKind",
    "TaskAttempt",
    "TaskType",
    "JobSpec",
    "FaultModel",
    "SimulationEngine",
    "SimulationResult",
    "TaskExecution",
    "JobExecution",
    "UtilizationInterval",
    "UtilizationTrace",
]

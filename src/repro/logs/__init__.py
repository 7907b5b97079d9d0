"""Execution-log substrate.

PerfXplain consumes a *log of past MapReduce job executions*: one record per
job and one per task, each a flat vector of raw features plus a duration.
This package provides:

* :mod:`repro.logs.records` — :class:`JobRecord` and :class:`TaskRecord`;
* :mod:`repro.logs.store` — :class:`ExecutionLog`, the in-memory store with
  filtering, train/test splitting, JSON persistence, O(1) id lookup and a
  cache of the record blocks the pair kernels run on;
* :mod:`repro.logs.chunkstore` — :class:`RecordBlock`, the columnar
  encoding: per-feature :class:`BlockColumn` chunks under one global code
  table, held in a :class:`ChunkStore` whose working set can spill to disk
  for million-task logs;
* :mod:`repro.logs.writer` / :mod:`repro.logs.parser` — a Hadoop
  job-history-style textual format and its parser, so that the feature
  extraction path mirrors parsing real Hadoop logs.
"""

from repro.logs.records import JobRecord, TaskRecord, FeatureValue
from repro.logs.chunkstore import BlockColumn, ChunkedColumn, ChunkStore, RecordBlock
from repro.logs.store import BlockOptions, ExecutionLog
from repro.logs.writer import write_job_history, job_history_text
from repro.logs.parser import parse_job_history, parse_job_history_text, parse_jsonl_line

__all__ = [
    "JobRecord",
    "TaskRecord",
    "FeatureValue",
    "BlockColumn",
    "BlockOptions",
    "ChunkStore",
    "ChunkedColumn",
    "ExecutionLog",
    "RecordBlock",
    "write_job_history",
    "job_history_text",
    "parse_job_history",
    "parse_job_history_text",
    "parse_jsonl_line",
]

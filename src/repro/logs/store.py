"""The execution log: PerfXplain's training data store.

An :class:`ExecutionLog` holds job and task records, supports filtering
(e.g. "only the simple-groupby.pig jobs" for the Section 6.5 experiment),
random job-level train/test splits (the paper's repeated 2-fold
cross-validation splits *jobs*, carrying each job's tasks with it), and JSON
persistence.

Record lookup by id (:meth:`ExecutionLog.find_job`,
:meth:`ExecutionLog.find_task`, :meth:`ExecutionLog.tasks_of_job`) runs on
lazily-built hash indexes.  Every cache (indexes and
:class:`RecordBlock` encodings) is keyed on an explicit per-kind **mutation
version counter** that each mutation API bumps
(:meth:`ExecutionLog.add_job`, :meth:`ExecutionLog.add_task`,
:meth:`ExecutionLog.extend`, :meth:`ExecutionLog.replace_job`,
:meth:`ExecutionLog.replace_task`), plus the record-list length as a
safety net for direct list appends.  In-place record *replacement* is
therefore supported through :meth:`ExecutionLog.replace_job` /
:meth:`ExecutionLog.replace_task` — the version bump guarantees no stale
index entry or :class:`RecordBlock` snapshot can ever be served.  Callers
who mutate the ``jobs``/``tasks`` lists in place directly (outside the
API) must call :meth:`ExecutionLog.invalidate_caches` afterwards.

The log also caches the first layer of the columnar pair pipeline: the
:class:`~repro.logs.chunkstore.RecordBlock` encoding of each entity kind,
built once per (entity kind, schema) by :meth:`ExecutionLog.record_block`
under the same mutation-version key and extended in place by appends.

Concurrency contract: any number of threads may *read* one log at the same
time — every lazily-derived structure (id indexes, per-job task groups,
cached record blocks) is either filled under the log's internal derive
lock or published with a single atomic assignment, so concurrent readers
never observe a torn index or a half-extended block.  Mutations (appends,
replacement, :meth:`ExecutionLog.invalidate_caches`) are **not** made
concurrent here: they require exclusion from readers, which the service
layer provides with a per-log reader-writer lock
(:mod:`repro.service.catalog`; see ``docs/concurrency.md``).
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.exceptions import DuplicateRecordError, LogFormatError
from repro.logs.chunkstore import RecordBlock
from repro.logs.records import (
    ExecutionRecord,
    FeatureValue,
    JobRecord,
    TaskRecord,
    record_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.features import FeatureSchema


def _schema_signature(schema: "FeatureSchema") -> tuple:
    """A hashable fingerprint of a schema (name/kind pairs, sorted)."""
    return tuple(sorted((name, spec.kind.value) for name, spec in schema.specs.items()))


#: Newest record blocks kept per entity kind.  A long-lived catalog log
#: queried under evolving schemas would otherwise retain one block per
#: distinct ``(kind, schema fingerprint)`` forever.
MAX_BLOCKS_PER_KIND = 4

#: Record count from which a block whose ``chunk_rows`` is unset gets
#: :data:`DEFAULT_CHUNK_ROWS`-row chunks instead of one chunk per column.
AUTO_CHUNK_THRESHOLD = 200_000

#: Rows per chunk past :data:`AUTO_CHUNK_THRESHOLD`.
DEFAULT_CHUNK_ROWS = 16_384


@dataclass(frozen=True)
class BlockOptions:
    """Per-log :class:`~repro.logs.chunkstore.RecordBlock` construction policy.

    :param chunk_rows: rows per column chunk; ``None`` = one chunk per
        column that grows with appends, or :data:`DEFAULT_CHUNK_ROWS` once
        the kind holds :data:`AUTO_CHUNK_THRESHOLD` records.
    :param max_resident_chunks: LRU-pinned working set of encoded column
        chunks per block; beyond it, chunks spill to disk.  ``None`` =
        never spill.
    :param spill_directory: parent directory for the spill files
        (``None`` = the system temp directory).
    """

    chunk_rows: int | None = None
    max_resident_chunks: int | None = None
    spill_directory: "str | Path | None" = None


@dataclass
class ExecutionLog:
    """A log of past MapReduce job and task executions."""

    jobs: list[JobRecord] = field(default_factory=list)
    tasks: list[TaskRecord] = field(default_factory=list)
    #: Per-kind mutation version counters.  Every cache below is valid only
    #: for the (version, record count) it was built against.
    _jobs_version: int = field(default=0, init=False, repr=False, compare=False)
    _tasks_version: int = field(default=0, init=False, repr=False, compare=False)
    #: Per-kind *epoch* counters: bumped only by mutations that can change
    #: already-stored records (:meth:`replace_job`, :meth:`replace_task`,
    #: :meth:`invalidate_caches`).  Appends grow a kind without moving its
    #: epoch, which is what lets blocks, groups and session caches extend
    #: incrementally instead of rebuilding.
    _jobs_epoch: int = field(default=0, init=False, repr=False, compare=False)
    _tasks_epoch: int = field(default=0, init=False, repr=False, compare=False)
    _job_index: dict[str, JobRecord] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _job_index_key: tuple = field(default=(-1, -1), init=False, repr=False, compare=False)
    _task_index: dict[str, TaskRecord] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _task_index_key: tuple = field(default=(-1, -1), init=False, repr=False, compare=False)
    _job_tasks: dict[str, list[TaskRecord]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _job_tasks_key: tuple = field(default=(-1, -1), init=False, repr=False, compare=False)
    #: (kind, schema fingerprint) -> (mutation key, RecordBlock), in
    #: recency order; bounded to :data:`MAX_BLOCKS_PER_KIND` per kind.
    _blocks: dict[tuple, tuple[tuple, RecordBlock]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Running [hits, misses, evictions] of the block cache.
    _block_counters: list[int] = field(
        default_factory=lambda: [0, 0, 0], init=False, repr=False, compare=False
    )
    #: Cached blocks refreshed in place by the O(delta) append path
    #: (:meth:`record_block` / :meth:`flush_appends`).
    _block_extends: int = field(default=0, init=False, repr=False, compare=False)
    _block_options: BlockOptions = field(
        default_factory=BlockOptions, init=False, repr=False, compare=False
    )
    #: Guards every lazily-derived structure above (id indexes, the
    #: per-job task groups, the block cache and its counters) so any
    #: number of *readers* can probe and fill them concurrently.
    #: Mutations of the record lists themselves are NOT covered: the
    #: concurrency contract is many readers / one exclusive writer,
    #: enforced above this layer (the service catalog's reader-writer
    #: lock) or by the embedding application.  Reentrant because
    #: :meth:`configure_blocks` flushes appends under the same lock.
    _derive_lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False, compare=False
    )

    def _jobs_key(self) -> tuple:
        return (self._jobs_version, len(self.jobs))

    def _tasks_key(self) -> tuple:
        return (self._tasks_version, len(self.tasks))

    # ------------------------------------------------------------------ #
    # construction and mutation
    # ------------------------------------------------------------------ #

    def add_job(self, job: JobRecord, tasks: Iterable[TaskRecord] = ()) -> None:
        """Add a job record and (optionally) its task records."""
        index = self._job_lookup()
        if job.job_id in index:
            raise DuplicateRecordError(
                f"duplicate job id: {job.job_id}", kind="job", record_id=job.job_id
            )
        self.jobs.append(job)
        self._jobs_version += 1
        index[job.job_id] = job
        self._job_index_key = self._jobs_key()
        for task in tasks:
            self.add_task(task)

    def add_task(self, task: TaskRecord) -> None:
        """Add a single task record."""
        index = self._task_lookup()
        if task.task_id in index:
            raise DuplicateRecordError(
                f"duplicate task id: {task.task_id}", kind="task", record_id=task.task_id
            )
        self.tasks.append(task)
        self._tasks_version += 1
        index[task.task_id] = task
        self._task_index_key = self._tasks_key()

    def extend(
        self,
        jobs: Iterable[JobRecord] = (),
        tasks: Iterable[TaskRecord] = (),
    ) -> None:
        """Bulk-append record batches with one duplicate check per record.

        The sweep executor's emission path: whole per-job record batches
        land in the log with a single version bump per kind instead of one
        :meth:`add_task` round-trip per record.  Atomic: both batches are
        validated against the log (and against themselves) before any
        mutation, so a duplicate id
        (:class:`~repro.exceptions.DuplicateRecordError`) leaves the log
        untouched.
        """
        jobs = list(jobs)
        tasks = list(tasks)
        job_index = self._job_lookup() if jobs else self._job_index
        batch_job_ids: set[str] = set()
        for job in jobs:
            if job.job_id in job_index or job.job_id in batch_job_ids:
                raise DuplicateRecordError(
                    f"duplicate job id: {job.job_id}", kind="job", record_id=job.job_id
                )
            batch_job_ids.add(job.job_id)
        task_index = self._task_lookup() if tasks else self._task_index
        batch_task_ids: set[str] = set()
        for task in tasks:
            if task.task_id in task_index or task.task_id in batch_task_ids:
                raise DuplicateRecordError(
                    f"duplicate task id: {task.task_id}",
                    kind="task",
                    record_id=task.task_id,
                )
            batch_task_ids.add(task.task_id)
        if jobs:
            for job in jobs:
                job_index[job.job_id] = job
            self.jobs.extend(jobs)
            self._jobs_version += 1
            self._job_index_key = self._jobs_key()
        if tasks:
            for task in tasks:
                task_index[task.task_id] = task
            self.tasks.extend(tasks)
            self._tasks_version += 1
            self._task_index_key = self._tasks_key()

    def replace_job(self, job: JobRecord) -> None:
        """Replace the job record with the same id, in place.

        The mutation bumps the job version counter, so every cached view —
        the id index and any :class:`RecordBlock` built over the job list —
        is rebuilt on next access instead of serving the stale record.
        """
        for position, existing in enumerate(self.jobs):
            if existing.job_id == job.job_id:
                self.jobs[position] = job
                self._jobs_version += 1
                self._jobs_epoch += 1
                return
        raise ValueError(f"no job with id {job.job_id} to replace")

    def replace_task(self, task: TaskRecord) -> None:
        """Replace the task record with the same id, in place.

        Same cache-invalidation contract as :meth:`replace_job`.
        """
        for position, existing in enumerate(self.tasks):
            if existing.task_id == task.task_id:
                self.tasks[position] = task
                self._tasks_version += 1
                self._tasks_epoch += 1
                return
        raise ValueError(f"no task with id {task.task_id} to replace")

    def invalidate_caches(self) -> None:
        """Declare out-of-band mutation of the record lists.

        Callers that mutate ``jobs``/``tasks`` directly (slicing, sorting,
        in-place element assignment) must call this so the versioned caches
        are rebuilt; the mutation APIs above do it automatically.
        """
        self._jobs_version += 1
        self._tasks_version += 1
        self._jobs_epoch += 1
        self._tasks_epoch += 1

    def mutation_snapshot(self) -> dict[str, tuple[int, int, int]]:
        """Per-kind ``(epoch, version, count)`` triples, for cache owners.

        The session layer (:class:`~repro.core.api.PerfXplainSession`)
        compares snapshots across calls: an unchanged triple means a kind's
        caches are valid as-is; a moved count under the same epoch means
        append-only growth (caches touching that kind recompute, the other
        kind's survive); a moved epoch means in-place mutation (everything
        derived from that kind must be dropped).
        """
        return {
            "job": (self._jobs_epoch, self._jobs_version, len(self.jobs)),
            "task": (self._tasks_epoch, self._tasks_version, len(self.tasks)),
        }

    def append_stats(self) -> dict[str, int]:
        """Append/version accounting for catalog introspection.

        ``jobs_version`` / ``tasks_version`` move on every mutation of
        their kind; ``jobs_epoch`` / ``tasks_epoch`` only on in-place
        mutation; ``block_extends`` counts cached blocks refreshed through
        the O(delta) append path instead of a rebuild.
        """
        return {
            "jobs_version": self._jobs_version,
            "tasks_version": self._tasks_version,
            "jobs_epoch": self._jobs_epoch,
            "tasks_epoch": self._tasks_epoch,
            "block_extends": self._block_extends,
        }

    def merge(self, other: "ExecutionLog") -> "ExecutionLog":
        """Return a new log containing the records of both logs."""
        merged = ExecutionLog(jobs=list(self.jobs), tasks=list(self.tasks))
        existing_jobs = {job.job_id for job in merged.jobs}
        new_jobs: list[JobRecord] = []
        for job in other.jobs:
            if job.job_id not in existing_jobs:
                existing_jobs.add(job.job_id)
                new_jobs.append(job)
        existing_tasks = {task.task_id for task in merged.tasks}
        new_tasks: list[TaskRecord] = []
        for task in other.tasks:
            if task.task_id not in existing_tasks:
                existing_tasks.add(task.task_id)
                new_tasks.append(task)
        merged.extend(jobs=new_jobs, tasks=new_tasks)
        return merged

    # ------------------------------------------------------------------ #
    # lookup and filtering
    # ------------------------------------------------------------------ #

    @property
    def num_jobs(self) -> int:
        """Number of job records."""
        return len(self.jobs)

    @property
    def num_tasks(self) -> int:
        """Number of task records."""
        return len(self.tasks)

    def _job_lookup(self) -> dict[str, JobRecord]:
        """The id -> job index, rebuilt when the job version/length moves.

        ``setdefault`` preserves the first-match semantics of the previous
        linear scan if duplicate ids were ever injected by direct list
        mutation (the index then never reaches full length and is rebuilt
        per call, degrading to the old O(n) behaviour).

        Rebuilds are publish-after-build under the derive lock: a stale
        index is replaced by a freshly-built dict in one assignment, so a
        concurrent reader either sees the complete old index or the
        complete new one — never a half-filled ``clear()``-ed dict.
        """
        index = self._job_index
        if self._job_index_key == self._jobs_key() and len(index) == len(self.jobs):
            return index
        with self._derive_lock:
            index = self._job_index
            if self._job_index_key == self._jobs_key() and len(index) == len(self.jobs):
                return index
            rebuilt: dict[str, JobRecord] = {}
            for job in self.jobs:
                rebuilt.setdefault(job.job_id, job)
            self._job_index = rebuilt
            self._job_index_key = self._jobs_key()
            return rebuilt

    def _task_lookup(self) -> dict[str, TaskRecord]:
        """The id -> task index (same contract as :meth:`_job_lookup`)."""
        index = self._task_index
        if self._task_index_key == self._tasks_key() and len(index) == len(self.tasks):
            return index
        with self._derive_lock:
            index = self._task_index
            if self._task_index_key == self._tasks_key() and len(index) == len(self.tasks):
                return index
            rebuilt: dict[str, TaskRecord] = {}
            for task in self.tasks:
                rebuilt.setdefault(task.task_id, task)
            self._task_index = rebuilt
            self._task_index_key = self._tasks_key()
            return rebuilt

    def find_job(self, job_id: str) -> JobRecord | None:
        """The job with the given id, or ``None`` (O(1) amortised).

        Correct under appends and API-level replacement
        (:meth:`replace_job`); direct out-of-band list mutation requires
        :meth:`invalidate_caches` (see the module docstring).
        """
        return self._job_lookup().get(job_id)

    def find_task(self, task_id: str) -> TaskRecord | None:
        """The task with the given id, or ``None`` (O(1) amortised).

        Same cache contract as :meth:`find_job`.
        """
        return self._task_lookup().get(task_id)

    def tasks_of_job(self, job_id: str) -> list[TaskRecord]:
        """All task records belonging to a job (indexed, O(tasks of job)).

        The index is keyed on the task epoch plus record count: appends
        (API-level or direct list appends) fold only the new tasks into the
        existing groups, O(delta); in-place mutation (epoch moved) or
        shrinkage rebuilds from scratch.  The incremental fold copies each
        bucket it grows before publishing, so a concurrent reader holding
        the old groups dict never observes a list mutating under it; both
        fold and rebuild run under the derive lock (one builder per burst).
        """
        key = (self._tasks_epoch, len(self.tasks))
        if self._job_tasks_key == key:
            return list(self._job_tasks.get(job_id, ()))
        with self._derive_lock:
            key = (self._tasks_epoch, len(self.tasks))
            if self._job_tasks_key != key:
                cached_epoch, cached_count = self._job_tasks_key
                if cached_epoch == key[0] and 0 <= cached_count < len(self.tasks):
                    groups = dict(self._job_tasks)
                    touched: dict[str, list[TaskRecord]] = {}
                    for task in self.tasks[cached_count:]:
                        bucket = touched.get(task.job_id)
                        if bucket is None:
                            bucket = list(groups.get(task.job_id, ()))
                            touched[task.job_id] = bucket
                        bucket.append(task)
                    groups.update(touched)
                else:
                    groups = {}
                    for task in self.tasks:
                        groups.setdefault(task.job_id, []).append(task)
                self._job_tasks = groups
                self._job_tasks_key = key
            return list(self._job_tasks.get(job_id, ()))

    def filter_jobs(
        self, predicate: Callable[[JobRecord], bool], keep_tasks: bool = True
    ) -> "ExecutionLog":
        """A new log with only the jobs satisfying ``predicate``.

        :param keep_tasks: whether tasks of the kept jobs are carried over.
        """
        kept_jobs = [job for job in self.jobs if predicate(job)]
        kept_ids = {job.job_id for job in kept_jobs}
        kept_tasks = (
            [task for task in self.tasks if task.job_id in kept_ids] if keep_tasks else []
        )
        return ExecutionLog(jobs=kept_jobs, tasks=kept_tasks)

    def filter_by_feature(self, feature: str, value: FeatureValue) -> "ExecutionLog":
        """Jobs whose raw feature equals ``value`` (tasks carried over)."""
        return self.filter_jobs(lambda job: job.features.get(feature) == value)

    def job_feature_values(self, feature: str) -> list[FeatureValue]:
        """Values of one raw feature across all jobs (missing included)."""
        return [job.features.get(feature) for job in self.jobs]

    # ------------------------------------------------------------------ #
    # columnar encoding
    # ------------------------------------------------------------------ #

    def configure_blocks(
        self,
        chunk_rows: int | None = None,
        max_resident_chunks: int | None = None,
        spill_directory: "str | Path | None" = None,
    ) -> None:
        """Set this log's :class:`RecordBlock` construction policy.

        See :class:`BlockOptions` for the parameters.  When the policy
        actually changes, cached blocks are dropped so the new layout takes
        effect on the next :meth:`record_block` call; every chunking and
        working-set bound is bit-identical to the kernels, so reconfiguring
        never changes results — only memory behaviour.  Re-applying the
        current policy keeps the cached blocks but flushes any pending
        un-encoded appends into them first (:meth:`flush_appends`): a kept
        block must never serve a stale tail.
        """
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        if max_resident_chunks is not None and max_resident_chunks < 1:
            raise ValueError("max_resident_chunks must be >= 1")
        options = BlockOptions(
            chunk_rows=chunk_rows,
            max_resident_chunks=max_resident_chunks,
            spill_directory=spill_directory,
        )
        with self._derive_lock:
            if options == self._block_options:
                self.flush_appends()
                return
            self._block_options = options
            self._blocks.clear()

    def block_cache_stats(self) -> dict[str, int]:
        """Accounting counters of the per-log record-block cache.

        Plain integers (not :class:`~repro.core.cache.CacheStats` — the
        logs layer does not import the core layer); the session adapter
        (:meth:`repro.core.api.PerfXplainSession.cache_stats`) wraps them.
        """
        with self._derive_lock:
            hits, misses, evictions = self._block_counters
            return {
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "size": len(self._blocks),
                "capacity": 2 * MAX_BLOCKS_PER_KIND,
            }

    def record_block(self, schema: "FeatureSchema", kind: str = "job") -> RecordBlock:
        """The (cached) columnar :class:`RecordBlock` of one entity kind.

        Blocks are keyed by ``(kind, schema fingerprint)`` and invalidated
        by the kind's mutation version (plus record count, covering direct
        list appends): one build is shared by every query, clause signature
        and session touching the log, and any mutation — append, bulk
        extend or in-place :meth:`replace_job` / :meth:`replace_task` —
        replaces the stale block on the next request.

        Appends are O(delta): when a kind has only grown since a block was
        cached (same epoch, larger count) and the chunking layout is
        unchanged, the cached block is extended in place through
        :meth:`RecordBlock.extend_from` instead of rebuilt — per-column
        code tables, masks and cached blocking groups gain just the new
        rows.  In-place mutation (:meth:`replace_job` /
        :meth:`replace_task` / :meth:`invalidate_caches`) moves the kind's
        epoch and forces a full rebuild.

        The cache is bounded: stale entries of a kind are evicted when
        their epoch no longer matches the log, and only the
        :data:`MAX_BLOCKS_PER_KIND` most recently used schemas per kind are
        retained (:meth:`block_cache_stats` reports the counters).  New
        blocks follow the policy set by :meth:`configure_blocks`
        (:class:`BlockOptions`).

        :param schema: the raw-feature schema to encode under.
        :param kind: ``"job"`` or ``"task"``.
        """
        if kind not in ("job", "task"):
            raise ValueError(f"kind must be 'job' or 'task', got {kind!r}")
        with self._derive_lock:
            records: Sequence[ExecutionRecord]
            if kind == "job":
                records = self.jobs
                mutation_key = (self._jobs_epoch, len(records))
            else:
                records = self.tasks
                mutation_key = (self._tasks_epoch, len(records))
            key = (kind, _schema_signature(schema))
            cached = self._blocks.get(key)
            if cached is not None:
                block = self._refresh_block(key, cached, records, mutation_key)
                if block is not None:
                    return block
            self._block_counters[1] += 1
            block = RecordBlock(
                records,
                schema,
                chunk_rows=self._chunk_layout_for(len(records)),
                max_resident_chunks=self._block_options.max_resident_chunks,
                spill_directory=self._block_options.spill_directory,
            )
            if key in self._blocks:
                del self._blocks[key]
            self._blocks[key] = (mutation_key, block)
            self._evict_blocks(kind, mutation_key[0])
            return block

    def _refresh_block(
        self,
        key: tuple,
        cached: tuple[tuple, RecordBlock],
        records: "Sequence[ExecutionRecord]",
        mutation_key: tuple,
    ) -> RecordBlock | None:
        """Serve a cached block as-is or extended in place, else ``None``.

        A hit (unchanged mutation key) and an O(delta) extension (same
        epoch, grown count, unchanged chunk layout) both refresh recency;
        anything else — moved epoch, shrunk count, or a layout change such
        as crossing the auto-chunk threshold — returns ``None`` so the
        caller rebuilds.
        """
        if cached[0] == mutation_key:
            self._block_counters[0] += 1
            del self._blocks[key]
            self._blocks[key] = cached
            return cached[1]
        block = self._try_extend(cached, records, mutation_key)
        if block is not None:
            del self._blocks[key]
            self._blocks[key] = (mutation_key, block)
        return block

    def _try_extend(
        self,
        cached: tuple[tuple, RecordBlock],
        records: "Sequence[ExecutionRecord]",
        mutation_key: tuple,
    ) -> RecordBlock | None:
        """Extend a cached block in place when appends are all that changed."""
        cached_key, block = cached
        if (
            cached_key[0] != mutation_key[0]
            or cached_key[1] >= mutation_key[1]
            or self._chunk_layout_for(mutation_key[1]) != block.chunk_rows
        ):
            return None
        block.extend_from(records[cached_key[1] :])
        self._block_extends += 1
        return block

    def _chunk_layout_for(self, count: int) -> int | None:
        """The chunk size a block over ``count`` records would get now."""
        chunk_rows = self._block_options.chunk_rows
        if chunk_rows is None and count >= AUTO_CHUNK_THRESHOLD:
            return DEFAULT_CHUNK_ROWS
        return chunk_rows

    def flush_appends(self) -> int:
        """Fold pending appended records into every cached block, eagerly.

        :meth:`record_block` extends lazily on next access; this is the
        eager sync point — used by :meth:`configure_blocks` (a kept block
        must never serve a stale tail) and by the service's append path so
        encoding cost is paid at append time, off the query path.  Blocks
        that cannot be extended in place (moved epoch, shrunk count,
        changed chunk layout) are dropped for rebuild on next access.
        Returns the number of blocks extended.
        """
        refreshed = 0
        with self._derive_lock:
            for key in list(self._blocks):
                kind = key[0]
                if kind == "job":
                    records: Sequence[ExecutionRecord] = self.jobs
                    mutation_key = (self._jobs_epoch, len(records))
                else:
                    records = self.tasks
                    mutation_key = (self._tasks_epoch, len(records))
                cached = self._blocks[key]
                if cached[0] == mutation_key:
                    continue
                block = self._try_extend(cached, records, mutation_key)
                if block is not None:
                    self._blocks[key] = (mutation_key, block)
                    refreshed += 1
                else:
                    del self._blocks[key]
                    self._block_counters[2] += 1
        return refreshed

    def _evict_blocks(self, kind: str, epoch: int) -> None:
        """Drop unrecoverable blocks of a kind, keep the newest N others.

        A block merely behind on record count is *not* stale — the append
        path extends it in place on next access — but a moved epoch or a
        shrunk record list can never be reconciled incrementally.
        """
        count = len(self.jobs) if kind == "job" else len(self.tasks)
        stale = [
            key
            for key, (cached_key, _) in self._blocks.items()
            if key[0] == kind and (cached_key[0] != epoch or cached_key[1] > count)
        ]
        same_kind = [key for key in self._blocks if key[0] == kind and key not in stale]
        # dicts iterate oldest-first: surplus beyond the cap is the LRU end.
        surplus = len(same_kind) - MAX_BLOCKS_PER_KIND
        if surplus > 0:
            stale.extend(same_kind[:surplus])
        for key in stale:
            del self._blocks[key]
            self._block_counters[2] += 1

    # ------------------------------------------------------------------ #
    # splitting
    # ------------------------------------------------------------------ #

    def split_train_test(
        self,
        train_fraction: float = 0.5,
        rng: random.Random | None = None,
        always_include_job_ids: Iterable[str] = (),
    ) -> tuple["ExecutionLog", "ExecutionLog"]:
        """Random job-level split into (train, test) logs.

        Every job is assigned to the training log with probability
        ``train_fraction`` (the paper: "we iterate through each job, add it
        to the training log with 50% probability, and all remaining jobs are
        added to the test log").  Jobs listed in ``always_include_job_ids``
        (e.g. the pair of interest) are placed in *both* logs so that the
        explanation can be applied to them on either side.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = rng if rng is not None else random.Random(0)
        forced = set(always_include_job_ids)
        train = ExecutionLog()
        test = ExecutionLog()
        for job in self.jobs:
            tasks = self.tasks_of_job(job.job_id)
            if job.job_id in forced:
                train.add_job(job, tasks)
                test.add_job(job, tasks)
                continue
            if rng.random() < train_fraction:
                train.add_job(job, tasks)
            else:
                test.add_job(job, tasks)
        return train, test

    def sample_jobs(
        self, fraction: float, rng: random.Random | None = None,
        always_include_job_ids: Iterable[str] = (),
    ) -> "ExecutionLog":
        """A new log with a random subset of jobs (tasks carried over)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = rng if rng is not None else random.Random(0)
        forced = set(always_include_job_ids)
        subset = ExecutionLog()
        for job in self.jobs:
            if job.job_id in forced or rng.random() < fraction:
                subset.add_job(job, self.tasks_of_job(job.job_id))
        return subset

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        """Serialise the log to a JSON string."""
        payload = {
            "jobs": [record_to_dict(job) for job in self.jobs],
            "tasks": [record_to_dict(task) for task in self.tasks],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionLog":
        """Parse a log previously produced by :meth:`to_json`.

        Validation matches a ``.jsonl`` log's: every record goes through
        the JSONL record parser and the log is built with :meth:`extend`,
        so a malformed document or record raises
        :class:`~repro.exceptions.LogFormatError` and a repeated id
        :class:`~repro.exceptions.DuplicateRecordError`.
        """
        from repro.logs.parser import _jsonl_record

        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"invalid execution-log JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise LogFormatError(
                "invalid execution-log JSON: expected an object with 'jobs' "
                f"and 'tasks' lists, got {type(payload).__name__}"
            )
        sections: dict[str, list] = {}
        for section, record_type in (("jobs", JobRecord), ("tasks", TaskRecord)):
            entries = payload.get(section, [])
            if not isinstance(entries, list):
                raise LogFormatError(
                    f"invalid execution-log JSON: {section!r} must be a list"
                )
            records = []
            for position, entry in enumerate(entries):
                where = f"{section}[{position}]"
                record = _jsonl_record(entry, where)
                if not isinstance(record, record_type):
                    raise LogFormatError(
                        f"{where}: found a non-{section[:-1]} record in the "
                        f"{section} section"
                    )
                records.append(record)
            sections[section] = records
        log = cls()
        log.extend(jobs=sections["jobs"], tasks=sections["tasks"])
        return log

    @staticmethod
    def _is_jsonl(path: Path) -> bool:
        name = path.name.lower()
        return name.endswith(".jsonl") or name.endswith(".jsonl.gz")

    def save(self, path: str | Path) -> None:
        """Write the log to disk; the file suffix selects the format.

        ``.jsonl`` / ``.jsonl.gz`` paths get the streaming one-record-per-
        line format (:func:`repro.logs.writer.write_records_jsonl`); any
        other path gets the pretty-printed JSON document of
        :meth:`to_json`.  Either way a trailing ``.gz`` transparently
        gzip-compresses the output — production logs are large.
        """
        from repro.logs.writer import open_log_text, write_records_jsonl

        target = Path(path)
        if self._is_jsonl(target):
            write_records_jsonl(target, self.jobs, self.tasks)
            return
        with open_log_text(target, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ExecutionLog":
        """Read a log from disk; accepts every format :meth:`save` writes."""
        from repro.logs.parser import read_records_jsonl
        from repro.logs.writer import open_log_text

        source = Path(path)
        try:
            if cls._is_jsonl(source):
                jobs, tasks = read_records_jsonl(source)
                log = cls()
                log.extend(jobs=jobs, tasks=tasks)
                return log
            try:
                with open_log_text(source, "r") as handle:
                    text = handle.read()
            except (OSError, EOFError) as exc:
                if not source.exists():
                    raise
                raise LogFormatError(
                    f"cannot read execution log {source}: {exc}"
                ) from exc
            return cls.from_json(text)
        except DuplicateRecordError as exc:
            # A duplicate id inside a *file* must name the path too;
            # re-raise the same type so callers keep the stable
            # kind/record_id fields.
            raise DuplicateRecordError(
                f"invalid execution log {source}: {exc}",
                kind=exc.kind,
                record_id=exc.record_id,
            ) from exc

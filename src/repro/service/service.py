"""The concurrent query service: the executor behind every entry point.

:class:`PerfXplainService` turns a :class:`~repro.service.catalog.LogCatalog`
into a long-running query-answering service.  Requests — the versioned
dataclasses of :mod:`repro.service.protocol` — are executed on a thread
pool, with two guarantees:

* **Determinism.**  Read traffic to one log — queries, batches,
  evaluations — runs *concurrently* under the log's reader-writer lock,
  and every response is still bit-identical to what a direct synchronous
  session call would return (the concurrency tests and the service
  benchmark assert this).  The session layer makes that possible: locked
  caches, compute-once-per-key de-duplication and per-technique
  serialisation for the one stateful step (see ``docs/concurrency.md``).
  Appends and first-load take the write side, so mutations remain
  strictly single-writer.
* **Deduplication.**  Identical in-flight queries (same log, query text
  modulo whitespace, width, technique, flags) share one execution: the
  second submitter gets the first one's future.  Combined with the
  session's explanation memoisation, a burst of identical questions —
  the common case for heavy query traffic — costs one computation.

Failures never escape as exceptions: every error is folded into a wire
:class:`~repro.service.protocol.ErrorResponse` with a stable code, so one
code path serves programmatic callers, the CLI and the HTTP endpoint.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import AbstractContextManager, ExitStack
from typing import Any

from repro.core.api import PerfXplain
from repro.core.pairshard import default_shard_pool
from repro.core.evaluation import evaluate_precision_vs_width
from repro.core.report import ReportEntry
from repro.core.reporting import sweep_to_dict
from repro.diff.engine import DiffEngine
from repro.exceptions import ReproError
from repro.service.catalog import LogCatalog
from repro.service.protocol import (
    AppendRequest,
    AppendResponse,
    BatchRequest,
    BatchResponse,
    DiffRequest,
    DiffResponse,
    ErrorCode,
    ErrorResponse,
    EvaluateRequest,
    EvaluateResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    ServiceRequest,
    ServiceResponse,
    check_protocol_version,
)
from repro.service.metrics import LatencyRecorder

#: Request types the latency recorder pre-seeds, so ``/v1/metrics`` lists
#: every kind the service can execute even before its first sample.
REQUEST_KINDS = ("append", "batch", "diff", "evaluate", "query")


def _derive_max_workers() -> int:
    """Thread-pool size matched to the machine: cpu_count clamped to 2..16.

    The floor of 2 keeps read concurrency observable even on one-core
    containers; the ceiling of 16 stops a large host from spawning more
    request threads than the per-log work can usefully overlap.
    """
    return max(2, min(16, os.cpu_count() or 2))


#: Default worker-thread count for the request pool (machine-derived).
DEFAULT_MAX_WORKERS = _derive_max_workers()


class PerfXplainService:
    """Execute protocol requests concurrently against a log catalog.

    :param catalog: the named logs (and their shared sessions) to serve.
    :param max_workers: thread-pool size for query execution; ``None``
        uses :data:`DEFAULT_MAX_WORKERS` (derived from ``os.cpu_count()``).
    """

    def __init__(
        self,
        catalog: LogCatalog,
        max_workers: int | None = None,
    ) -> None:
        if max_workers is None:
            max_workers = DEFAULT_MAX_WORKERS
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.catalog = catalog
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="perfxplain"
        )
        self._inflight_lock = threading.Lock()
        self._inflight: dict[tuple, Future] = {}
        self._executed = 0
        self._deduplicated = 0
        self._closed = False
        self._latency = LatencyRecorder(kinds=REQUEST_KINDS)

    def _read_side(self, name: str) -> AbstractContextManager[None]:
        """The lock context a read request holds for one log: the shared
        read side of its reader-writer lock."""
        return self.catalog.lock(name).read_locked()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def execute(self, request: ServiceRequest) -> ServiceResponse:
        """Execute any protocol request synchronously; never raises.

        Query requests still flow through the pool (and its dedup map), so
        a synchronous caller and a concurrent batch racing on the same
        question share one execution.
        """
        if isinstance(request, QueryRequest):
            return self.submit(request).result()
        if isinstance(request, BatchRequest):
            return self.execute_batch(request)
        if isinstance(request, EvaluateRequest):
            return self._execute_evaluate(request)
        if isinstance(request, AppendRequest):
            return self._execute_append(request)
        if isinstance(request, DiffRequest):
            return self._execute_diff(request)
        return ErrorResponse(
            code=ErrorCode.INVALID_REQUEST,
            message=f"unsupported request type {type(request).__name__}",
        )

    def submit(self, request: QueryRequest) -> "Future[ServiceResponse]":
        """Schedule one query; identical in-flight queries share a future."""
        try:
            self._check_open()
            check_protocol_version(request.protocol_version)
        except ProtocolError as error:
            return _completed(ErrorResponse.for_error(error))
        key = request.canonical_key()
        with self._inflight_lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self._deduplicated += 1
                return existing
            try:
                future: "Future[ServiceResponse]" = self._pool.submit(
                    self._run_query, key, request
                )
            except RuntimeError:
                # close() raced this submission and shut the pool down.
                return _completed(
                    ErrorResponse(
                        code=ErrorCode.INVALID_REQUEST,
                        message="the service is closed",
                    )
                )
            self._inflight[key] = future
            return future

    def execute_batch(self, batch: BatchRequest) -> BatchResponse | ErrorResponse:
        """Execute a batch concurrently; responses come in request order."""
        try:
            self._check_open()
            check_protocol_version(batch.protocol_version)
        except ProtocolError as error:
            return ErrorResponse.for_error(error)
        start = time.perf_counter()
        futures = [self.submit(request) for request in batch.requests]
        responses = tuple(future.result() for future in futures)
        self._latency.record("batch", (time.perf_counter() - start) * 1000.0)
        return BatchResponse(responses=responses)

    # ------------------------------------------------------------------ #
    # request handlers
    # ------------------------------------------------------------------ #

    def _run_query(self, key: tuple, request: QueryRequest) -> ServiceResponse:
        try:
            return self._execute_query(request)
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)

    def _execute_query(self, request: QueryRequest) -> ServiceResponse:
        overall = time.perf_counter()
        try:
            session = self.catalog.session(request.log)
            start = time.perf_counter()
            # Read side of the per-log lock: queries to one log overlap
            # with each other but never with an append or first load.  The
            # session keeps concurrent readers bit-identical to sequential
            # ones (locked caches + compute-once-per-key de-duplication).
            with self._read_side(request.log):
                resolved = session.resolve(request.query)
                explanation = session.explain(
                    resolved,
                    width=request.width,
                    technique=request.technique,
                    auto_despite=request.auto_despite,
                )
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            entry = ReportEntry.for_query(resolved, explanation, elapsed_ms=elapsed_ms)
            response: ServiceResponse = QueryResponse(log=request.log, entry=entry)
        except ReproError as error:
            response = ErrorResponse.for_error(error)
        except Exception as error:  # defensive: plugins may raise anything
            response = ErrorResponse(
                code=ErrorCode.INTERNAL_ERROR,
                message=f"{type(error).__name__}: {error}",
            )
        with self._inflight_lock:
            self._executed += 1
        self._latency.record("query", (time.perf_counter() - overall) * 1000.0)
        return response

    def _execute_evaluate(self, request: EvaluateRequest) -> ServiceResponse:
        start = time.perf_counter()
        try:
            check_protocol_version(request.protocol_version)
            log = self.catalog.log(request.log)
            with self._read_side(request.log):
                # Evaluation builds its own facade: the sweep re-splits the
                # log per repetition, which must not pollute (or race with)
                # the shared query session's caches.  It only reads the
                # served log, so it holds the read side like any query.
                facade = PerfXplain(log, seed=request.seed)
                query = facade.resolve(request.query)
                if request.techniques:
                    techniques = [
                        facade.technique(name) for name in request.techniques
                    ]
                else:
                    techniques = list(facade.techniques().values())
                sweep = evaluate_precision_vs_width(
                    log,
                    query,
                    techniques,
                    widths=request.widths,
                    repetitions=request.repetitions,
                    seed=request.seed,
                )
            with self._inflight_lock:
                self._executed += 1
            self._latency.record("evaluate", (time.perf_counter() - start) * 1000.0)
            assert query.first_id is not None and query.second_id is not None
            return EvaluateResponse(
                log=request.log,
                query=str(query),
                first_id=query.first_id,
                second_id=query.second_id,
                results=sweep_to_dict(sweep),
            )
        except ReproError as error:
            return ErrorResponse.for_error(error)
        except Exception as error:  # defensive: plugins may raise anything
            return ErrorResponse(
                code=ErrorCode.INTERNAL_ERROR,
                message=f"{type(error).__name__}: {error}",
            )

    def _execute_append(self, request: AppendRequest) -> ServiceResponse:
        """Grow a served log in place.

        Appends are mutations, not queries: they are never deduplicated
        (retrying a successful append is a ``duplicate_record`` error by
        design) and run synchronously under the write side of the log's
        reader-writer lock via :meth:`LogCatalog.append` — concurrent
        readers drain first, and no reader observes a half-applied batch.
        """
        start = time.perf_counter()
        try:
            self._check_open()
            check_protocol_version(request.protocol_version)
            snapshot = self.catalog.append(
                request.log, jobs=request.jobs, tasks=request.tasks
            )
            with self._inflight_lock:
                self._executed += 1
            self._latency.record("append", (time.perf_counter() - start) * 1000.0)
            return AppendResponse(
                log=request.log,
                appended_jobs=len(request.jobs),
                appended_tasks=len(request.tasks),
                num_jobs=snapshot["num_jobs"],
                num_tasks=snapshot["num_tasks"],
                versions=snapshot["versions"],
            )
        except ReproError as error:
            return ErrorResponse.for_error(error)
        except Exception as error:  # defensive: plugins may raise anything
            return ErrorResponse(
                code=ErrorCode.INTERNAL_ERROR,
                message=f"{type(error).__name__}: {error}",
            )

    def diff(
        self,
        before: str,
        after: str,
        width: int | None = None,
        technique: str = "perfxplain",
    ) -> ServiceResponse:
        """Compare two served logs; convenience wrapper over :meth:`execute`."""
        return self.execute(
            DiffRequest(before=before, after=after, width=width, technique=technique)
        )

    def _execute_diff(self, request: DiffRequest) -> ServiceResponse:
        """Run a cross-log diff over two served logs.

        The diff reads *both* logs, so it holds both read sides at once.
        Deadlock discipline: the two locks are acquired in sorted-name
        order (two concurrent diffs can never hold each other's first lock
        while waiting on the second), and a self-diff (``before == after``)
        takes the log's lock exactly once — the per-log RWLock is
        writer-preferring, so a queued append between two read acquisitions
        of the same lock would deadlock a re-entrant reader.
        """
        start = time.perf_counter()
        try:
            self._check_open()
            check_protocol_version(request.protocol_version)
            # Resolve (and lazily load) both logs before taking the read
            # sides: first load takes the entry's write side internally.
            before_log = self.catalog.log(request.before)
            after_log = self.catalog.log(request.after)
            with ExitStack() as stack:
                for name in sorted({request.before, request.after}):
                    stack.enter_context(self._read_side(name))
                engine = DiffEngine(
                    before_log,
                    after_log,
                    config=self.catalog.config,
                    seed=self.catalog.seed,
                    technique=request.technique,
                    width=request.width,
                )
                report = engine.report()
            with self._inflight_lock:
                self._executed += 1
            self._latency.record("diff", (time.perf_counter() - start) * 1000.0)
            return DiffResponse(
                before=request.before, after=request.after, report=report
            )
        except ReproError as error:
            return ErrorResponse.for_error(error)
        except Exception as error:  # defensive: plugins may raise anything
            return ErrorResponse(
                code=ErrorCode.INTERNAL_ERROR,
                message=f"{type(error).__name__}: {error}",
            )

    # ------------------------------------------------------------------ #
    # introspection and lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, Any]:
        """Service counters plus the per-log catalog snapshot.

        ``executed`` counts requests that actually ran; ``deduplicated``
        counts submissions that piggybacked on an identical in-flight
        query; ``logs`` is :meth:`LogCatalog.describe`, whose per-log
        ``cache_stats`` expose each session's hit/miss/eviction counters.
        """
        with self._inflight_lock:
            executed, deduplicated = self._executed, self._deduplicated
            in_flight = len(self._inflight)
        return {
            "executed": executed,
            "deduplicated": deduplicated,
            "in_flight": in_flight,
            "logs": self.catalog.describe(),
        }

    def metrics(self) -> dict[str, Any]:
        """Latency percentiles per request type plus every counter family.

        ``latency_ms`` maps request type (``query``/``batch``/``evaluate``/
        ``append``/``diff``) to nearest-rank p50/p95/p99 over a ring of
        recent samples (every kind in :data:`REQUEST_KINDS` is listed even
        before its first request, with ``count: 0`` and null percentiles);
        ``shard_pool`` exposes the persistent pair-shard pool's
        fork/reuse counters; ``logs`` carries each session's cache,
        invalidation and compute-once (de-duplication) counters.
        """
        report = self.stats()
        report["max_workers"] = self.max_workers
        report["latency_ms"] = self._latency.snapshot()
        report["shard_pool"] = default_shard_pool().stats()
        return report

    def _check_open(self) -> None:
        if self._closed:
            raise ProtocolError(
                "the service is closed", code=ErrorCode.INVALID_REQUEST
            )

    def close(self) -> None:
        """Stop accepting work and wait for in-flight queries to finish."""
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "PerfXplainService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _completed(response: ServiceResponse) -> "Future[ServiceResponse]":
    future: "Future[ServiceResponse]" = Future()
    future.set_result(response)
    return future

"""Process-sharded pair-kernel batch evaluation with a deterministic merge.

One candidate batch is an independent unit of work: the despite /
observed / expected masks of a batch depend only on the kernel (block +
config), the query and the batch's index pairs.  This module fans those
batches out across a persistent forked worker pool and merges results
**in submission order**, reusing the bit-identical-parallel pattern the
simulation sweep executor proved (:mod:`repro.workloads.grid`): because the
candidate enumeration order and the order-independent CRC32 sampling rule
(:func:`~repro.core.pairkernel.pair_is_kept`) are both worker-count
invariant, the concatenated output is byte-for-byte identical to the serial
path for every worker count — the differential suite asserts it.

Workers are forked (zero-copy: the kernel's record block, including a
chunked block's resident working set, is inherited through fork) **once**
and then shared by every thread and every query: a :class:`ShardPool`
keeps a registry of fork-shipped kernels keyed by :func:`shard_token`, so
a repeat query against an unchanged log reuses the live workers instead of
paying a pool spin-up, and two service threads can shard concurrently —
each generation gets its own submission window onto the shared pool.  The
pool re-forks only when a generation needs state its workers never
inherited (a new log, a replaced block after an epoch move, or a block
grown in place by the append path); the previous pool finishes its
in-flight generations and is then torn down.  The batch stream is
submitted through a bounded window so a million-task candidate space never
materialises more than ``window`` batches at once.  Platforms without the
``fork`` start method (Windows) fall back to the serial path — same
results, one process.

A worker that dies mid-generation (the OOM killer, a stray SIGKILL) is
noticed rather than waited on forever: ``multiprocessing.Pool`` silently
replaces a dead worker, and the batch it held never completes.  A
generation waits for each result in bounded steps and checks the
sentinels of the workers its pool forked; on a loss the pool is retired
and every batch still pending is evaluated in-process, in submission
order — the same bytes, since any worker count yields the same stream.
The next generation forks a fresh pool.  A lost pool's own teardown runs
on a daemon thread, so no query waits on the pool's threads, one of which
a worker killed mid-send can leave waiting forever.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
import threading
from collections import OrderedDict, deque
from itertools import compress
from multiprocessing.connection import wait
from operator import or_
from typing import Iterator, Sequence

from repro.core.pairkernel import (
    CANDIDATE_BATCH,
    PairContext,
    PairKernel,
    iter_candidate_batches,
)
from repro.core.pxql.query import PXQLQuery

#: Batches in flight per worker: enough to keep the pool busy, small
#: enough to bound the memory of undelivered results.
_WINDOW_PER_WORKER = 4

#: Seconds a generation waits for one result before it checks that every
#: worker of its pool is still alive.
LIVENESS_POLL_S = 0.1

#: Kernels (hence record blocks) a pool keeps strongly referenced for
#: reuse.  Beyond this, the least recently sharded kernels are dropped
#: from the registry and their next query re-forks.
MAX_POOL_TOKENS = 8

#: The kernel registry the *next* fork ships to its workers.  Assigned —
#: never mutated — under :data:`_FORK_LOCK` immediately before the fork,
#: so every worker of one pool inherits the same consistent snapshot;
#: forked workers read their inherited copy without any lock.
_POOL_STATE: dict[tuple, PairKernel] = {}

#: Serialises the (assign :data:`_POOL_STATE`, fork) critical section
#: across :class:`ShardPool` instances, which share the module global.
_FORK_LOCK = threading.Lock()


def shard_token(kernel: PairKernel) -> tuple:
    """The identity of one kernel's fork-shipped state.

    ``id(block)`` names the block object — valid only while the block is
    strongly referenced, which the pool registry guarantees for every live
    token, so an id can never be recycled into a stale entry.
    ``len(block)`` captures in-place growth: the O(delta) append path
    extends a cached block *without* replacing the object, and a grown
    block must re-fork so workers see the new rows.  The (frozen,
    hashable) pair config covers every derivation tunable; epoch moves
    need no extra component because they evict the log's cached block and
    the replacement is a new object with a new id.
    """
    block = kernel.block
    return (id(block), len(block), kernel.config)


def evaluate_candidate_batch(
    kernel: PairKernel,
    query: PXQLQuery,
    firsts: Sequence[int],
    seconds: Sequence[int],
) -> tuple[list[int], list[int], bytearray]:
    """Filter one candidate batch to its related pairs.

    Returns the surviving ``(first, second)`` index lists and the per-pair
    observed flags (``1`` = the pair satisfied the observed clause, ``0`` =
    only the expected clause).  The despite clause prunes one atom at a
    time, in clause order: each atom is evaluated over the pairs the atoms
    before it kept, and the pairs are compressed after every atom that
    drops any (an atom that drops none keeps the context and its gathers).
    Every mask is a per-pair function, so the survivors are those of the
    whole conjunction.  The observed and expected clauses then run over
    the survivors sharing one gather cache — the exact sequence of the
    serial path, extracted here so the serial generator and the forked
    workers cannot drift apart.
    """
    ctx = PairContext(firsts, seconds)
    for atom in query.despite.atoms:
        kept = kernel.atom_mask(atom, ctx)
        if 0 not in kept:
            continue
        firsts = list(compress(firsts, kept))
        if not firsts:
            return [], [], bytearray()
        ctx = PairContext(firsts, list(compress(ctx.second, kept)))
    observed = kernel.predicate_mask(query.observed, ctx)
    expected = kernel.predicate_mask(query.expected, ctx)
    related = bytearray(map(or_, observed, expected))
    related_firsts = list(compress(ctx.first, related))
    if not related_firsts:
        return [], [], bytearray()
    related_seconds = list(compress(ctx.second, related))
    observed_flags = bytearray(compress(observed, related))
    return related_firsts, related_seconds, observed_flags


def _pool_worker(
    payload: tuple[tuple, PXQLQuery, list[int], list[int]],
) -> tuple[list[int], list[int], bytes]:
    """Evaluate one batch against a fork-inherited kernel.

    The token routes to the kernel snapshot this worker inherited at fork
    time; the query rides along per task (it is small and picklable, so
    shipping it costs microseconds and lets one pool serve every query).
    """
    token, query, firsts, seconds = payload
    kernel = _POOL_STATE.get(token)
    if kernel is None:  # pragma: no cover - guarded by ShardPool re-forks
        raise KeyError(f"worker forked without shard state for token {token!r}")
    out_firsts, out_seconds, observed = evaluate_candidate_batch(
        kernel, query, firsts, seconds
    )
    return out_firsts, out_seconds, bytes(observed)


def _fork_context() -> multiprocessing.context.BaseContext | None:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


class _PoolHandle:
    """One forked worker pool plus the kernels its workers inherited.

    ``kernels`` holds strong references for the pool's whole lifetime:
    while a token is live here, its block cannot be garbage-collected, so
    ``id(block)`` inside the token cannot be recycled into a collision.
    """

    __slots__ = (
        "pool",
        "kernels",
        "workers",
        "active",
        "retired",
        "lost",
        "processes",
    )

    def __init__(
        self,
        pool: "multiprocessing.pool.Pool",
        kernels: dict[tuple, PairKernel],
        workers: int,
    ) -> None:
        self.pool = pool
        self.kernels = kernels
        self.workers = workers
        #: Generations currently submitting to / draining from this pool.
        self.active = 0
        #: A retired pool accepts no new generations and is terminated
        #: when the last active one drains.
        self.retired = False
        #: A worker died: no generation waits on this pool any more.
        self.lost = False
        #: The workers forked with the pool (kept referenced, so their
        #: sentinels stay open after the pool reaps and replaces them).
        self.processes = list(pool._pool)

    def worker_died(self) -> bool:
        """Whether any worker forked with the pool has exited."""
        return bool(wait([process.sentinel for process in self.processes], timeout=0))

    def terminate(self) -> None:
        """Tear the pool down; never waits on a lost worker.

        ``Pool.terminate`` takes the task queue's read lock, which an idle
        worker holds while it waits for a task, and the result queue's
        write lock, which a worker holds while it sends a result — a
        worker killed holding either never releases it.  It then joins the
        pool's result handler, which waits forever for the rest of a
        result a worker was killed while sending.  For a pool that lost a
        worker (noticed or not: shutdown can find one that died idle),
        replacement forks are stopped, every worker is killed and both
        locks are freed; the rest of the teardown runs on a daemon thread
        that is waited on only for :data:`LIVENESS_POLL_S`.
        """
        pool = self.pool
        if not (self.lost or self.worker_died()):
            _close_pool(pool)
            return
        handler = pool._worker_handler
        handler._state = multiprocessing.pool.TERMINATE
        pool._change_notifier.put(None)
        handler.join()
        for process in pool._pool:
            process.kill()
            process.join()
        for lock in (pool._inqueue._rlock, pool._outqueue._wlock):
            # The pool's own threads hold these only for a send; one
            # still held after the timeout belongs to a dead worker.
            if lock is not None:
                lock.acquire(timeout=LIVENESS_POLL_S)
                lock.release()
        teardown = threading.Thread(
            target=_close_pool, args=(pool,), name="shard-pool-teardown", daemon=True
        )
        teardown.start()
        teardown.join(LIVENESS_POLL_S)


def _close_pool(pool: "multiprocessing.pool.Pool") -> None:
    pool.terminate()
    pool.join()


class ShardPool:
    """A persistent, thread-shared pool of forked pair-kernel workers.

    Generations (:meth:`run`) from any number of threads share one set of
    forked workers; each generation merges its own results in submission
    order, so interleaving generations cannot perturb anyone's bytes.  A
    generation whose kernel the current workers never inherited triggers a
    re-fork: the new pool inherits the (bounded, LRU) kernel registry, the
    old pool finishes its in-flight generations and is then torn down —
    submissions never block behind a re-fork and never land on workers
    missing their state.

    Accounting (:meth:`stats`): ``forks`` counts pool spin-ups, ``reuses``
    counts generations served by an already-live pool, ``lost_pools``
    counts pools retired because a worker died, and
    ``max_concurrent_generations`` proves genuine overlap — the old
    module-global design serialised every sharded generation process-wide.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._handle: _PoolHandle | None = None
        self._retired: list[_PoolHandle] = []
        #: Recently sharded kernels, most recent last (the re-fork ships
        #: this registry, bounded to :data:`MAX_POOL_TOKENS`).
        self._kernels: OrderedDict[tuple, PairKernel] = OrderedDict()
        self._forks = 0
        self._reuses = 0
        self._losses = 0
        self._active_generations = 0
        self._max_concurrent_generations = 0

    # ------------------------------------------------------------------ #
    # generations
    # ------------------------------------------------------------------ #

    def run(
        self,
        kernel: PairKernel,
        query: PXQLQuery,
        batches: "Iterator[tuple[list[int], list[int]]]",
        workers: int,
        window: int | None = None,
    ) -> Iterator[tuple[list[int], list[int], bytearray]]:
        """One generation: evaluate ``batches``, yield merged results.

        Results come strictly in submission order (the determinism
        contract); the generator releases its pool hold when exhausted,
        closed, or unwound by an error.
        """
        context = _fork_context()
        if context is None:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError("process sharding requires the fork start method")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        token = shard_token(kernel)
        handle = self._acquire(context, token, kernel, workers)
        if window is None:
            window = workers * _WINDOW_PER_WORKER
        # Each pending entry keeps its index arrays, so a batch lost with
        # its worker can be evaluated again here.
        pending: deque = deque()
        try:
            apply_async = handle.pool.apply_async
            for firsts, seconds in batches:
                result = None
                if not handle.lost:
                    payload = (token, query, firsts, seconds)
                    result = apply_async(_pool_worker, (payload,))
                pending.append((result, firsts, seconds))
                while len(pending) >= window or (handle.lost and pending):
                    out = self._take(handle, pending.popleft(), kernel, query)
                    if out[0]:
                        yield out
            while pending:
                out = self._take(handle, pending.popleft(), kernel, query)
                if out[0]:
                    yield out
        finally:
            self._release(handle)

    def _take(
        self,
        handle: _PoolHandle,
        entry: tuple,
        kernel: PairKernel,
        query: PXQLQuery,
    ) -> tuple[list[int], list[int], bytearray]:
        """One pending batch's result: the worker's, or evaluated in-process
        once the pool has lost a worker."""
        result, firsts, seconds = entry
        while result is not None and not handle.lost:
            result.wait(LIVENESS_POLL_S)
            if result.ready():
                out_firsts, out_seconds, observed = result.get()
                return out_firsts, out_seconds, bytearray(observed)
            if handle.worker_died():
                # This generation holds the pool, so its last one tears it down.
                with self._lock:
                    self._retire_lost(handle)
        return evaluate_candidate_batch(kernel, query, firsts, seconds)

    def _retire_lost(self, handle: _PoolHandle) -> _PoolHandle | None:
        """Record that a pool lost a worker and retire it (lock held);
        returns it as :meth:`_retire` does."""
        if handle.lost:
            return None
        handle.lost = True
        self._losses += 1
        if self._handle is handle:
            self._handle = None
        return None if handle.retired else self._retire(handle)

    def _retire(self, handle: _PoolHandle) -> _PoolHandle | None:
        """Retire a pool (lock held): it accepts no new generations.

        Returns the handle when no generation holds it, for the caller to
        terminate outside the lock; otherwise the last generation's
        :meth:`_release` does.
        """
        handle.retired = True
        if handle.active == 0:
            return handle
        self._retired.append(handle)
        return None

    def _acquire(
        self,
        context: "multiprocessing.context.BaseContext",
        token: tuple,
        kernel: PairKernel,
        workers: int,
    ) -> _PoolHandle:
        """Join the live pool, or re-fork one that has this kernel."""
        terminate: _PoolHandle | None = None
        with self._lock:
            handle = self._handle
            if handle is not None and handle.worker_died():
                # Lost while idle: re-fork rather than wait on it.
                terminate = self._retire_lost(handle)
                handle = None
            if (
                handle is not None
                and token in handle.kernels
                and handle.workers >= workers
            ):
                self._reuses += 1
                self._kernels[token] = kernel
                self._kernels.move_to_end(token)
            else:
                handle, previous = self._refork(context, token, kernel, workers)
                terminate = terminate or previous
            handle.active += 1
            self._active_generations += 1
            if self._active_generations > self._max_concurrent_generations:
                self._max_concurrent_generations = self._active_generations
        if terminate is not None:
            terminate.terminate()
        return handle

    def _refork(
        self,
        context: "multiprocessing.context.BaseContext",
        token: tuple,
        kernel: PairKernel,
        workers: int,
    ) -> tuple[_PoolHandle, _PoolHandle | None]:
        """Fork a fresh pool over the updated registry (lock held).

        Returns the new handle plus the previous one if it can be
        terminated immediately (no active generations); a busy previous
        pool is retired instead and torn down when its last drains.
        """
        global _POOL_STATE
        self._kernels[token] = kernel
        self._kernels.move_to_end(token)
        while len(self._kernels) > MAX_POOL_TOKENS:
            self._kernels.popitem(last=False)
        shipped = dict(self._kernels)
        with _FORK_LOCK:
            # Assign (never mutate) the snapshot, then fork eagerly:
            # multiprocessing.Pool starts every worker in its constructor,
            # so all of them inherit exactly this state — unlike the lazy
            # spawning of ProcessPoolExecutor, which could fork stragglers
            # after the global moved on.
            _POOL_STATE = shipped
            pool = context.Pool(processes=workers)
        self._forks += 1
        handle = _PoolHandle(pool, shipped, workers)
        previous = self._handle
        self._handle = handle
        return handle, None if previous is None else self._retire(previous)

    def _release(self, handle: _PoolHandle) -> None:
        """Drop one generation's hold; tear down a drained retired pool."""
        finished: _PoolHandle | None = None
        with self._lock:
            handle.active -= 1
            self._active_generations -= 1
            if handle.retired and handle.active == 0:
                if handle in self._retired:
                    self._retired.remove(handle)
                finished = handle
        if finished is not None:
            finished.terminate()

    # ------------------------------------------------------------------ #
    # lifecycle and accounting
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        """Release every kernel reference and tear down idle pools.

        Pools with generations still draining are retired (their last
        :meth:`_release` terminates them) rather than killed under a
        consumer, so shutdown never hangs or breaks an in-flight query.
        The pool object remains usable: the next :meth:`run` re-forks.
        """
        with self._lock:
            self._kernels.clear()
            handle, self._handle = self._handle, None
            finished = None if handle is None else self._retire(handle)
        if finished is not None:
            finished.terminate()

    def stats(self) -> dict[str, int]:
        """Running counters (see class docs) plus the live pool's shape."""
        with self._lock:
            live = self._handle is not None and not self._handle.retired
            return {
                "forks": self._forks,
                "reuses": self._reuses,
                "lost_pools": self._losses,
                "active_generations": self._active_generations,
                "max_concurrent_generations": self._max_concurrent_generations,
                "workers": self._handle.workers if live else 0,
                "tokens": len(self._kernels),
                "retired_pools": len(self._retired),
            }


#: The process-wide pool every sharded generation shares by default.
#: Construction is cheap (no fork happens until the first generation);
#: the atexit hook tears down whatever workers are still alive.
_DEFAULT_POOL = ShardPool()
atexit.register(_DEFAULT_POOL.shutdown)


def default_shard_pool() -> ShardPool:
    """The shared process-wide :class:`ShardPool`."""
    return _DEFAULT_POOL


def iter_evaluated_batches(
    kernel: PairKernel,
    query: PXQLQuery,
    groups: Sequence[Sequence[int]],
    salt: int | None,
    limit: int,
    workers: int = 1,
    batch_size: int = CANDIDATE_BATCH,
    pool: ShardPool | None = None,
    since: int = 0,
) -> Iterator[tuple[list[int], list[int], bytearray]]:
    """Related-pair batches, serial or process-sharded — same bytes either way.

    With ``workers >= 2`` (and ``fork`` available) candidate batches are
    shipped through the shared :class:`ShardPool` (or ``pool``) under a
    bounded submission window and the results are yielded strictly in
    submission order; otherwise each batch is evaluated inline.  Empty
    batches are filtered here, after the merge, so the yielded stream is
    identical across paths.  ``since`` limits the candidates to those that
    touch a row at or past it
    (:func:`~repro.core.pairkernel.iter_candidate_batches`).
    """
    batches = iter_candidate_batches(
        kernel.block, groups, salt, limit, batch_size, since=since
    )
    if workers < 2 or _fork_context() is None:
        for firsts, seconds in batches:
            result = evaluate_candidate_batch(kernel, query, firsts, seconds)
            if result[0]:
                yield result
        return
    if pool is None:
        pool = default_shard_pool()
    yield from pool.run(kernel, query, batches, workers)

"""Span wrappers for the traced run, and the per-layer summary of spans.

The program has no spans of its own yet, so :class:`Tracer` wraps the
public functions behind each layer from outside, patched where their
callers look them up (``repro.core.api.find_pair_of_interest``, not
``repro.core.queries.find_pair_of_interest``).  A span records its name,
start, end, parent span and request id; spans stay in memory and the
server writes them when it stops.  Counters are taken at the same
boundaries.

:func:`summarise` turns the spans of one timed window into per-layer self,
busy and wait time.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Spans named ``<layer>.<what>``; the layer is everything before the last dot.
LAYERS = (
    "ingest", "service.http", "service.protocol", "service.service",
    "core.locks", "core.api", "core.pxql", "core.queries",
    "core.pairkernel", "core.examples", "core.sampling", "ml.matrix",
    "core.explainer", "core.baselines", "detectors", "diff", "logs.store",
    "core.pairshard",
)
LOCK_LAYER = "core.locks"
ROOT_SPAN = "service.http.request"


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class _TracedJson:
    """The ``json`` module as the HTTP layer sees it, with timed codecs."""

    def __init__(self, tracer: "Tracer") -> None:
        self.dumps = tracer.wrap(json.dumps, "service.protocol.encode")
        self.loads = tracer.wrap(json.loads, "service.protocol.decode")

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


class Tracer:
    """In-memory spans and counters for one server process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.queue_wait = 0.0
        self.chunk_stores: weakref.WeakSet = weakref.WeakSet()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._submits: dict[int, tuple] = {}
        #: Spans that handed a query to the executor and then only wait.
        self.waiting: set[int] = set()

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None,
             request: int | None = None) -> Iterator[int]:
        stack = self._stack()
        if stack:
            parent = stack[-1][0] if parent is None else parent
            request = stack[-1][1] if request is None else request
        span_id = next(self._span_ids)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, request, name, start, end))

    def count(self, **amounts: float) -> None:
        with self._lock:
            self.counts.update(amounts)

    def reset(self) -> dict[str, int]:
        """Forget spans and counters; returns the chunk-store totals so far."""
        self.spans = []
        self.waiting = set()
        with self._lock:
            self.counts = collections.Counter()
            self.queue_wait = 0.0
        return self.chunk_totals()

    def chunk_totals(self) -> dict[str, int]:
        totals: collections.Counter = collections.Counter()
        for store in list(self.chunk_stores):
            stats = store.stats()
            totals.update({k: stats[k] for k in ("loads", "spills", "evictions")})
        return dict(totals)

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def wrap(self, func: Callable, name: str,
             after: Callable | None = None) -> Callable:
        """``func`` timed as span ``name``; ``after(args, kwargs, result)``
        counts what the call did."""
        tracer = self

        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapped

    def wrap_generator(self, func: Callable, name: str,
                       on_call: Callable | None = None,
                       on_item: Callable | None = None) -> Callable:
        """A generator function timed per item: one span per ``next``."""
        tracer = self

        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            return tracer._timed_items(name, func(*args, **kwargs), on_item)

        return wrapped

    def _timed_items(self, name: str, items: Iterator, on_item) -> Iterator:
        try:
            while True:
                with self.span(name):
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                if on_item is not None:
                    on_item(item)
                yield item
        finally:
            items.close()

    def patch(self, owner: Any, attr: str, name: str, generator: bool = False,
              **hooks: Callable) -> None:
        """Replace ``owner.attr`` with its traced version."""
        raw = inspect.getattr_static(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder is not None else raw
        if generator:
            traced = self.wrap_generator(func, name, **hooks)
        else:
            traced = self.wrap(func, name, **hooks)
        setattr(owner, attr, binder(traced) if binder is not None else traced)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.core import api, examples, sampling
        from repro.core.baselines.rule_of_thumb import RuleOfThumbExplainer
        from repro.core.baselines.sim_but_diff import SimButDiffExplainer
        from repro.core.explainer import PerfXplainExplainer
        from repro.core.locks import RWLock
        from repro.core.pairkernel import PairKernel
        from repro.core.pairshard import ShardPool
        from repro.detectors.base import RuleBasedDetector
        from repro.diff import engine
        from repro.logs.chunkstore import ChunkStore
        from repro.logs.store import ExecutionLog
        from repro.ml.matrix import FeatureMatrix
        from repro.service import catalog, http, protocol
        from repro.service.service import PerfXplainService

        patch = self.patch
        patch(catalog, "load_execution_log", "ingest.load")
        # HTTP: one root span per request, under a fresh request id.
        handle = http._ServiceRequestHandler.handle_one_request

        def handle_one_request(handler):
            with self.span(ROOT_SPAN, request=next(self._request_ids)):
                handle(handler)

        http._ServiceRequestHandler.handle_one_request = handle_one_request
        http.json = _TracedJson(self)
        patch(http, "parse_request", "service.protocol.decode")
        for response in ("QueryResponse", "DiffResponse", "AppendResponse",
                         "ErrorResponse"):
            patch(getattr(protocol, response), "to_dict", "service.protocol.encode")
        # Executor: queries hop from the HTTP thread to a pool thread; the
        # pool span's parent is the submitting span, and the gap between
        # submit and start is queue wait.
        patch(PerfXplainService, "execute", "service.service.execute")
        submit = PerfXplainService.submit
        run_query = PerfXplainService._run_query

        def traced_submit(service, request):
            # Keyed by the request object, which the entry keeps alive: a
            # deduplicated request never runs, and its id must not be
            # reused by a later one.
            stack = self._stack()
            origin = stack[-1] if stack else (None, None)
            if origin[0] is not None:
                self.waiting.add(origin[0])
            self._submits[id(request)] = (request, origin, time.perf_counter())
            return submit(service, request)

        def traced_run(service, key, request):
            _, (parent, request_id), submitted = self._submits.pop(
                id(request), (None, (None, None), time.perf_counter())
            )
            with self._lock:
                self.queue_wait += time.perf_counter() - submitted
            with self.span("service.service.run", parent=parent, request=request_id):
                return run_query(service, key, request)

        PerfXplainService.submit = traced_submit
        PerfXplainService._run_query = traced_run
        patch(RWLock, "acquire_read", "core.locks.read")
        patch(RWLock, "acquire_write", "core.locks.write")
        # Session and query layers.
        patch(api.PerfXplainSession, "explain", "core.api.explain")
        patch(api.PerfXplainSession, "resolve", "core.api.resolve")
        patch(api.PerfXplainSession, "training_matrix", "core.api.matrix")
        patch(api, "parse_query", "core.pxql.parse")

        find_pair = self.wrap(api.find_pair_of_interest, "core.queries.find_pair")

        def traced_find_pair(*args, **kwargs):
            mark = getattr(self._local, "related", 0)
            try:
                return find_pair(*args, **kwargs)
            finally:
                self.count(pairs_scanned=getattr(self._local, "related", 0) - mark)

        api.find_pair_of_interest = traced_find_pair
        # Pair kernels: candidates, related pairs and the cap.

        def filter_call(args, kwargs):
            self._local.cap = args[2] if len(args) > 2 else kwargs.get("max_candidate_pairs")

        def filter_item(batch):
            self._local.related = getattr(self._local, "related", 0) + len(batch[0])
            self.count(related=len(batch[0]))

        def blocked(args, kwargs, groups):
            candidates = sum(len(g) * (len(g) - 1) for g in groups)
            cap = getattr(self._local, "cap", None)
            self.count(candidates=candidates, filter_calls=1,
                       capped=int(cap is not None and candidates > cap))

        for module in (examples, engine):
            patch(module, "related_index_batches", "core.pairkernel.filter",
                  generator=True, on_call=filter_call, on_item=filter_item)
        patch(examples, "blocking_group_indices", "core.pairkernel.blocking",
              after=blocked)
        patch(api, "construct_training_matrix", "core.examples.construct")
        patch(PairKernel, "derived_columns", "core.examples.derive")

        def sampled(args, kwargs, kept):
            labels = len(args[0])
            self.count(sample_in=labels, sample_kept=labels if kept is None else len(kept))

        patch(sampling, "stratified_keep_indices", "core.sampling.sample", after=sampled)

        def encoded(args, kwargs, matrix):
            columns = args[1] if len(args) > 1 else kwargs["values_by_feature"]
            self.count(cells=len(columns) * matrix.n_rows)

        patch(FeatureMatrix, "from_columns", "ml.matrix.encode", after=encoded)

        def explained(args, kwargs, explanation):
            self.count(explanations=1, width_sum=len(explanation.because.atoms))

        patch(PerfXplainExplainer, "explain", "core.explainer.explain", after=explained)
        patch(SimButDiffExplainer, "explain", "core.baselines.explain")
        patch(RuleOfThumbExplainer, "explain", "core.baselines.explain")
        patch(RuleBasedDetector, "explain", "detectors.explain")
        patch(engine, "CrossLogView", "diff.view")
        patch(engine.DiffEngine, "report", "diff.report")
        patch(ExecutionLog, "extend", "logs.store.extend")
        patch(ExecutionLog, "record_block", "logs.store.block")
        patch(ExecutionLog, "flush_appends", "logs.store.block")
        patch(ShardPool, "run", "core.pairshard.run", generator=True)

        def remember_store(args, kwargs, result):
            self.chunk_stores.add(args[0])

        patch(ChunkStore, "__init__", "logs.chunkstore.init", after=remember_store)


# ---------------------------------------------------------------------- #
# summary
# ---------------------------------------------------------------------- #


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def summarise(spans: list[tuple], waiting: set[int] = frozenset()) -> tuple[dict, dict]:
    """Seconds per layer and per span name.

    Per layer:

    * self: a span's time minus the part its child spans cover;
    * busy: time inside the layer, counting nested spans of the same
      layer once;
    * wait: time the layer's work spent blocked on a reader-writer lock
      (lock spans are charged to the nearest enclosing non-lock layer),
      plus the uncovered time of ``waiting`` spans, which handed their
      work to the executor and only wait for its result (queueing, or an
      identical request already in flight).

    Per name: ``self`` and ``total`` (all span time).
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = collections.defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    layers = {layer: {"self": 0.0, "busy": 0.0, "wait": 0.0} for layer in LAYERS}
    names: dict[str, dict[str, float]] = collections.defaultdict(
        lambda: {"self": 0.0, "total": 0.0}
    )
    for span_id, parent, _request, name, start, end in spans:
        own = (end - start) - covered(children[span_id], start, end)
        names[name]["self"] += own
        names[name]["total"] += end - start
        layer = layer_of(name)
        if layer not in layers:
            continue
        layers[layer]["wait" if span_id in waiting else "self"] += own
        parent_span = by_id.get(parent)
        if parent_span is None or layer_of(parent_span[3]) != layer:
            layers[layer]["busy"] += end - start
        if layer == LOCK_LAYER:
            owner = parent_span
            while owner is not None and layer_of(owner[3]) == LOCK_LAYER:
                owner = by_id.get(owner[1])
            if owner is not None and layer_of(owner[3]) in layers:
                layers[layer_of(owner[3])]["wait"] += end - start
    return layers, dict(names)

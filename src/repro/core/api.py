"""The high-level PerfXplain facade and batch session.

This is the entry point most users need: load (or build) an execution log,
wrap it in :class:`PerfXplain`, and ask questions either as PXQL text or as
:class:`~repro.core.pxql.query.PXQLQuery` objects.

.. code-block:: python

    from repro import PerfXplain
    from repro.workloads import small_grid, build_experiment_log

    log = build_experiment_log(small_grid(), seed=7)
    px = PerfXplain(log)
    explanation = px.explain('''
        FOR JOBS 'job_202606140001_0003', 'job_202606140001_0010'
        DESPITE numinstances_isSame = T AND pig_script_isSame = T
        OBSERVED duration_compare = GT
        EXPECTED duration_compare = SIM
    ''')
    print(explanation.format())

Techniques are resolved through the pluggable registry
(:mod:`repro.core.registry`): anything registered with
``@register_explainer`` is immediately usable as the ``technique=``
argument.  For answering *many* queries against one log, use
:class:`PerfXplainSession` — it shares schema inference, pair selection and
training-example construction across calls, and offers
:meth:`PerfXplainSession.explain_batch`.
"""

from __future__ import annotations

import random
import threading
import time

from repro.core.cache import CacheStats, LRUCache
from repro.core.locks import SingleFlight
from repro.core.examples import (
    TrainingMatrix,
    construct_training_matrix,
    find_record,
)
from repro.core.explanation import Explanation
from repro.core.explainer import PerfXplainConfig, PerfXplainExplainer
from repro.core.features import FeatureSchema, SchemaFold
from repro.core.pairs import compute_pair_features
from repro.core.pxql import BoundQuery, PXQLQuery, Predicate, parse_query
from repro.core.queries import find_pair_of_interest
from repro.core.registry import (
    Explainer,
    call_explainer,
    create_explainer,
    explainer_accepts_examples,
    explainer_seed_offset,
    registered_explainers,
)
from repro.core.report import Report, ReportEntry
from repro.exceptions import ExplanationError, ReproError
from repro.logs.records import FeatureValue
from repro.logs.store import ExecutionLog

#: Default bound on each session cache (entries, not bytes).  Generous —
#: a service answering a realistic query mix rarely sees this many distinct
#: clause signatures or pairs — but finite, so a long-lived session cannot
#: grow without limit.  Pass ``cache_capacity=None`` for the old unbounded
#: behaviour.
DEFAULT_CACHE_CAPACITY = 1024


class PerfXplain:
    """Answer comparative performance questions over an execution log."""

    def __init__(
        self,
        log: ExecutionLog,
        config: PerfXplainConfig | None = None,
        seed: int = 0,
    ) -> None:
        """
        :param log: the log of past job and task executions.
        :param config: explanation-generation configuration.
        :param seed: seed for the internal random generators (sampling).
        """
        self.log = log
        self.config = config if config is not None else PerfXplainConfig()
        self._seed = seed
        #: Kind -> the ``(epoch, count)`` of the records folded in, the
        #: fold and its schema.
        self._schemas: dict[str, tuple[tuple[int, int], SchemaFold, FeatureSchema]] = {}
        self._technique_instances: dict[str, Explainer] = {}
        #: Guards lazy creation of schemas, technique instances and the
        #: per-technique call locks under concurrent readers.
        self._facade_lock = threading.Lock()
        #: One lock per technique instance: stateful techniques (e.g.
        #: RuleOfThumb's importance cache and its rng) must see calls one
        #: at a time to stay deterministic; see :meth:`explain`.
        self._technique_locks: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------ #
    # queries and explanations
    # ------------------------------------------------------------------ #

    def parse(self, text: str) -> PXQLQuery:
        """Parse a PXQL query string."""
        return parse_query(text)

    def explain(
        self,
        query: str | PXQLQuery,
        width: int | None = None,
        technique: str = "perfxplain",
        auto_despite: bool = False,
    ) -> Explanation:
        """Generate an explanation for a PXQL query.

        :param query: PXQL text or a query object.  If the pair identifiers
            are left unspecified, a representative pair of interest is picked
            from the log automatically.
        :param width: explanation width (defaults to the configured width).
        :param technique: any registered technique name — ``"perfxplain"``
            (default), ``"ruleofthumb"``, ``"simbutdiff"``, or a custom one
            registered via
            :func:`~repro.core.registry.register_explainer`.
        :param auto_despite: let the technique extend the despite clause
            before generating the because clause (techniques that do not
            declare the keyword reject the request).
        """
        resolved = self.resolve(query)
        schema = self.schema_for(resolved)
        explainer = self.technique(technique)
        # Build the shared training matrix *before* taking the technique
        # lock: matrix construction is the expensive, parallel-friendly
        # work (single-flighted per clause signature in the session), while
        # the dispatch below is serialised per technique instance so
        # stateful explainers see calls one at a time.
        examples = (
            self._examples_for(resolved)
            if explainer_accepts_examples(explainer)
            else None
        )
        with self._technique_lock(technique):
            return call_explainer(
                explainer,
                self.log,
                resolved,
                schema=schema,
                width=width,
                auto_despite=auto_despite,
                examples=examples,
            )

    def suggest_despite(self, query: str | PXQLQuery, width: int | None = None) -> Predicate:
        """Generate a ``des'`` clause for an under-specified query."""
        resolved = self.resolve(query)
        schema = self.schema_for(resolved)
        explainer = self.technique("perfxplain")
        if not isinstance(explainer, PerfXplainExplainer):
            raise ExplanationError(
                "despite-clause suggestion requires the PerfXplain technique"
            )
        examples = self._examples_for(resolved)
        with self._technique_lock("perfxplain"):
            return explainer.generate_despite(
                self.log, resolved, schema=schema, width=width,
                examples=examples,
            )

    def pair_features(self, query: str | PXQLQuery) -> dict[str, FeatureValue]:
        """The full pair-feature vector of a query's pair of interest."""
        resolved = self.resolve(query)
        schema = self.schema_for(resolved)
        first = find_record(self.log, resolved, resolved.first_id)
        second = find_record(self.log, resolved, resolved.second_id)
        return compute_pair_features(first, second, schema, self.config.pair_config)

    def find_pair(self, query: str | PXQLQuery) -> tuple[str, str]:
        """Pick a pair of executions matching a query's despite/observed clauses."""
        query = query if isinstance(query, PXQLQuery) else self.parse(query)
        schema = self.schema_for(query)
        return find_pair_of_interest(
            self.log, query, schema=schema, config=self.config.pair_config,
            rng=random.Random(self._seed),
        )

    def resolve(self, query: str | PXQLQuery) -> BoundQuery:
        """Parse and bind a query to a concrete pair of interest.

        Text queries are parsed first; queries without pair identifiers get
        a representative pair picked from the log.  The result's identifiers
        are guaranteed non-``None``.
        """
        if isinstance(query, str):
            query = self.parse(query)
        if not query.has_pair:
            first_id, second_id = self.find_pair(query)
            return query.with_pair(first_id, second_id)
        return query.bound()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def schema_for(self, query: PXQLQuery) -> FeatureSchema:
        """The raw-feature schema for the query's entity kind, kept current.

        Per kind the facade keeps :func:`~repro.core.features.infer_schema`'s
        fold state (:class:`~repro.core.features.SchemaFold`) and the
        ``(epoch, count)`` of the records it covers.  Records appended since
        are folded in; an epoch move starts the fold over.  While the result
        is unchanged the fold returns the same schema object, so the record
        block cached under it is still found.  Double-checked under the
        facade lock: concurrent readers racing a cold or grown kind fold
        once.
        """
        kind = query.entity.value
        epoch, _, count = self.log.mutation_snapshot()[kind]
        state = (epoch, count)
        entry = self._schemas.get(kind)
        if entry is not None and entry[0] == state:
            return entry[2]
        with self._facade_lock:
            entry = self._schemas.get(kind)
            if entry is not None and entry[0] == state:
                return entry[2]
            if not count:
                raise ExplanationError(
                    f"the log contains no {kind} records; cannot answer {kind}-level queries"
                )
            records = self.log.jobs if kind == "job" else self.log.tasks
            if entry is None or entry[0][0] != epoch or entry[0][1] > count:
                fold, start = SchemaFold(), 0
            else:
                fold, start = entry[1], entry[0][1]
            fold.add(records[start:count])
            schema = fold.schema()
            self._schemas[kind] = (state, fold, schema)
            return schema

    def technique(self, name: str) -> Explainer:
        """The (lazily instantiated) explainer behind a technique name.

        Instances are cached per facade; each technique's random generator
        is derived deterministically from the facade seed and the technique
        name, so adding or removing registrations never perturbs another
        technique's output.  Creation is double-checked under the facade
        lock, so racing readers share one instance (and one rng).
        """
        key = name.lower()
        instance = self._technique_instances.get(key)
        if instance is not None:
            return instance
        with self._facade_lock:
            instance = self._technique_instances.get(key)
            if instance is None:
                rng = random.Random(self._seed + explainer_seed_offset(key))
                instance = create_explainer(key, config=self.config, rng=rng)
                self._technique_instances[key] = instance
            return instance

    def _technique_lock(self, name: str) -> threading.Lock:
        """The per-technique dispatch lock (created on first use)."""
        key = name.lower()
        lock = self._technique_locks.get(key)
        if lock is None:
            with self._facade_lock:
                lock = self._technique_locks.setdefault(key, threading.Lock())
        return lock

    def techniques(self) -> dict[str, Explainer]:
        """Every registered technique, instantiated, keyed by public name."""
        return {name: self.technique(name) for name in registered_explainers()}

    def _examples_for(self, query: BoundQuery) -> TrainingMatrix | None:
        """A precomputed training matrix for a resolved query.

        The plain facade computes nothing ahead of time (each technique
        builds its own matrix); :class:`PerfXplainSession` overrides this
        with a shared per-clause-signature cache of encoded
        :class:`~repro.core.examples.TrainingMatrix` objects.
        """
        return None

class PerfXplainSession(PerfXplain):
    """A PerfXplain facade optimised for answering many queries on one log.

    Queries against the same log repeat the same expensive intermediate
    work: inferring the feature schema, enumerating the related pairs of
    Definition 7, encoding their pair-feature vectors, and building the
    columnar :class:`~repro.core.examples.TrainingMatrix` (including one
    global sort per numeric pair-feature column) the clause-growing loop
    searches.  The session caches that work keyed by the query's *clause
    signature* — the (entity, despite, observed, expected) quadruple —
    which is what the training examples actually depend on (not the pair
    of interest), so N queries with shared clauses pay for one
    construction and one encoding.  A matrix keeps the related-pair stream
    its pass produced, and the signature's pair of interest is read off
    it, so a ``?`` question filters its candidates once.

    All caching is deterministic: the session derives every random
    generator from its seed, so a session answers a fixed query list
    identically across runs.  Each cache is a bounded
    :class:`~repro.core.cache.LRUCache` (``cache_capacity`` entries,
    ``None`` = unlimited); eviction only ever costs recomputation, never
    correctness, and :meth:`cache_stats` reports the running
    hit/miss/eviction counters per cache.

    The session tracks the log's per-kind mutation state
    (:meth:`~repro.logs.store.ExecutionLog.mutation_snapshot`) as a
    high-water mark.  When records are *appended* (live, growing logs),
    the work costs what the append costs: the kind's schema folds in the
    new records, each of the kind's matrices extends its related-pair
    stream with the candidates that touch them on its next use, and only
    the explanations over the grown kind are discarded — a task append
    leaves every job-level explanation and matrix untouched.  In-place
    replacement or an explicit
    :meth:`~repro.logs.store.ExecutionLog.invalidate_caches` moves the
    epoch instead, which drops everything: history changed, so nothing
    derived from it can be trusted.

    The session is safe under **concurrent readers**: the caches are
    individually locked (:class:`~repro.core.cache.LRUCache`), cold-key
    computations are collapsed per key
    (:class:`~repro.core.locks.SingleFlight` — two threads racing the
    same cold clause signature produce one encode), technique dispatch is
    serialised per instance so stateful explainers stay deterministic,
    and cache/mutation reconciliation runs under a sync lock.  Mutating
    the *log* concurrently with readers is not safe at this layer — the
    service catalog's per-log reader-writer lock excludes appends from
    reads (see ``docs/concurrency.md``).
    """

    def __init__(
        self,
        log: ExecutionLog,
        config: PerfXplainConfig | None = None,
        seed: int = 0,
        cache_capacity: int | None = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        super().__init__(log, config=config, seed=seed)
        self._matrix_cache = LRUCache(cache_capacity)
        self._explanation_cache = LRUCache(cache_capacity)
        self._log_snapshot = log.mutation_snapshot()
        self._append_invalidations = 0
        self._full_invalidations = 0
        #: Compute-once-per-key across every session cache: two readers
        #: racing the same cold clause signature produce one encode — the
        #: loser blocks and shares the leader's result.  Keys are
        #: namespaced per cache kind.
        self._flight = SingleFlight()
        #: Serialises cache reconciliation against log mutation state, so
        #: an append is folded into the caches by exactly one reader.
        self._sync_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # batch answering
    # ------------------------------------------------------------------ #

    def explain(
        self,
        query: str | PXQLQuery,
        width: int | None = None,
        technique: str = "perfxplain",
        auto_despite: bool = False,
    ) -> Explanation:
        """Generate (or reuse) an explanation for a PXQL query.

        On top of the facade behaviour, the session memoises whole
        explanations: against one immutable log, an explanation is a pure
        function of the resolved query (clause signature plus pair of
        interest), the width, the technique and the ``auto_despite`` flag,
        so repeated identical questions — the common case for a service
        answering heavy query traffic — cost one dictionary probe.  The
        session therefore answers repeats of the same question
        *idempotently*; a custom registered technique that deliberately
        randomises repeated answers should be called through the plain
        :class:`PerfXplain` facade instead.
        """
        resolved = self.resolve(query)
        key = (
            self._clause_signature(resolved),
            resolved.first_id,
            resolved.second_id,
            width,
            technique.lower(),
            auto_despite,
        )
        explanation = self._explanation_cache.get(key)
        if explanation is None:
            parent = super()

            def build() -> Explanation:
                built = parent.explain(
                    resolved, width=width, technique=technique,
                    auto_despite=auto_despite,
                )
                self._explanation_cache.put(key, built)
                return built

            explanation = self._flight.do(("explanation", key), build)
        return explanation

    def explain_batch(
        self,
        queries: list[str | PXQLQuery] | tuple[str | PXQLQuery, ...],
        width: int | None = None,
        technique: str = "perfxplain",
        auto_despite: bool = False,
        collect_errors: bool = True,
    ) -> Report:
        """Answer many queries and collect the results in a :class:`Report`.

        :param queries: PXQL texts and/or query objects, in answer order.
        :param width: explanation width applied to every query.
        :param technique: registered technique name applied to every query.
        :param auto_despite: forwarded to every :meth:`explain` call.
        :param collect_errors: record failing queries as error entries in
            the report instead of raising on the first failure.
        """
        report = Report()
        for query in queries:
            start = time.perf_counter()
            try:
                resolved = self.resolve(query)
                explanation = self.explain(
                    resolved, width=width, technique=technique,
                    auto_despite=auto_despite,
                )
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                report.add(
                    ReportEntry.for_query(resolved, explanation, elapsed_ms=elapsed_ms)
                )
            except ReproError as error:
                if not collect_errors:
                    raise
                text = query if isinstance(query, str) else str(query)
                report.add(ReportEntry(query=text.strip(), error=str(error)))
        return report

    # ------------------------------------------------------------------ #
    # shared-state caches
    # ------------------------------------------------------------------ #

    def training_matrix(self, query: str | PXQLQuery) -> TrainingMatrix:
        """The (cached) columnar encoding of a query's training examples.

        Built on the columnar pipeline
        (:func:`~repro.core.examples.construct_training_matrix`): the log's
        :class:`~repro.logs.chunkstore.RecordBlock` is encoded once per log and
        shared across every clause signature, the kernels filter the
        candidate pairs, and the matrix derives and encodes each pair
        feature column the first time a technique reads it.  Keyed by the
        clause signature — the (entity, despite, observed, expected)
        quadruple the examples actually depend on — so N queries sharing
        clauses pay for one construction and, per column read, one
        derivation and one global sort.
        An entry is extended when the log grows its kind, and discarded
        when the kind's history changes; see the class docstring.
        """
        return self._matrix_for(self.resolve(query))

    def _matrix_for(self, query: PXQLQuery) -> TrainingMatrix:
        """The cached, single-flighted matrix of a query's clause signature
        (the pair of interest plays no part, so ``?`` queries have one).

        Once records of its kind were appended, the entry is the matrix's
        related-pair stream alone (:meth:`_invalidate_kind`); it is passed
        to :func:`~repro.core.examples.construct_training_matrix`, which
        extends it with the appended rows' candidates instead of filtering
        every candidate again.
        """
        key = self._clause_signature(query)
        matrix = self._matrix_cache.get(key)
        if not isinstance(matrix, TrainingMatrix):
            previous = matrix

            def build() -> TrainingMatrix:
                built = construct_training_matrix(
                    self.log,
                    query,
                    self.schema_for(query),
                    config=self.config.pair_config,
                    sample_size=self.config.sample_size,
                    rng=random.Random(self._seed),
                    feature_level=self.config.feature_level,
                    workers=self.config.pair_workers,
                    previous=previous,
                )
                self._matrix_cache.put(key, built)
                return built

            matrix = self._flight.do(("matrix", key), build)
        return matrix

    def resolve(self, query: str | PXQLQuery) -> BoundQuery:
        """Parse and bind a query, syncing caches with the log first."""
        self._sync_with_log()
        return super().resolve(query)

    def find_pair(self, query: str | PXQLQuery) -> tuple[str, str]:
        """Pick a pair of executions for a query.

        The pick is the one :func:`~repro.core.queries.find_pair_of_interest`
        makes, read off the pass that built the clause signature's cached
        training matrix (:meth:`~repro.core.examples.TrainingMatrix.pair_of_interest`):
        a ``?`` question filters its candidates once, and the pick shares
        the matrix's cache entry and invalidation.
        """
        self._sync_with_log()
        query = query if isinstance(query, PXQLQuery) else self.parse(query)
        return self._matrix_for(query).pair_of_interest(query)

    def cache_stats(self) -> dict[str, CacheStats]:
        """Hit/miss/eviction counters for every session cache, by name.

        ``record_blocks`` reports the log's own bounded per-``(kind,
        schema)`` block cache (:meth:`~repro.logs.store.ExecutionLog.block_cache_stats`),
        surfaced here so catalog introspection sees every cache a query
        touches through one interface.
        """
        return {
            "explanations": self._explanation_cache.stats(),
            "matrices": self._matrix_cache.stats(),
            "record_blocks": CacheStats(**self.log.block_cache_stats()),
        }

    def _examples_for(self, query: BoundQuery) -> TrainingMatrix | None:
        return self.training_matrix(query)

    # ------------------------------------------------------------------ #
    # log-growth tracking
    # ------------------------------------------------------------------ #

    def _sync_with_log(self) -> None:
        """Reconcile the caches with the log's current mutation state.

        Called on every query entry point.  Append-only growth of a kind
        (same epoch, higher version/count) discards only that kind's
        entries; an epoch move means history was rewritten and drops
        everything.  O(1) when nothing changed — the common case; the
        lock-free fast path makes the hot read path pay one dict compare.
        When the snapshot did move, reconciliation runs under the sync
        lock: exactly one reader folds the mutation in, and late racers
        re-check and return.
        """
        snapshot = self.log.mutation_snapshot()
        if snapshot == self._log_snapshot:
            return
        with self._sync_lock:
            snapshot = self.log.mutation_snapshot()
            if snapshot == self._log_snapshot:
                return
            for kind in ("job", "task"):
                new = snapshot[kind]
                old = self._log_snapshot[kind]
                if new == old:
                    continue
                if new[0] != old[0]:
                    self._invalidate_all()
                    self._log_snapshot = snapshot
                    return
                self._invalidate_kind(kind)
            self._log_snapshot = snapshot

    def _invalidate_kind(self, kind: str) -> None:
        """Discard what one record kind's growth made stale.

        The kind's explanations go.  Each of its matrices is swapped for
        its related-pair stream, which the next build over the grown log
        extends (:meth:`_matrix_for`); the sample and its derived columns
        are released.  The kind's schema folds the appended records in on
        its next use (:meth:`schema_for`).
        """
        self._explanation_cache.discard_if(lambda key: key[0][0] == kind)
        self._matrix_cache.replace_if(
            lambda key: key[0] == kind,
            lambda entry: entry.stream if isinstance(entry, TrainingMatrix) else entry,
        )
        self._append_invalidations += 1

    def _invalidate_all(self) -> None:
        """Discard every cached derivation (the log's history changed)."""
        self._schemas.clear()
        self._matrix_cache.clear()
        self._explanation_cache.clear()
        self._full_invalidations += 1

    def invalidation_stats(self) -> dict[str, int]:
        """Running counters for cache-sync events against a mutating log."""
        return {
            "append_invalidations": self._append_invalidations,
            "full_invalidations": self._full_invalidations,
        }

    def concurrency_stats(self) -> dict[str, int]:
        """Single-flight dedup counters for the session's shared caches.

        ``leads`` counts computations actually run, ``waits`` counts
        concurrent callers that piggybacked on a leader's in-flight
        computation instead of redoing it (the session-level analogue of
        the service's request dedup), ``in_flight`` is the current number
        of cold keys being computed.
        """
        return self._flight.stats()

    @staticmethod
    def _clause_signature(query: PXQLQuery) -> tuple:
        """What the training examples depend on: entity + the three clauses.

        The key is structural (feature, operator, value, value type), not
        ``str()``-rendered: rendering would alias predicates that compare
        against ``2`` and ``"2"``, whose evaluation semantics differ.
        """
        def atoms(predicate: Predicate) -> tuple:
            return tuple(
                (atom.feature, atom.operator.value, atom.value,
                 type(atom.value).__name__)
                for atom in predicate.atoms
            )

        return (
            query.entity.value,
            atoms(query.despite),
            atoms(query.observed),
            atoms(query.expected),
        )

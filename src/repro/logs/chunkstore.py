"""Columnar record blocks: one chunked encoding with a spill-to-disk store.

Layer 1 of the columnar pair pipeline.  A :class:`RecordBlock` encodes a
whole record list column by column (per raw feature: float values,
numeric-eligibility and missing masks, and integer value codes for
exact-equality tests) so that the pair kernels in
:mod:`repro.core.pairkernel` can derive Table-1 pair features for millions
of candidate pairs in bulk instead of probing record dicts per pair.  This
module owns the whole encoding:

* :class:`BlockColumn` — one chunk of one raw feature's rows, encoded;
* :class:`ChunkedColumn` — one raw feature as a list of
  :class:`BlockColumn` chunks under one **global** code table (NaN
  collapses into a single canonical slot), so code equality across chunks
  means value equality, and kernels read every chunking through the same
  ``gather``/``code_of``/``all_numeric`` surface;
* :class:`ChunkStore` — the LRU-pinned working set the chunks live in.
  It is unbounded unless ``max_resident`` is set; then evicted chunks are
  pickled once under a private temp directory and reloaded on demand, so
  peak memory is bounded by the working set, not the log;
* :class:`RecordBlock` — the record list, its ids and its lazily built
  columns.  ``chunk_rows=None`` gives each column one chunk that grows
  with appends; a fixed ``chunk_rows`` partitions the rows the way dask
  partitions one logical array into chunks behind one interface
  (PAPERS.md), so a million-task log can spill.

Everything a kernel can observe — gathered arrays, group keys, masks — is
bit-identical for every chunk size; the differential suite
(``tests/core/test_chunked_sharded_equivalence.py``) asserts it.
"""

from __future__ import annotations

import os
import pickle
import shutil
import sys
import tempfile
import threading
import weakref
from collections import OrderedDict
from operator import and_, eq
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.logs.records import ExecutionRecord, FeatureValue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.features import FeatureSchema

#: The performance metric pseudo-feature (mirrors
#: :data:`repro.core.features.PERFORMANCE_METRIC` without importing the
#: core layer from the logs layer).
_PERFORMANCE_METRIC = "duration"

#: Blocking-feature tuples memoised per block.  A realistic query mix uses
#: a handful of despite clauses per log; the cap only bounds adversarial
#: churn (each cached tuple holds O(rows) index lists).
MAX_GROUP_CACHE = 8


class BlockColumn:
    """One chunk of one raw feature's values, encoded for kernels.

    The encoding carries everything the pair kernels need to derive the
    Table-1 pair features of this raw feature for arbitrary ``(i, j)``
    index pairs without touching the record dicts again:

    * ``raw`` — the original values (``None`` = missing), for ``diff``
      strings and shared base values;
    * ``codes`` — integer value codes under dict equality (``-1`` =
      missing), so exact equality of two records is one integer compare;
    * ``selfeq`` — per-record flag ``value == value`` (present and not
      ``NaN``), the guard that keeps code equality faithful to ``==``;
    * ``floats`` / ``num_ok`` — numeric features only: the ``float`` image
      used by the tolerance/similarity rules and the per-record flag that
      the value really is numeric (bools are nominal by fiat).
    """

    __slots__ = (
        "name",
        "numeric",
        "raw",
        "codes",
        "selfeq",
        "floats",
        "num_ok",
        "all_numeric",
        "code_of",
        "nan_code",
        "next_code",
    )

    def __init__(self, name: str, numeric: bool) -> None:
        self.name = name
        self.numeric = numeric
        self.raw: list[FeatureValue] = []
        self.codes: list[int] = []
        self.selfeq: bytearray = bytearray()
        self.floats: list[float] = []
        self.num_ok: bytearray = bytearray()
        #: Every present value is numeric (lets kernels skip the
        #: mixed-type equality fallback).
        self.all_numeric: bool = False
        self.code_of: dict[FeatureValue, int] = {}
        #: The canonical NaN code (``-1`` = no NaN seen yet) and the next
        #: unassigned code — the state incremental appends extend from.
        self.nan_code: int = -1
        self.next_code: int = 0

    @classmethod
    def from_values(
        cls, name: str, values: Sequence[FeatureValue], numeric: bool
    ) -> "BlockColumn":
        """Encode one column of raw values (``None`` = missing).

        Code assignment runs as C pipelines: distinct values are collected
        with one ``set`` pass and codes are assigned by dict lookup mapped
        over the column.  Code *numbering* is therefore arbitrary — kernels
        only ever compare codes for equality, never for order.

        NaN gets one **canonical** code: ``set`` dedups NaN by object
        identity (``hash(nan)`` is id-based), so distinct NaN float objects
        would otherwise get distinct codes and code equality would silently
        depend on object identity.  ``selfeq`` masks NaN out of every
        kernel equality today, but canonical codes are what lets
        chunk-local code tables merge safely (:class:`ChunkedColumn`) and
        survive spilling, which destroys object identity.
        """
        column = cls(name, numeric)
        n = len(values)
        raw = list(values)
        column.raw = raw
        distinct = set(raw)
        distinct.discard(None)
        code_of: dict[FeatureValue, int] = {}
        nan_objects = []
        for value in distinct:
            if value != value:
                nan_objects.append(value)
            else:
                code_of[value] = len(code_of)
        column.next_code = len(code_of)
        if nan_objects:
            # Every NaN object shares the canonical NaN code (the id-based
            # hashes still make each object an O(1) dict hit).
            nan_code = len(code_of)
            for value in nan_objects:
                code_of[value] = nan_code
            column.nan_code = nan_code
            column.next_code = nan_code + 1
        code_of[None] = -1
        codes = list(map(code_of.__getitem__, raw))
        del code_of[None]
        column.code_of = code_of
        column.codes = codes
        present_mask = list(map((-1).__lt__, codes))
        # ``value == value`` is false only for NaN (and None == None is
        # masked out by presence).
        column.selfeq = bytearray(map(and_, present_mask, map(eq, raw, raw)))
        present = sum(present_mask)
        if numeric:
            # Kinds come from the full column, not ``distinct``: the set
            # dedups ``True`` against ``1``, which could hide a bool.
            kinds = set(map(type, raw))
            kinds.discard(type(None))
            if kinds <= {int, float}:
                # Purely numeric column (bool is type-distinct from int):
                # one C conversion pass; NaN stays float-eligible exactly
                # like the isinstance path.
                if present == n:
                    column.floats = list(map(float, raw))
                    column.num_ok = bytearray(b"\x01") * n
                else:
                    column.floats = [
                        0.0 if value is None else float(value) for value in raw
                    ]
                    column.num_ok = bytearray(present_mask)
                column.all_numeric = True
                return column
            floats = [0.0] * n
            ok = bytearray(n)
            numeric_count = 0
            for index, value in enumerate(raw):
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    floats[index] = float(value)
                    ok[index] = 1
                    numeric_count += 1
            column.floats = floats
            column.num_ok = ok
            column.all_numeric = numeric_count == present
        return column

    def __len__(self) -> int:
        return len(self.raw)

    def extend_encoded(
        self, values: Sequence[FeatureValue], codes: Sequence[int]
    ) -> None:
        """Append pre-coded values, maintaining every derived array.

        ``codes`` must have been assigned against the owning code table
        (:func:`_append_codes`); the per-value ``selfeq`` / ``floats`` /
        ``num_ok`` updates follow exactly the rules of :meth:`from_values`,
        so an extended chunk is indistinguishable from a fresh build over
        the concatenated values (the differential suite pins this).
        """
        self.raw.extend(values)
        self.codes.extend(codes)
        selfeq = self.selfeq
        for value, code in zip(values, codes):
            selfeq.append(1 if code >= 0 and value == value else 0)
        if self.numeric:
            floats = self.floats
            num_ok = self.num_ok
            present = 0
            numeric_count = 0
            for value, code in zip(values, codes):
                if code >= 0:
                    present += 1
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    floats.append(float(value))
                    num_ok.append(1)
                    numeric_count += 1
                else:
                    floats.append(0.0)
                    num_ok.append(0)
            self.all_numeric = self.all_numeric and numeric_count == present

    def extend_values(self, values: Sequence[FeatureValue]) -> None:
        """Append raw values, extending this chunk's own code table.

        Only the new values are scanned; codes of already-seen values come
        from the existing ``code_of`` table and unseen values get fresh
        sequential codes (NaN keeps one canonical slot).  Code *numbering*
        may therefore differ from a fresh :meth:`from_values` over the
        concatenation — unobservable, since kernels only ever compare codes
        for equality.
        """
        codes, self.nan_code, self.next_code = _append_codes(
            self.code_of, values, self.nan_code, self.next_code
        )
        self.extend_encoded(values, codes)


def _append_codes(
    code_of: dict[FeatureValue, int],
    values: Sequence[FeatureValue],
    nan_code: int,
    next_code: int,
) -> tuple[list[int], int, int]:
    """Assign codes for appended values against an existing code table.

    Returns ``(codes, nan_code, next_code)``: the per-value codes (``-1``
    for ``None``), the possibly newly-allocated canonical NaN code, and the
    next free code.  ``code_of`` is extended in place, in first-occurrence
    order over the new values.
    """
    codes: list[int] = []
    append = codes.append
    for value in values:
        if value is None:
            append(-1)
            continue
        code = code_of.get(value)
        if code is None:
            if value != value:
                # Every NaN object maps onto the one canonical slot.
                if nan_code < 0:
                    nan_code = next_code
                    next_code += 1
                code = nan_code
            else:
                code = next_code
                next_code += 1
            code_of[value] = code
        append(code)
    return codes, nan_code, next_code


def _remove_tree(path: str, owner_pid: int) -> None:
    """Remove a spill directory — only in the process that created it.

    Forked kernel workers inherit the finalizer; without the pid guard a
    worker exiting would delete the parent's spill files from under it.
    """
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


class ChunkStore:
    """An LRU-pinned working set of encoded column chunks.

    Chunks enter via :meth:`put` and are read back via :meth:`get`; both
    refresh recency.  When more than ``max_resident`` chunks are held, the
    least recently used ones are evicted — pickled to a private temp
    directory on first eviction, and one spill file serves every later
    reload until the chunk is re-:meth:`put` (the append path extends tail
    chunks in place, which invalidates their spilled copy).
    ``max_resident=None`` disables eviction and the store never touches
    disk.

    Spill files are pid-tagged: forked kernel workers inherit the store and
    may spill chunks of columns they build locally, and distinct processes
    must never race on one file name.  A spilling store creates its
    directory up front, in the owning process, so every worker forked
    later spills into that same directory; the owner removes it, worker
    files included, when it drops the store (or exits).  A worker killed
    by ``pool.terminate()`` runs no finalizer, so it must own nothing.

    The store is thread-safe: even a pure read (:meth:`get`) refreshes LRU
    recency and may reload-and-evict, so every entry point runs under one
    internal mutex.  The mutex is pid-checked — a forked worker that
    inherited the store (possibly with the parent's lock held by another
    parent thread at fork time) transparently re-creates it on first use
    in the child instead of deadlocking on a stale hold.
    """

    def __init__(
        self,
        max_resident: int | None = None,
        directory: str | Path | None = None,
    ) -> None:
        self.max_resident = max_resident
        self._directory: Path | None = None
        if max_resident is not None:
            self._directory = Path(
                tempfile.mkdtemp(
                    prefix="repro-chunks-",
                    dir=str(directory) if directory is not None else None,
                )
            )
            weakref.finalize(self, _remove_tree, str(self._directory), os.getpid())
        self._resident: OrderedDict[tuple, BlockColumn] = OrderedDict()
        self._paths: dict[tuple, Path] = {}
        self._spill_sequence = 0
        self._lock = threading.Lock()
        self._lock_pid = os.getpid()
        #: Accounting: disk round-trips and working-set pressure.
        self.spills = 0
        self.loads = 0
        self.evictions = 0
        self.peak_resident = 0

    def _guard(self) -> threading.Lock:
        """The internal mutex, re-created after a fork (see class docs)."""
        if self._lock_pid != os.getpid():
            self._lock = threading.Lock()
            self._lock_pid = os.getpid()
        return self._lock

    def put(self, key: tuple, chunk: BlockColumn) -> None:
        """Insert (or refresh) one chunk, evicting beyond the capacity.

        Re-putting a key invalidates its spill file: the append path
        mutates tail chunks in place, so a stale on-disk copy must never be
        reloaded over the extended one.
        """
        with self._guard():
            stale_path = self._paths.pop(key, None)
            if stale_path is not None:
                try:
                    stale_path.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
            self._resident[key] = chunk
            self._resident.move_to_end(key)
            if len(self._resident) > self.peak_resident:
                self.peak_resident = len(self._resident)
            self._evict()

    def get(self, key: tuple) -> BlockColumn:
        """One chunk, reloaded from its spill file when not resident."""
        with self._guard():
            chunk = self._resident.get(key)
            if chunk is not None:
                self._resident.move_to_end(key)
                return chunk
            path = self._paths.get(key)
            if path is None:
                raise KeyError(f"unknown chunk {key!r}")
            with open(path, "rb") as handle:
                chunk = pickle.load(handle)
            self.loads += 1
            self._resident[key] = chunk
            if len(self._resident) > self.peak_resident:
                self.peak_resident = len(self._resident)
            self._evict()
            return chunk

    def __len__(self) -> int:
        return len(self._resident)

    def stats(self) -> dict[str, int]:
        """Accounting counters (spills/loads/evictions, set sizes)."""
        with self._guard():
            return {
                "resident": len(self._resident),
                "peak_resident": self.peak_resident,
                "spilled": len(self._paths),
                "spills": self.spills,
                "loads": self.loads,
                "evictions": self.evictions,
            }

    def _evict(self) -> None:
        if self.max_resident is None:
            return
        while len(self._resident) > self.max_resident:
            key, chunk = self._resident.popitem(last=False)
            if key not in self._paths:
                self._spill(key, chunk)
            self.evictions += 1

    def _spill(self, key: tuple, chunk: BlockColumn) -> None:
        # pid-tagged names: forked workers spill into the same directory.
        path = self._directory / f"chunk-{os.getpid()}-{self._spill_sequence:06d}.pkl"
        self._spill_sequence += 1
        with open(path, "wb") as handle:
            pickle.dump(chunk, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._paths[key] = path
        self.spills += 1


class ChunkedColumn:
    """One raw feature as a list of :class:`BlockColumn` chunks.

    Chunks cover ``span`` rows each (the last one short) and live in the
    block's :class:`ChunkStore` under ``(name, index)`` keys.  Each is
    encoded through :meth:`BlockColumn.from_values`, so every per-chunk
    mask and float image is byte-identical to the same rows of a one-chunk
    column.  Chunk 0 adopts its own code table as the column's global
    ``code_of``, because its local codes already are the global ones;
    every later chunk's local codes are remapped into that table as it is
    built (all NaN objects share one canonical slot, which the canonical
    NaN code of ``from_values`` makes a well-defined merge).  Code
    *numbering* may therefore differ between chunkings, which is
    unobservable: kernels only ever compare codes for equality.  Chunks
    drop their local tables once merged (the global table subsumes them
    and spill files stay small).
    """

    __slots__ = (
        "name",
        "numeric",
        "all_numeric",
        "code_of",
        "nan_code",
        "next_code",
        "rows",
        "_span",
        "_store",
    )

    def __init__(
        self,
        name: str,
        numeric: bool,
        values: Sequence[FeatureValue],
        store: ChunkStore,
        span: int,
    ) -> None:
        self.name = name
        self.numeric = numeric
        self._store = store
        self._span = span
        self.rows = len(values)
        self.code_of: dict[FeatureValue, int] = {}
        #: Global code-table state appends extend from: the canonical NaN
        #: code (``-1`` = no NaN seen yet) and the next unassigned code.
        self.nan_code = -1
        self.next_code = 0
        #: ``from_values`` semantics on no rows: vacuously true for numeric
        #: columns, never set for nominal ones.
        self.all_numeric = numeric
        for start in range(0, len(values), span):
            chunk = BlockColumn.from_values(name, values[start : start + span], numeric)
            local = chunk.code_of
            if start == 0:
                self.code_of = local
                self.nan_code = chunk.nan_code
                self.next_code = chunk.next_code
            else:
                codes, self.nan_code, self.next_code = _append_codes(
                    self.code_of, list(local), self.nan_code, self.next_code
                )
                translate = dict(zip(local.values(), codes))
                translate[-1] = -1
                chunk.codes = list(map(translate.__getitem__, chunk.codes))
            chunk.code_of = {}
            self.all_numeric = self.all_numeric and chunk.all_numeric
            store.put((name, start // span), chunk)

    @property
    def num_chunks(self) -> int:
        """Number of chunks (``0`` for a column over no rows)."""
        return -(-self.rows // self._span)

    def chunk(self, index: int) -> BlockColumn:
        """The chunk covering rows ``[index * span, ...)``."""
        return self._store.get((self.name, index))

    @property
    def raw(self) -> list[FeatureValue]:
        """Every row's raw value (``None`` = missing), as a new list."""
        return self.gather("raw", range(self.rows))

    def gather(self, source: str, indices: Sequence[int]) -> list:
        """One encoded array (``codes``/``floats``/...) at row ``indices``.

        The kernels' only read path into a column.  A one-chunk column
        gathers with a single C-level ``map``.  Otherwise positions are
        bucketed by chunk first, so each referenced chunk is fetched from
        the store exactly once per call: even randomly ordered index sets
        (balanced-sampled pairs) cost one load per chunk instead of one per
        element, and a tight ``max_resident`` never thrashes within one
        gather.
        """
        if self.num_chunks == 1:
            return list(map(getattr(self.chunk(0), source).__getitem__, indices))
        span = self._span
        indices = list(indices)
        gathered: list = [None] * len(indices)
        by_chunk: dict[int, list[int]] = {}
        for position, index in enumerate(indices):
            by_chunk.setdefault(index // span, []).append(position)
        for chunk_index, positions in by_chunk.items():
            array = getattr(self.chunk(chunk_index), source)
            base = chunk_index * span
            for position in positions:
                gathered[position] = array[indices[position] - base]
        return gathered

    def extend_values(self, values: Sequence[FeatureValue]) -> None:
        """Append raw values in O(delta).

        New codes are assigned against the existing **global** table
        (first-occurrence order, canonical NaN slot); rows land in the tail
        chunk until it fills, then fresh chunks open (a column over no rows
        opens chunk 0).  Each touched chunk is re-:meth:`~ChunkStore.put`,
        which invalidates any stale spill file.
        """
        codes, self.nan_code, self.next_code = _append_codes(
            self.code_of, values, self.nan_code, self.next_code
        )
        span = self._span
        position = 0
        total = len(values)
        while position < total:
            chunk_index, offset = divmod(self.rows, span)
            take = min(span - offset, total - position)
            if offset:
                chunk = self.chunk(chunk_index)
            else:
                chunk = BlockColumn(self.name, self.numeric)
                chunk.all_numeric = self.numeric
            chunk.extend_encoded(
                values[position : position + take],
                codes[position : position + take],
            )
            self._store.put((self.name, chunk_index), chunk)
            self.all_numeric = self.all_numeric and chunk.all_numeric
            self.rows += take
            position += take


class RecordBlock:
    """A record list encoded column by column for the pair kernels.

    Columns are built lazily per raw feature (a query usually touches a
    handful of the schema) and kept for the block's lifetime: blocks are
    only ever built for append-only logs via
    :meth:`~repro.logs.store.ExecutionLog.record_block`, which keys its
    cache by mutation epoch and record count.  ``duration`` reads the
    record's performance metric, mirroring
    :func:`repro.core.pairs.compute_pair_feature`.  Row ids stay fully
    resident (candidate subsampling hashes them constantly); encoded
    columns are :class:`ChunkedColumn` chunk lists held in the block's
    :attr:`store`.

    :param chunk_rows: rows per column chunk; ``None`` = one chunk per
        column that grows with appends.
    :param max_resident_chunks: LRU working set of encoded chunks across
        all columns; beyond it, chunks spill to disk.  ``None`` = never
        spill.
    :param spill_directory: parent directory for the spill files (``None``
        = the system temp directory).
    """

    __slots__ = (
        "records",
        "schema",
        "ids",
        "id_bytes",
        "columns",
        "chunk_rows",
        "store",
        "group_cache",
        "_span",
    )

    def __init__(
        self,
        records: Sequence[ExecutionRecord],
        schema: "FeatureSchema",
        chunk_rows: int | None = None,
        max_resident_chunks: int | None = None,
        spill_directory: str | Path | None = None,
    ) -> None:
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.records: list[ExecutionRecord] = list(records)
        self.schema = schema
        #: Entity id per row, plus its UTF-8 image for hash-based sampling.
        self.ids: list[str] = [record.entity_id for record in self.records]
        self.id_bytes: list[bytes] = [
            entity_id.encode("utf-8") for entity_id in self.ids
        ]
        self.chunk_rows = chunk_rows
        self._span = chunk_rows if chunk_rows is not None else sys.maxsize
        self.store = ChunkStore(
            max_resident=max_resident_chunks, directory=spill_directory
        )
        self.columns: dict[str, ChunkedColumn] = {}
        #: Memoised blocking groups per feature tuple (see
        #: :meth:`blocking_groups`); appends refresh only the groups whose
        #: keys gained members.
        self.group_cache: dict[tuple[str, ...], dict[tuple, list[int]]] = {}

    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_chunks(self) -> int:
        """Number of row partitions (the last one may be short)."""
        return -(-len(self.records) // self._span)

    def column(self, name: str) -> ChunkedColumn:
        """The (lazily built) encoded column of one raw feature.

        Lock-free publish-after-build, like :meth:`blocking_groups`: racing
        readers may encode the same column twice (deterministically
        identical — the loser's publish is a no-op overwrite) but never
        observe a partially built one.
        """
        column = self.columns.get(name)
        if column is None:
            column = ChunkedColumn(
                name,
                self.schema.is_numeric(name),
                _column_values(self.records, name),
                self.store,
                self._span,
            )
            self.columns[name] = column
        return column

    def key_chunks(
        self, features: Sequence[str]
    ) -> Iterable[tuple[int, list[Sequence[int]], list[Sequence[int]]]]:
        """``(start row, code slices, selfeq slices)`` per chunk, in order.

        The read path of blocking-group construction: codes are global, so
        keys assembled from different chunks compare exactly like a
        one-chunk column's, and a spilled column's chunks are each touched
        once, never all resident.
        """
        columns = [self.column(feature) for feature in features]
        for index in range(self.num_chunks):
            chunks = [column.chunk(index) for column in columns]
            yield (
                index * self._span,
                [chunk.codes for chunk in chunks],
                [chunk.selfeq for chunk in chunks],
            )

    def blocking_groups(self, features: Sequence[str]) -> list[list[int]]:
        """Record indices grouped by blocked value codes (memoised).

        Same contract as
        :func:`repro.core.pairkernel.blocking_group_indices`, which
        delegates here: groups in first-occurrence order, rows with a
        missing or NaN blocked value dropped.  The group dict is cached per
        feature tuple (at most :data:`MAX_GROUP_CACHE` of them) and
        maintained in place by :meth:`extend_from`, so a growing log pays
        O(delta) per append instead of a full regroup.  Returns copies so
        kernels that consume the lists destructively cannot corrupt the
        cache.

        Deliberately lock-free so forked kernel workers can call it without
        touching a parent-held lock: a cold key is built into a local dict
        and *published* with one atomic assignment.  Two racing readers may
        both build (identical, deterministic) groups — the loser's write is
        a harmless overwrite — and eviction tolerates a concurrent evictor
        having emptied the cache first.
        """
        key = tuple(features)
        cache = self.group_cache
        groups = cache.get(key)
        if groups is None:
            if len(cache) >= MAX_GROUP_CACHE:
                try:
                    cache.pop(next(iter(cache)))
                except (StopIteration, KeyError, RuntimeError):
                    pass
            groups = {}
            for start, code_slices, selfeq_slices in self.key_chunks(features):
                _group_rows(groups, start, zip(*code_slices), zip(*selfeq_slices))
            cache[key] = groups
        return [list(group) for group in groups.values()]

    def extend_from(self, records: Sequence[ExecutionRecord]) -> None:
        """Append records in O(delta), maintaining every built structure.

        New rows extend ``records``/``ids``/``id_bytes``, every
        already-encoded column grows through
        :meth:`ChunkedColumn.extend_values` (global code tables extended,
        never rebuilt), and cached blocking groups gain only the new rows'
        memberships — new keys land at the end of a group dict, exactly
        where a fresh regroup would place them.
        """
        records = list(records)
        if not records:
            return
        start = len(self.records)
        self.records.extend(records)
        new_ids = [record.entity_id for record in records]
        self.ids.extend(new_ids)
        self.id_bytes.extend(entity_id.encode("utf-8") for entity_id in new_ids)
        for name, column in self.columns.items():
            column.extend_values(_column_values(records, name))
        rows = range(start, len(self.records))
        for features, groups in self.group_cache.items():
            columns = [self.column(feature) for feature in features]
            _group_rows(
                groups,
                start,
                zip(*(column.gather("codes", rows) for column in columns)),
                zip(*(column.gather("selfeq", rows) for column in columns)),
            )


def _column_values(records: Sequence[ExecutionRecord], name: str) -> list[FeatureValue]:
    """One raw column of a record list (the block encoding input)."""
    if name == _PERFORMANCE_METRIC:
        return [record.duration for record in records]
    return [record.features.get(name) for record in records]


def _group_rows(
    groups: dict[tuple, list[int]],
    start: int,
    code_rows: Iterator[tuple[int, ...]],
    selfeq_rows: Iterator[tuple[int, ...]],
) -> None:
    """Add rows ``start, start + 1, ...`` to their blocking groups.

    Each row contributes its blocked codes and self-equality flags; a row
    with a missing (``-1``) or NaN blocked value joins no group.
    """
    for row, (codes, selfeq) in enumerate(zip(code_rows, selfeq_rows), start):
        if -1 in codes or not all(selfeq):
            continue
        groups.setdefault(codes, []).append(row)

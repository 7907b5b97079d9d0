"""Chunked columnar record blocks with a spill-to-disk working set.

A monolithic :class:`~repro.logs.store.RecordBlock` encodes every column of
a log in one resident array per feature — fine at thousands of records,
prohibitive at the million-task scale real MapReduce clusters emit
(PAPERS.md; the layout mirrors how dask partitions one logical array into
fixed-size chunks behind one interface).  This module partitions the block:

* :class:`ChunkedColumn` — one raw feature encoded as fixed-size
  :class:`~repro.logs.store.BlockColumn` chunks.  Per-chunk value codes are
  remapped into one **global** code table as chunks are built (NaN collapses
  into a single canonical slot), so code equality across chunks means value
  equality exactly like a monolithic column, and kernels read it through
  the same ``gather``/``code_of``/``all_numeric`` surface;
* :class:`ChunkStore` — the LRU-pinned working set.  At most
  ``max_resident`` encoded chunks stay in memory; evicted chunks are
  pickled once under a private temp directory and reloaded on demand, so
  peak memory is bounded by the working set, not the log;
* :class:`ChunkedRecordBlock` — the drop-in block: same ``records`` /
  ``ids`` / ``id_bytes`` / ``column()`` / ``key_chunks()`` surface as
  :class:`~repro.logs.store.RecordBlock`, built transparently by
  :meth:`~repro.logs.store.ExecutionLog.record_block` for large or
  explicitly configured logs.

Everything a kernel can observe — gathered arrays, group keys, masks — is
bit-identical between the chunked and monolithic layouts; the differential
suite (``tests/core/test_chunked_sharded_equivalence.py``) asserts it.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.logs.records import ExecutionRecord, FeatureValue
from repro.logs.store import (
    BlockColumn,
    _append_codes,
    _blocking_groups_of,
    _column_values,
    _extend_group_cache,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.features import FeatureSchema


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
    """One raw feature encoded as fixed-size chunks with global codes.

    Chunks are encoded one at a time through
    :meth:`~repro.logs.store.BlockColumn.from_values` — so every per-chunk
    mask and float image is byte-identical to the corresponding slice of a
    monolithic column — and their local value codes are remapped into this
    column's global ``code_of`` table as they are built (all NaN objects
    share one canonical slot, which the canonical NaN code of
    ``from_values`` makes a well-defined merge).  Code *numbering* differs
    from a monolithic column's, which is unobservable: kernels only ever
    compare codes for equality.

    Chunks live in the block's :class:`ChunkStore`; per-chunk ``code_of``
    tables are dropped after merging (the global table subsumes them and
    spill files stay small).
    """

    __slots__ = (
        "name",
        "numeric",
        "all_numeric",
        "code_of",
        "nan_code",
        "next_code",
        "_store",
        "_chunk_rows",
    )

    def __init__(
        self,
        name: str,
        numeric: bool,
        values: Sequence[FeatureValue],
        store: ChunkStore,
        chunk_rows: int,
    ) -> None:
        self.name = name
        self.numeric = numeric
        self._store = store
        self._chunk_rows = chunk_rows
        self.code_of: dict[FeatureValue, int] = {}
        all_numeric = numeric
        code_of = self.code_of
        nan_code = -1
        next_code = 0
        for chunk_index in range(0, len(values), chunk_rows):
            chunk = BlockColumn.from_values(
                name, values[chunk_index : chunk_index + chunk_rows], numeric
            )
            translate = {-1: -1}
            for value, local_code in chunk.code_of.items():
                if value != value:
                    # Every NaN object (id-keyed in the dict) shares the
                    # canonical slot, across chunks.
                    if nan_code < 0:
                        nan_code = next_code
                        next_code += 1
                    code_of[value] = nan_code
                    translate[local_code] = nan_code
                    continue
                global_code = code_of.get(value)
                if global_code is None:
                    global_code = next_code
                    next_code += 1
                    code_of[value] = global_code
                translate[local_code] = global_code
            chunk.codes = list(map(translate.__getitem__, chunk.codes))
            chunk.code_of = {}
            all_numeric = all_numeric and chunk.all_numeric
            store.put((name, chunk_index // chunk_rows), chunk)
        self.all_numeric = all_numeric
        #: Global code-table state, carried so appended values extend the
        #: table instead of re-encoding (:meth:`extend_values`).
        self.nan_code = nan_code
        self.next_code = next_code

    def chunk(self, index: int) -> BlockColumn:
        """The chunk covering rows ``[index * chunk_rows, ...)``."""
        return self._store.get((self.name, index))

    def extend_values(self, values: Sequence[FeatureValue], start: int) -> None:
        """Append raw values at global row ``start``, O(delta).

        New codes are assigned against the existing **global** table
        (first-occurrence order, canonical NaN slot); rows land in the tail
        chunk until it fills, then fresh chunks open.  Each touched chunk
        is re-:meth:`~ChunkStore.put`, which invalidates any stale spill
        file.
        """
        chunk_rows = self._chunk_rows
        codes, self.nan_code, self.next_code = _append_codes(
            self.code_of, values, self.nan_code, self.next_code
        )
        position = 0
        total = len(values)
        while position < total:
            chunk_index, offset = divmod(start + position, chunk_rows)
            take = min(chunk_rows - offset, total - position)
            if offset:
                chunk = self._store.get((self.name, chunk_index))
            else:
                chunk = BlockColumn(self.name, self.numeric)
                # from_values semantics on an empty column: vacuously true
                # for numeric columns, never set for nominal ones.
                chunk.all_numeric = self.numeric
            chunk.extend_encoded(
                values[position : position + take],
                codes[position : position + take],
            )
            self._store.put((self.name, chunk_index), chunk)
            self.all_numeric = self.all_numeric and chunk.all_numeric
            position += take

    def gather(self, source: str, indices: Sequence[int]) -> list:
        """One encoded array (``codes``/``floats``/...) at global indices.

        Same contract as :meth:`~repro.logs.store.BlockColumn.gather`.  Each
        referenced chunk is fetched from the store exactly once per call —
        positions are bucketed by chunk first — so even randomly-ordered
        index sets (balanced-sampled pairs) cost one load per chunk instead
        of one per element, and a tight ``max_resident`` never thrashes
        within one gather.
        """
        chunk_rows = self._chunk_rows
        indices = list(indices)
        gathered: list = [None] * len(indices)
        by_chunk: dict[int, list[int]] = {}
        for position, index in enumerate(indices):
            by_chunk.setdefault(index // chunk_rows, []).append(position)
        for chunk_index, positions in by_chunk.items():
            array = getattr(self.chunk(chunk_index), source)
            base = chunk_index * chunk_rows
            for position in positions:
                gathered[position] = array[indices[position] - base]
        return gathered


class ChunkedRecordBlock:
    """A record list encoded as fixed-size column chunks, spillable to disk.

    Drop-in for :class:`~repro.logs.store.RecordBlock`: the pair kernels
    read blocks only through ``records`` / ``ids`` / ``id_bytes`` /
    ``column()`` / ``key_chunks()`` / ``len()``, and every one of those is
    provided here with identical semantics.  Row ids stay fully resident
    (candidate subsampling hashes them constantly); encoded columns are
    chunked and at most ``max_resident_chunks`` of them stay in memory.
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
    )

    def __init__(
        self,
        records: Sequence[ExecutionRecord],
        schema: "FeatureSchema",
        chunk_rows: int,
        max_resident_chunks: int | None = None,
        spill_directory: str | Path | None = None,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.records: list[ExecutionRecord] = list(records)
        self.schema = schema
        self.ids: list[str] = [record.entity_id for record in self.records]
        self.id_bytes: list[bytes] = [
            entity_id.encode("utf-8") for entity_id in self.ids
        ]
        self.chunk_rows = chunk_rows
        self.store = ChunkStore(
            max_resident=max_resident_chunks, directory=spill_directory
        )
        self.columns: dict[str, ChunkedColumn] = {}
        #: Memoised blocking groups (same contract as
        #: :attr:`~repro.logs.store.RecordBlock.group_cache`).
        self.group_cache: dict[tuple[str, ...], dict[tuple, list[int]]] = {}

    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_chunks(self) -> int:
        """Number of row partitions (the last one may be short)."""
        return -(-len(self.records) // self.chunk_rows)

    def column(self, name: str) -> ChunkedColumn:
        """The (lazily built) chunked encoded column of one raw feature.

        Lock-free publish-after-build, like
        :func:`~repro.logs.store._blocking_groups_of`: racing readers may
        encode the same column twice (deterministically identical — the
        loser's publish is a no-op overwrite) but never observe a
        partially-built one.
        """
        column = self.columns.get(name)
        if column is None:
            values = _column_values(self.records, name)
            column = ChunkedColumn(
                name,
                self.schema.is_numeric(name),
                values,
                self.store,
                self.chunk_rows,
            )
            self.columns[name] = column
        return column

    def key_chunks(
        self, features: Sequence[str]
    ) -> Iterable[tuple[int, list[Sequence[int]], list[Sequence[int]]]]:
        """``(start row, code slices, selfeq slices)`` per chunk.

        Same contract as :meth:`~repro.logs.store.RecordBlock.key_chunks`;
        codes are global, so keys assembled from different chunks compare
        exactly like a monolithic column's.
        """
        columns = [self.column(feature) for feature in features]
        for index in range(self.num_chunks):
            chunks = [column.chunk(index) for column in columns]
            yield (
                index * self.chunk_rows,
                [chunk.codes for chunk in chunks],
                [chunk.selfeq for chunk in chunks],
            )

    def blocking_groups(self, features: Sequence[str]) -> list[list[int]]:
        """Memoised blocking groups (same contract as
        :meth:`~repro.logs.store.RecordBlock.blocking_groups`)."""
        return _blocking_groups_of(self, features)

    def extend_from(self, records: Sequence[ExecutionRecord]) -> None:
        """Append records in O(delta): rows land in the tail chunk (or open
        a new one), global code tables extend in place, and cached blocking
        groups gain only the new rows' memberships (same contract as
        :meth:`~repro.logs.store.RecordBlock.extend_from`)."""
        records = list(records)
        if not records:
            return
        start = len(self.records)
        self.records.extend(records)
        new_ids = [record.entity_id for record in records]
        self.ids.extend(new_ids)
        self.id_bytes.extend(entity_id.encode("utf-8") for entity_id in new_ids)
        for name, column in self.columns.items():
            column.extend_values(_column_values(records, name), start)
        _extend_group_cache(self, start)

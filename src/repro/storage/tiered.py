"""Tiered storage: a disk-resident corpus served through mmap artifacts.

This module scales the corpus axis past RAM.  A *store directory* holds
every search artifact as a flat, memory-mappable columnar file plus a
versioned JSON manifest (the on-disk sibling of
:class:`repro.core.shm.SharedArrayBlock`'s picklable manifest):

``points.bin`` / ``offsets.bin`` / ``lengths.bin``
    Packed float64 trajectory points with per-trajectory row offsets.
``pages.bin`` (+ ``pages.bin.meta.json``)
    The refine-phase :class:`~repro.storage.trajectorystore.TrajectoryStore`
    page file — candidates that survive filtering page in through the
    LRU :class:`~repro.storage.bufferpool.BufferPool`, so physical reads
    track pruning power exactly.
``qg2_values`` / ``qg2_offsets`` / ``qg2_pool_values`` / ``qg2_pool_owners``
    Per-trajectory sorted mean-value Q-grams and the globally pooled,
    stably sorted Q-gram array the bulk merge-join kernel scans.
``h{i}_*``
    Per histogram variant: per-trajectory sorted ``(key, count)`` runs
    (the exact-bound representation), row totals, and the raveled
    column of every key: with the counts as ``data`` and the key
    offsets as ``indptr`` they are the CSR count matrix of
    :class:`~repro.core.histogram.HistogramArrayStore`.
``nti_matrix`` / ``nti_refs``
    Stacked near-triangle reference columns.

:func:`build_store` writes all of this **out of core**: one streaming
pass over the source trajectories (points, page file, lengths, global
minima, per-chunk sorted Q-gram runs), a k-way stable merge of the runs
into the global pool, a histogram pass over the store's own mmap'd
points, and an optional chunked reference-column pass through
:func:`~repro.core.edr.edr_matrix`.  Peak memory is bounded by the
chunk size, not the corpus size, and every artifact is byte-identical
to what the in-memory :class:`~repro.core.database.TrajectoryDatabase`
would build (property-tested in ``tests/test_tiered.py``).

:class:`TieredDatabase` attaches the artifacts read-only via
``np.memmap`` and wraps them in a database shell that the *unmodified*
serial engines run against — answers and pruner counters are
byte-for-byte equal to the in-memory engine, while
:class:`~repro.core.search.SearchStats` additionally reports
``bytes_touched`` / ``pages_read`` / buffer-pool counters.
:meth:`TieredDatabase.sharded` serves the same files through
:class:`~repro.core.sharding.ShardedDatabase` in mmap-attach mode:
shards map row slices of the same files instead of copying into shared
memory.
"""

from __future__ import annotations

import heapq
import json
import mmap as _mmap
import os
import time
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from scipy import sparse

from ..core.database import TrajectoryDatabase
from ..core.histogram import HistogramArrayStore, HistogramSpace
from ..core.qgram import mean_value_qgrams
from ..core.rangequery import range_search as _range_search
from ..core.search import (
    CEILING_WINDOW,
    HistogramPruner,
    NearTrianglePruning,
    Pruner,
    QgramMergeJoinPruner,
    SearchResult,
    SearchStats,
    _knn,
    _RadiusList,
    _ResultList,
    knn_scan as _knn_scan,
    knn_search as _knn_search,
)
from ..core.subtrajectory import (
    subknn_search as _subknn_search,
    WindowSearchResult,
)
from ..core.trajectory import Trajectory
from ..index.mergejoin import _windows, sort_means_2d
from .pagefile import DEFAULT_PAGE_SIZE
from .trajectorystore import (
    _atomic_write_json,
    StoreMetaError,
    TrajectoryStore,
    TrajectoryStoreWriter,
)

__all__ = [
    "StoreError",
    "FileArrayBlock",
    "TieredDatabase",
    "build_store",
    "STORE_FORMAT",
    "STORE_VERSION",
]

STORE_FORMAT = "repro-tiered-store"
# Version 2: q=1 Q-gram means are the points verbatim (version 1 stored
# cumsum-differenced means that can miss exact ε-boundary matches).
# Version 3: every histogram count matrix is CSR (no dense
# ``h{i}_counts.bin``, no ``sparse`` manifest key).
STORE_VERSION = 3

_QGRAM_Q = 1
_STORE_PARTS = ("histogram", "histogram-1d", "qgram", "nti")
# Rows per buffered block when streaming/merging columnar files.
_BLOCK_ROWS = 131072
# Trajectories per block-summary skip block (see `_summary_block_bounds`).
DEFAULT_SUMMARY_BLOCK = 4096
# Skip the summary matrix when it would exceed this many bytes.
_SUMMARY_BYTE_LIMIT = 256 * 1024 * 1024


def _run_dtype(ndim: int) -> np.dtype:
    """Merge-run record: sort key, the Q-gram row itself, global index.

    Carrying the value row inside the record keeps the k-way merge fully
    sequential — the old ``(key, idx)`` records forced a random gather
    over the whole ``qg2_values`` mmap at flush time, which faulted the
    entire file resident and made build peak RSS grow with the corpus.
    """
    return np.dtype([("key", "<f8"), ("value", "<f8", (ndim,)), ("idx", "<i8")])


def _drop_pages(array: np.ndarray) -> None:
    """Best-effort ``MADV_DONTNEED`` on a *read-only* memmap.

    Sequential build passes touch every page of their inputs exactly
    once, but the kernel keeps the clean pages resident until memory
    pressure — which inflates ``ru_maxrss`` linearly with the corpus.
    Dropping consumed pages keeps build peak memory bounded by the
    chunk size; re-faulting the odd prefetched page is harmless.  Never
    call this on a writable map (dirty pages must be flushed first).
    """
    mapped = getattr(array, "_mmap", None)
    if mapped is None or not hasattr(_mmap, "MADV_DONTNEED"):
        return  # pragma: no cover - platform without madvise
    try:
        mapped.madvise(_mmap.MADV_DONTNEED)
    except (ValueError, OSError):  # pragma: no cover - defensive
        pass


class StoreError(ValueError):
    """A tiered store directory is missing, corrupt, or incompatible."""


def _variants_for_parts(
    parts: Sequence[str], ndim: int
) -> List[Tuple[float, Optional[int]]]:
    """Histogram variants in :func:`_pack_shard`'s collection order."""
    from ..core.sharding import _histogram_variants

    variants: List[Tuple[float, Optional[int]]] = []
    for part in parts:
        if part in ("histogram", "histogram-1d"):
            for variant in _histogram_variants(part, ndim):
                if variant not in variants:
                    variants.append(variant)
    return variants


# ----------------------------------------------------------------------
# Mmap array block (the on-disk sibling of shm.SharedArrayBlock)
# ----------------------------------------------------------------------
class FileArrayBlock:
    """Named read-only arrays memory-mapped from files, via a manifest.

    Attach-compatible with :class:`~repro.core.shm.SharedArrayBlock`
    (``attach`` / ``arrays`` / ``close``), so the sharded worker runtime
    consumes either transparently.  Each manifest entry describes one
    array::

        {"file": <path>, "dtype": <numpy dtype str>, "shape": [...],
         "offset": <byte offset>,          # optional, default 0
         "axis1": [start, stop],           # optional column slice
         "bias": <int>}                    # optional, subtracted after load

    ``offset`` expresses contiguous row slices of a larger on-disk
    array; ``axis1`` expresses column slices (strided mmap views, used
    for the stacked NTI matrix); ``bias`` re-bases shard-sliced offset
    arrays (the only entries that materialize — they are O(rows) int64,
    tiny next to the data they index).  File sizes are validated against
    the manifest before mapping, mirroring ``shm.attach()``'s stale
    segment rejection.
    """

    kind = "file"

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        self._arrays = arrays

    @classmethod
    def attach(cls, manifest: Dict[str, object]) -> "FileArrayBlock":
        if manifest.get("kind") != cls.kind:
            raise ValueError(
                f"manifest kind {manifest.get('kind')!r} is not a file-array "
                "manifest"
            )
        version = manifest.get("version", STORE_VERSION)
        if version != STORE_VERSION:
            raise ValueError(
                f"file-array manifest version {version} is not supported by "
                f"this build (expected {STORE_VERSION}) — stale or foreign "
                "manifest"
            )
        arrays: Dict[str, np.ndarray] = {}
        for name, entry in manifest["entries"].items():
            path = Path(entry["file"])
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(int(v) for v in entry["shape"])
            offset = int(entry.get("offset", 0))
            count = int(np.prod(shape)) if shape else 1
            required = offset + count * dtype.itemsize
            if not path.exists():
                raise FileNotFoundError(
                    f"array file {path} for entry {name!r} does not exist"
                )
            size = path.stat().st_size
            if size < required:
                raise ValueError(
                    f"array file {path} is {size} bytes but the manifest "
                    f"describes {required} for entry {name!r} — stale or "
                    "foreign manifest"
                )
            if count == 0:
                array: np.ndarray = np.empty(shape, dtype=dtype)
            else:
                array = np.memmap(
                    path, dtype=dtype, mode="r", offset=offset, shape=shape
                )
            axis1 = entry.get("axis1")
            if axis1 is not None:
                array = array[:, int(axis1[0]) : int(axis1[1])]
            bias = entry.get("bias")
            if bias is not None:
                array = np.asarray(array) - dtype.type(bias)
            arrays[name] = array
        return cls(arrays)

    def arrays(self) -> Dict[str, np.ndarray]:
        return dict(self._arrays)

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def close(self) -> None:
        # Dropping the references lets the GC unmap; explicit munmap
        # while sliced views are alive would crash later accesses.
        self._arrays = {}


# ----------------------------------------------------------------------
# Lazy disk-backed sequences injected into the database shell
# ----------------------------------------------------------------------
class OffsetSlicedRows:
    """Per-index row-slice views over a packed 2-D array: ``rows[o[i]:o[i+1]]``."""

    def __init__(self, values: np.ndarray, offsets: np.ndarray) -> None:
        self._values = values
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        offsets = self._offsets
        return self._values[int(offsets[index]) : int(offsets[index + 1])]

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]


class MmapTrajectoryList(OffsetSlicedRows):
    """Lazy :class:`Trajectory` views over mmap'd packed points.

    Each access wraps one row slice — only the pages a consumer actually
    touches are faulted in, so attaching a million-trajectory shard does
    not read the corpus.
    """

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return Trajectory(super().__getitem__(index))


class LazyHistogramRows:
    """Per-trajectory histogram dicts materialized on access from mmap runs.

    The exact HD bound consults ``histograms[candidate]`` only for
    refine-phase survivors, so building all N dicts eagerly (the
    in-memory representation) would waste both time and resident memory
    on a disk-backed corpus.  Each access rebuilds one dict from the
    sorted ``(key, count)`` run — identical content to the eager build.
    """

    def __init__(
        self, keys: np.ndarray, counts: np.ndarray, offsets: np.ndarray
    ) -> None:
        self._keys = keys
        self._counts = counts
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        lo = int(self._offsets[index])
        hi = int(self._offsets[index + 1])
        return {
            tuple(map(int, key)): int(count)
            for key, count in zip(
                self._keys[lo:hi].tolist(), self._counts[lo:hi].tolist()
            )
        }

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]


class PagedTrajectoryList:
    """Refine-phase trajectory access through the page store.

    Scalar access reads one trajectory through the buffer pool;
    ``fetch_many`` (the batched-readahead hook the refine engines probe
    for) routes through :meth:`TrajectoryStore.read_many`, which sorts
    the physical reads by extent.
    """

    def __init__(self, store: TrajectoryStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._store.get(int(index))

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    def fetch_many(self, indices: Sequence[int]) -> List[Trajectory]:
        return self._store.read_many([int(index) for index in indices])


# ----------------------------------------------------------------------
# Out-of-core store build
# ----------------------------------------------------------------------
def _write_array(path: Path, array: np.ndarray) -> None:
    with open(path, "wb") as handle:
        handle.write(np.ascontiguousarray(array).tobytes())


def _entry(name: str, dtype: np.dtype, shape: Sequence[int]) -> Dict[str, object]:
    return {
        "file": name,
        "dtype": np.dtype(dtype).str,
        "shape": [int(v) for v in shape],
    }


def _merge_qgram_runs(
    runs_path: Path,
    run_lengths: Sequence[int],
    ndim: int,
    qg_offsets: np.ndarray,
    pool_values_path: Path,
    pool_owners_path: Path,
) -> None:
    """Stable k-way merge of per-chunk sorted runs into the global pool.

    Each run is one chunk's Q-gram rows stably sorted by the first
    coordinate; run entries are ``(key, value row, global row index)``.
    Because a stable global sort orders equal keys by original position,
    merging on the ``(key, idx)`` pair *is* the stable order — the
    result is byte-identical to
    :func:`~repro.index.mergejoin.flatten_sorted_means` on the full
    in-memory pool.  Memory stays bounded: the heap holds one buffered
    block per run, value rows travel inside the run records (every read
    is sequential), and consumed run pages are dropped as we go.
    """

    total = int(sum(run_lengths))
    dtype = _run_dtype(ndim)
    runs_mm = (
        np.memmap(runs_path, dtype=dtype, mode="r", shape=(total,))
        if total
        else np.empty(0, dtype=dtype)
    )
    # One buffered block of Python rows lives per run, so the per-run
    # block must shrink as the run count grows — otherwise merge memory
    # is runs x block, i.e. linear in corpus size.
    active_runs = max(1, sum(1 for length in run_lengths if length))
    block_rows = max(2048, _BLOCK_ROWS // active_runs)

    def run_iter(start: int, length: int):
        position = 0
        while position < length:
            stop = min(position + block_rows, length)
            block = runs_mm[start + position : start + stop]
            rows = zip(
                block["key"].tolist(),
                block["idx"].tolist(),
                block["value"].tolist(),
            )
            # The block is now Python objects; its pages can go.  Other
            # runs re-fault at most one buffered block each.
            _drop_pages(runs_mm)
            for row in rows:
                yield row
            position = stop

    iterators = []
    start = 0
    for length in run_lengths:
        if length:
            iterators.append(run_iter(start, length))
        start += length

    with open(pool_values_path, "wb") as values_out, open(
        pool_owners_path, "wb"
    ) as owners_out:
        buffer_idx: List[int] = []
        buffer_val: List[List[float]] = []

        def flush() -> None:
            if not buffer_idx:
                return
            values_out.write(
                np.asarray(buffer_val, dtype=np.float64).tobytes()
            )
            order = np.asarray(buffer_idx, dtype=np.int64)
            owners = np.searchsorted(qg_offsets, order, side="right") - 1
            owners_out.write(owners.astype(np.int64).tobytes())
            buffer_idx.clear()
            buffer_val.clear()

        for _, idx, value in heapq.merge(*iterators):
            buffer_idx.append(idx)
            buffer_val.append(value)
            if len(buffer_idx) >= _BLOCK_ROWS:
                flush()
        flush()


def build_store(
    trajectories: Iterable[Trajectory],
    directory: Union[str, Path],
    epsilon: float,
    *,
    parts: Sequence[str] = ("histogram", "qgram"),
    chunk_size: int = 2048,
    page_size: int = DEFAULT_PAGE_SIZE,
    max_triangle: int = 50,
    matrix_workers: Optional[int] = None,
    summary_block: int = DEFAULT_SUMMARY_BLOCK,
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> Dict[str, object]:
    """Build a tiered store directory out of core.

    ``trajectories`` may be any iterable (including a generator — it is
    consumed exactly once).  ``parts`` selects which filter artifacts to
    materialize, in pruner-family vocabulary: ``histogram``,
    ``histogram-1d``, ``qgram``, ``nti``.  ``summary_block`` sets the
    rows per histogram skip block (the per-block max-count summaries
    that let the sorted engine prune whole blocks without touching
    their rows).  ``progress(stage, done, total)`` is called
    periodically (``total`` is 0 while the corpus size is still
    unknown).  Returns a small stats dict (counts, bytes, per-stage
    seconds).
    """
    if summary_block < 1:
        raise ValueError("summary_block must be at least 1")
    if epsilon < 0.0:
        raise ValueError("matching threshold epsilon must be non-negative")
    parts = tuple(dict.fromkeys(parts))
    unknown = [part for part in parts if part not in _STORE_PARTS]
    if unknown:
        raise StoreError(f"unknown store parts {unknown!r}; choose from {_STORE_PARTS}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    want_qgram = "qgram" in parts
    want_nti = "nti" in parts
    report: Dict[str, float] = {}

    def tick(stage: str, done: int, total: int) -> None:
        if progress is not None:
            progress(stage, done, total)

    # ---- pass 1: one streaming sweep over the source -----------------
    start_time = time.perf_counter()
    writer = TrajectoryStoreWriter(directory / "pages.bin", page_size=page_size)
    points_handle = open(directory / "points.bin", "wb")
    qg_values_handle = open(directory / "qg2_values.bin", "wb") if want_qgram else None
    runs_path = directory / "qg2_runs.tmp"
    runs_handle = open(runs_path, "wb") if want_qgram else None
    run_lengths: List[int] = []
    pending_means: List[np.ndarray] = []
    pending_rows = 0
    qgram_row_base = 0
    lengths: List[int] = []
    qgram_counts: List[int] = []
    minima: Optional[np.ndarray] = None
    ndim: Optional[int] = None
    count = 0

    def flush_run() -> None:
        nonlocal pending_rows, qgram_row_base
        if not pending_means:
            return
        segment = np.concatenate(pending_means)
        order = np.argsort(segment[:, 0], kind="stable")
        run = np.empty(len(segment), dtype=_run_dtype(segment.shape[1]))
        run["key"] = segment[order, 0]
        run["value"] = segment[order]
        run["idx"] = order + qgram_row_base
        runs_handle.write(run.tobytes())
        run_lengths.append(len(segment))
        qgram_row_base += len(segment)
        pending_means.clear()
        pending_rows = 0

    try:
        for trajectory in trajectories:
            if ndim is None:
                ndim = trajectory.ndim
            elif trajectory.ndim != ndim:
                writer.abort()
                raise StoreError(
                    f"mixed trajectory arities in corpus: {ndim} and "
                    f"{trajectory.ndim}"
                )
            writer.append(trajectory)
            points_handle.write(
                np.ascontiguousarray(trajectory.points, dtype=np.float64).tobytes()
            )
            lengths.append(len(trajectory))
            if len(trajectory) > 0:
                lower = trajectory.points.min(axis=0)
                minima = (
                    lower.copy() if minima is None else np.minimum(minima, lower)
                )
            if want_qgram:
                means = sort_means_2d(mean_value_qgrams(trajectory, _QGRAM_Q))
                qg_values_handle.write(np.ascontiguousarray(means).tobytes())
                qgram_counts.append(len(means))
                pending_means.append(means)
                pending_rows += len(means)
                if pending_rows >= chunk_size * 64:
                    flush_run()
            count += 1
            if count % 1024 == 0:
                tick("pass1:scan", count, 0)
        if want_qgram:
            flush_run()
    finally:
        points_handle.close()
        if qg_values_handle is not None:
            qg_values_handle.close()
        if runs_handle is not None:
            runs_handle.close()

    if count == 0:
        writer.abort()
        raise StoreError("a tiered store cannot be built from an empty corpus")
    store = writer.finish()
    store.close()
    tick("pass1:scan", count, count)

    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    _write_array(directory / "offsets.bin", offsets)
    lengths_array = np.asarray(lengths, dtype=np.int64)
    _write_array(directory / "lengths.bin", lengths_array)

    entries: Dict[str, Dict[str, object]] = {
        "points": _entry("points.bin", np.float64, (int(offsets[-1]), ndim)),
        "offsets": _entry("offsets.bin", np.int64, (count + 1,)),
        "lengths": _entry("lengths.bin", np.int64, (count,)),
    }
    manifest: Dict[str, object] = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "count": count,
        "ndim": int(ndim),
        "epsilon": float(epsilon),
        "parts": list(parts),
        "page_size": int(page_size),
        "qgram": None,
        "hist": [],
        "nti": None,
    }
    report["pass1_seconds"] = time.perf_counter() - start_time

    points_mm = (
        np.memmap(
            directory / "points.bin",
            dtype=np.float64,
            mode="r",
            shape=(int(offsets[-1]), ndim),
        )
        if int(offsets[-1])
        else np.empty((0, ndim))
    )

    # ---- Q-gram pool merge -------------------------------------------
    if want_qgram:
        start_time = time.perf_counter()
        qg_offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(qgram_counts, out=qg_offsets[1:])
        _write_array(directory / "qg2_offsets.bin", qg_offsets)
        total_qgrams = int(qg_offsets[-1])
        tick("merge:qgram-pool", 0, total_qgrams)
        _merge_qgram_runs(
            runs_path,
            run_lengths,
            int(ndim),
            qg_offsets,
            directory / "qg2_pool_values.bin",
            directory / "qg2_pool_owners.bin",
        )
        runs_path.unlink(missing_ok=True)
        tick("merge:qgram-pool", total_qgrams, total_qgrams)
        entries["qg2_values"] = _entry(
            "qg2_values.bin", np.float64, (total_qgrams, ndim)
        )
        entries["qg2_offsets"] = _entry("qg2_offsets.bin", np.int64, (count + 1,))
        entries["qg2_pool_values"] = _entry(
            "qg2_pool_values.bin", np.float64, (total_qgrams, ndim)
        )
        entries["qg2_pool_owners"] = _entry(
            "qg2_pool_owners.bin", np.int64, (total_qgrams,)
        )
        manifest["qgram"] = {"q": _QGRAM_Q}
        report["qgram_seconds"] = time.perf_counter() - start_time

    # ---- pass 2: histogram variants over our own mmap'd points -------
    variants = _variants_for_parts(parts, int(ndim))
    if variants and epsilon <= 0.0:
        raise StoreError("histogram artifacts need a positive epsilon")
    if variants and minima is None:
        raise StoreError(
            "histogram artifacts need at least one non-empty trajectory "
            "to anchor the space"
        )
    for tag_index, (delta, axis) in enumerate(variants):
        start_time = time.perf_counter()
        tag = f"h{tag_index}"
        ndim_h = 1 if axis is not None else int(ndim)
        origin = minima if axis is None else minima[axis : axis + 1]
        space = HistogramSpace(origin, delta * epsilon)
        koffsets = np.zeros(count + 1, dtype=np.int64)
        totals = np.empty(count, dtype=np.int64)
        key_lo: Optional[np.ndarray] = None
        key_hi: Optional[np.ndarray] = None
        with open(directory / f"{tag}_keys.bin", "wb") as keys_handle, open(
            directory / f"{tag}_kcounts.bin", "wb"
        ) as counts_handle:
            for index in range(count):
                view = points_mm[offsets[index] : offsets[index + 1]]
                if axis is not None:
                    view = view[:, axis : axis + 1]
                histogram = space.counts(np.asarray(view))
                totals[index] = sum(histogram.values())
                sorted_keys = sorted(histogram)
                koffsets[index + 1] = koffsets[index] + len(sorted_keys)
                if sorted_keys:
                    key_array = np.asarray(sorted_keys, dtype=np.int64).reshape(
                        len(sorted_keys), -1
                    )
                    keys_handle.write(key_array.tobytes())
                    counts_handle.write(
                        np.asarray(
                            [histogram[key] for key in sorted_keys],
                            dtype=np.int64,
                        ).tobytes()
                    )
                    row_lo = key_array.min(axis=0)
                    row_hi = key_array.max(axis=0)
                    key_lo = (
                        row_lo if key_lo is None else np.minimum(key_lo, row_lo)
                    )
                    key_hi = (
                        row_hi if key_hi is None else np.maximum(key_hi, row_hi)
                    )
                if index % 4096 == 0:
                    tick(f"pass2:{tag}", index, count)
                    _drop_pages(points_mm)
        nnz = int(koffsets[-1])
        if key_lo is None:
            lo = np.zeros(ndim_h, dtype=np.int64)
            shape = np.ones(ndim_h, dtype=np.int64)
        else:
            lo = key_lo - 1
            shape = key_hi + 1 - lo + 1
        cells = int(np.prod(shape))
        keys_mm = (
            np.memmap(
                directory / f"{tag}_keys.bin",
                dtype=np.int64,
                mode="r",
                shape=(nnz, ndim_h),
            )
            if nnz
            else np.empty((0, ndim_h), dtype=np.int64)
        )
        # The CSR count matrix shares files with the exact-bound runs:
        # data is the per-row count file, indptr is the key-offset file;
        # only the raveled column indices are new bytes.
        with open(directory / f"{tag}_indices.bin", "wb") as indices_handle:
            for block_start in range(0, nnz, _BLOCK_ROWS):
                block = keys_mm[block_start : block_start + _BLOCK_ROWS]
                columns = np.ravel_multi_index(tuple((block - lo).T), tuple(shape))
                indices_handle.write(columns.astype(np.int64).tobytes())
                _drop_pages(keys_mm)
        del keys_mm
        indices_mm, kcounts_mm = (
            np.memmap(
                directory / f"{tag}_{name}.bin",
                dtype=np.int64,
                mode="r",
                shape=(nnz,),
            )
            if nnz
            else np.empty(0, dtype=np.int64)
            for name in ("indices", "kcounts")
        )
        # Per-block skip summaries: element-wise max counts over each
        # block's rows (transposed to (cells, blocks) so a query's
        # neighborhood columns land on few contiguous pages) plus the
        # block's minimum total.  `_summary_block_bounds` turns these
        # into a lower bound on every member's quick HD bound, so the
        # blocked sorted engine can rule out whole blocks without
        # faulting their count-matrix rows.
        nblocks = (count + summary_block - 1) // summary_block
        summary_info: Optional[Dict[str, int]] = None
        if cells * nblocks * 8 <= _SUMMARY_BYTE_LIMIT:
            smax_mm = np.memmap(
                directory / f"{tag}_smax.bin",
                dtype=np.int64,
                mode="w+",
                shape=(cells, nblocks),
            )
            stmin = np.empty(nblocks, dtype=np.int64)
            scratch = np.zeros(cells, dtype=np.int64)
            for block_id in range(nblocks):
                row_lo = block_id * summary_block
                row_hi = min(row_lo + summary_block, count)
                stmin[block_id] = int(totals[row_lo:row_hi].min())
                klo, khi = int(koffsets[row_lo]), int(koffsets[row_hi])
                columns = indices_mm[klo:khi]
                np.maximum.at(scratch, columns, kcounts_mm[klo:khi])
                used = np.unique(columns)
                smax_mm[used, block_id] = scratch[used]
                scratch[used] = 0
                if block_id % 64 == 0:
                    _drop_pages(indices_mm)
                    _drop_pages(kcounts_mm)
            smax_mm.flush()
            del smax_mm
            _write_array(directory / f"{tag}_stmin.bin", stmin)
            entries[f"{tag}_smax"] = _entry(
                f"{tag}_smax.bin", np.int64, (cells, nblocks)
            )
            entries[f"{tag}_stmin"] = _entry(
                f"{tag}_stmin.bin", np.int64, (nblocks,)
            )
            summary_info = {"block": int(summary_block), "blocks": int(nblocks)}
        del indices_mm, kcounts_mm
        _write_array(directory / f"{tag}_koffsets.bin", koffsets)
        _write_array(directory / f"{tag}_totals.bin", totals)
        entries[f"{tag}_keys"] = _entry(f"{tag}_keys.bin", np.int64, (nnz, ndim_h))
        entries[f"{tag}_kcounts"] = _entry(f"{tag}_kcounts.bin", np.int64, (nnz,))
        entries[f"{tag}_indices"] = _entry(f"{tag}_indices.bin", np.int64, (nnz,))
        entries[f"{tag}_koffsets"] = _entry(
            f"{tag}_koffsets.bin", np.int64, (count + 1,)
        )
        entries[f"{tag}_totals"] = _entry(f"{tag}_totals.bin", np.int64, (count,))
        manifest["hist"].append(
            {
                "tag": tag,
                "delta": float(delta),
                "axis": axis,
                "ndim": ndim_h,
                "origin": [float(v) for v in space.origin],
                "bin_size": float(space.bin_size),
                "lo": [int(v) for v in lo],
                "shape": [int(v) for v in shape],
                "summary": summary_info,
            }
        )
        tick(f"pass2:{tag}", count, count)
        report[f"{tag}_seconds"] = time.perf_counter() - start_time

    # ---- pass 3: chunked near-triangle reference columns -------------
    if want_nti:
        start_time = time.perf_counter()
        from ..core.edr import edr_matrix

        reference_count = min(int(max_triangle), count)
        references = [
            Trajectory(np.array(points_mm[offsets[j] : offsets[j + 1]]))
            for j in range(reference_count)
        ]
        matrix_mm = np.memmap(
            directory / "nti_matrix.bin",
            dtype=np.float64,
            mode="w+",
            shape=(reference_count, count),
        )
        for chunk_start in range(0, count, chunk_size):
            chunk_stop = min(chunk_start + chunk_size, count)
            others = [
                Trajectory(points_mm[offsets[j] : offsets[j + 1]])
                for j in range(chunk_start, chunk_stop)
            ]
            matrix_mm[:, chunk_start:chunk_stop] = edr_matrix(
                references, epsilon, others=others, workers=matrix_workers
            )
            tick("pass3:nti", chunk_stop, count)
            _drop_pages(points_mm)
        matrix_mm.flush()
        del matrix_mm
        _write_array(
            directory / "nti_refs.bin",
            np.arange(reference_count, dtype=np.int64),
        )
        entries["nti_matrix"] = _entry(
            "nti_matrix.bin", np.float64, (reference_count, count)
        )
        entries["nti_refs"] = _entry("nti_refs.bin", np.int64, (reference_count,))
        manifest["nti"] = {"max_triangle": int(max_triangle), "policy": "first"}
        report["nti_seconds"] = time.perf_counter() - start_time

    manifest["arrays"] = entries
    _atomic_write_json(directory / "manifest.json", manifest)
    total_bytes = sum(
        (directory / name).stat().st_size for name in os.listdir(directory)
    )
    return {
        "directory": str(directory),
        "count": count,
        "ndim": int(ndim),
        "epsilon": float(epsilon),
        "parts": list(parts),
        "bytes": int(total_bytes),
        "seconds": report,
    }


# ----------------------------------------------------------------------
# Block-skipping primary bounds
# ----------------------------------------------------------------------
def _summary_block_bounds(
    store: HistogramArrayStore,
    query_histogram: Dict,
    smax: np.ndarray,
    stmin: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """A lower bound on every block member's quick HD bound, per block.

    Substituting the block-wise *max* counts for a member's counts can
    only raise both matchable-mass caps of
    :meth:`HistogramArrayStore.bulk_quick_bounds`, and the block-wise
    *min* total can only lower the ``max(m_query, m_i)`` term, so

        ``max(q_total, min totals) - min(cap_query, cap_candidate)``

    is ``<=`` each member's quick bound — sound for sorted access and
    block skipping.  Returns ``(bounds, bytes touched)``; only the
    query-neighborhood rows of the ``(cells, blocks)`` summary matrix
    are faulted, so the cost is O(blocks), not O(rows).

    With tiny blocks those rows can outweigh the CSR count matrix they
    summarize; then only ``stmin`` is read, and both caps are replaced
    by the query mass they never exceed.
    """
    probe = store.query_probe(query_histogram)
    stmin = np.asarray(stmin)
    counts = store._counts
    matrix_bytes = counts.data.nbytes + counts.indices.nbytes + counts.indptr.nbytes
    if len(probe.columns) * smax.shape[1] * smax.itemsize > matrix_bytes:
        query_total = int(probe.amounts.sum())
        return np.maximum(query_total, stmin) - query_total, stmin.nbytes
    rows = np.asarray(smax[probe.columns])
    near = sparse.csr_matrix(rows.T)
    return probe.quick_bounds(near, stmin), stmin.nbytes + rows.nbytes


def _sliced_quick_bounds(
    store: HistogramArrayStore, query_histogram: Dict, row_lo: int, row_hi: int
) -> Tuple[np.ndarray, int]:
    """Quick bounds for one row slice, byte-identical to the full pass.

    The quick bound is row-wise given the parent grid, so running
    :meth:`~HistogramArrayStore.bulk_quick_bounds` over a row-sliced
    store (the shard-packing trick: same ``lo``/``shape``, sliced
    ``totals``/``counts``) reproduces exactly the values the full-store
    pass would compute for those rows, while faulting only their bytes.
    The blocked visit source uses :func:`_block_quick_bounds`, which
    combines the variants through the query pruner; this slice form
    stays as the per-store reference the tests and the perfbench tracer
    name.
    """
    totals = store.totals[row_lo:row_hi]
    # Views of the rows' CSR runs, not scipy's row-slice copy: the
    # column slice in bulk_quick_bounds reads only what it keeps.
    full = store._counts
    start, stop = int(full.indptr[row_lo]), int(full.indptr[row_hi])
    counts = (
        full.data[start:stop],
        full.indices[start:stop],
        full.indptr[row_lo : row_hi + 1] - start,
    )
    sliced = HistogramArrayStore.from_state(
        store.ndim, store._lo, store._shape, totals, counts
    )
    return sliced.bulk_quick_bounds(query_histogram), _slice_bytes(
        store, row_lo, row_hi
    )


def _slice_bytes(store: HistogramArrayStore, row_lo: int, row_hi: int) -> int:
    """Bytes of one row slice's CSR runs and totals."""
    full = store._counts
    entries = int(full.indptr[row_hi]) - int(full.indptr[row_lo])
    return (
        entries * (full.data.itemsize + full.indices.itemsize)
        + (row_hi - row_lo + 1) * full.indptr.itemsize
        + (row_hi - row_lo) * store.totals.itemsize
    )


def _block_quick_bounds(
    primary: HistogramPruner, primary_query, row_lo: int, row_hi: int
) -> Tuple[np.ndarray, int]:
    """The primary's quick bounds for rows ``[row_lo, row_hi)``, and the
    bytes they touch."""
    quick = primary_query.bulk_quick_lower_bounds(np.arange(row_lo, row_hi))
    touched = sum(_slice_bytes(store, row_lo, row_hi) for store in primary._stores)
    return quick, touched


class _BlockedVisits:
    """The visit source of a store with skip summaries: the search loop
    (:func:`~repro.core.search._knn`) visits candidates block by block,
    opening only the blocks it reaches.

    The primary must be a :class:`HistogramPruner` with a summary per
    variant.  Each block's summary bound lower-bounds every member's
    quick bound; an opened block yields its members with their exact,
    row-sliced quick bounds.

    Without ``radius`` the walk is *ordered*: blocks open in ascending
    summary-bound order and a heap keyed on ``(bound, index)`` merges
    their cursors.  That reproduces the resident engine's stable argsort
    exactly — an unopened block whose summary bound exceeds the heap
    top cannot hide a smaller candidate, and the index breaks bound ties
    as the stable sort does.  With a (fixed) ``radius`` the walk goes in
    index order and skips each block whose summary bound exceeds it:
    the resident scan would prune each member at the primary's quick
    stage, so the block's members are credited to the primary unvisited.

    The source cannot look ahead, so :meth:`pruner_for` asks the later
    stages per visited candidate, through their scalar bounds, which
    equal the bulk arrays bit for bit (property-tested): the decisions
    and counters are the resident engine's.  The primary's exact stage
    runs only where its ceiling exceeds the threshold; the ceilings are
    filled for the next ``CEILING_WINDOW`` rows of the visited
    candidate's block cursor whose quick bound is <= the threshold.
    ``bytes`` tallies the filter bytes the query touches: the
    summaries, the opened blocks, each row a ceiling fill reads and
    each scalar bound evaluated, per the store's byte model.
    """

    def __init__(
        self,
        tiered: "TieredDatabase",
        pruners: Sequence[Pruner],
        query_pruners: Sequence,
        summaries: List[Dict[str, object]],
        radius: Optional[float] = None,
    ) -> None:
        primary, primary_query = pruners[0], query_pruners[0]
        self.ordered = radius is None
        self._radius = radius
        self._primary = primary
        self._primary_query = primary_query
        self._count = len(tiered)
        self._block_rows = int(summaries[0]["block"])
        self._nblocks = -(-self._count // self._block_rows)
        self.bytes = 0
        block_bounds: Optional[np.ndarray] = None
        for store, query_histogram, summary in zip(
            primary._stores, primary_query._query, summaries
        ):
            piece, touched = _summary_block_bounds(
                store, query_histogram, summary["smax"], summary["stmin"]
            )
            self.bytes += touched
            block_bounds = (
                piece if block_bounds is None else np.maximum(block_bounds, piece)
            )
        self._block_bounds = block_bounds.astype(np.float64)
        costs = []
        for pruner in pruners:
            cost, fixed = tiered._per_candidate_bytes(pruner)
            self.bytes += fixed
            costs.append(cost)
        self._primary_cost = costs[0]
        self._later = list(zip(query_pruners[1:], costs[1:]))
        self._ceilings = np.full(self._count, np.nan)  # NaN: not yet filled
        # The visited candidate's block cursor: its rows in visit order,
        # their quick bounds, and the candidate's position in it.
        self._cursor: Optional[Tuple[np.ndarray, np.ndarray, int]] = None

    def walk(self, stats: SearchStats):
        stats.blocks_total = self._nblocks
        return self._merge(stats) if self.ordered else self._index_walk(stats)

    def _open(self, block_id: int, stats: SearchStats) -> Tuple[int, np.ndarray]:
        row_lo = block_id * self._block_rows
        row_hi = min(row_lo + self._block_rows, self._count)
        bounds, touched = _block_quick_bounds(
            self._primary, self._primary_query, row_lo, row_hi
        )
        self.bytes += touched
        stats.blocks_opened += 1
        return row_lo, bounds

    def _merge(self, stats: SearchStats):
        block_bounds = self._block_bounds
        block_order = np.argsort(block_bounds, kind="stable")
        # One heap entry per open block: its smallest unvisited bound.
        heap: List[Tuple[float, int, int, int]] = []
        cursors: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        opened = 0
        while True:
            # An unopened block may hold a candidate as small as its
            # summary bound — open (<=: ties resolve by index, exactly
            # like the stable sort) before trusting the heap top.
            while opened < self._nblocks and (
                not heap or float(block_bounds[block_order[opened]]) <= heap[0][0]
            ):
                block_id = int(block_order[opened])
                opened += 1
                row_lo, bounds = self._open(block_id, stats)
                local_order = np.argsort(bounds, kind="stable")
                rows, bounds = row_lo + local_order, bounds[local_order]
                cursors[block_id] = (rows, bounds)
                heapq.heappush(heap, (float(bounds[0]), int(rows[0]), block_id, 0))
            if not heap:
                return
            bound, candidate_index, block_id, position = heapq.heappop(heap)
            rows, bounds = cursors[block_id]
            if position + 1 < len(rows):
                heapq.heappush(
                    heap,
                    (float(bounds[position + 1]), int(rows[position + 1]),
                     block_id, position + 1),
                )
            self._cursor = (rows, bounds, position)
            yield candidate_index, bound

    def _index_walk(self, stats: SearchStats):
        name = self._primary_query.name
        for block_id in range(self._nblocks):
            if self._block_bounds[block_id] > self._radius:
                row_lo = block_id * self._block_rows
                members = min(self._block_rows, self._count - row_lo)
                stats.pruned_by[name] = stats.pruned_by.get(name, 0) + members
                continue
            row_lo, bounds = self._open(block_id, stats)
            rows = np.arange(row_lo, row_lo + len(bounds))
            for position, (candidate_index, bound) in enumerate(
                zip(rows.tolist(), bounds.tolist())
            ):
                self._cursor = (rows, bounds, position)
                yield candidate_index, bound

    def _ceiling(self, candidate_index: int, threshold: float) -> float:
        ceilings = self._ceilings
        if np.isnan(ceilings[candidate_index]):
            rows, bounds, position = self._cursor
            window = slice(position, position + CEILING_WINDOW)
            rows = rows[window][bounds[window] <= threshold]
            rows = rows[np.isnan(ceilings[rows])]
            ceilings[rows] = self._primary_query.exact_ceilings(rows)
            if self._primary_cost is not None:
                self.bytes += int(self._primary_cost[rows].sum())
        return ceilings[candidate_index]

    def pruner_for(self, candidate_index: int, rank: int, threshold: float):
        # The loop has compared the primary's quick bound; a histogram
        # primary is static and two-stage, and its exact stage runs only
        # where its ceiling says it can prune.
        primary = self._primary_query
        if self._ceiling(candidate_index, threshold) > threshold:
            if self._primary_cost is not None:
                self.bytes += int(self._primary_cost[candidate_index])
            if primary.exact_lower_bound(candidate_index) > threshold:
                return primary
        for query_pruner, cost in self._later:
            if cost is not None:
                self.bytes += int(cost[candidate_index])
            if query_pruner.lower_bound(candidate_index, threshold) > threshold:
                return query_pruner
        return None


# ----------------------------------------------------------------------
# The tiered database
# ----------------------------------------------------------------------
class TieredDatabase:
    """Exact k-NN / range search over a store directory, out of core.

    The filter artifacts attach as read-only ``np.memmap`` arrays and
    are injected into a :class:`TrajectoryDatabase` shell; the
    *unmodified* serial engines run against it, so answers and pruner
    counters are byte-for-byte those of the in-memory engine.  The
    refine phase reads candidate trajectories through the page store's
    LRU buffer pool (with batched extent-ordered readahead), and every
    query's :class:`SearchStats` reports ``bytes_touched`` /
    ``pages_read`` / pool counters.
    """

    def __init__(
        self,
        directory: Path,
        manifest: Dict[str, object],
        block: FileArrayBlock,
        store: TrajectoryStore,
        database: TrajectoryDatabase,
    ) -> None:
        self.directory = directory
        self.manifest = manifest
        self._block = block
        self._store = store
        self.database = database
        self._arrays = block.arrays()
        self.page_size = int(manifest["page_size"])
        # Histogram skip-block summaries, keyed like the variant cache:
        # (delta, axis) -> {smax (cells, blocks), stmin (blocks,), block}.
        self._summaries: Dict[Tuple[float, Optional[int]], Dict[str, object]] = {}
        for variant in manifest["hist"]:
            info = variant.get("summary")
            if not info:
                continue
            tag = variant["tag"]
            self._summaries[(float(variant["delta"]), variant["axis"])] = {
                "smax": self._arrays[f"{tag}_smax"],
                "stmin": self._arrays[f"{tag}_stmin"],
                "block": int(info["block"]),
            }

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, directory: Union[str, Path], *, pool_pages: int = 256
    ) -> "TieredDatabase":
        """Attach a store directory built by :func:`build_store`."""
        directory = Path(directory)
        if not directory.exists():
            raise StoreError(f"store directory {directory} does not exist")
        manifest_path = directory / "manifest.json"
        if not manifest_path.exists():
            raise StoreError(
                f"{directory} is not a tiered store (no manifest.json); "
                "build one with `repro-trajectory build-store`"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise StoreError(
                f"store manifest {manifest_path} is corrupt: {error}"
            ) from None
        if manifest.get("format") != STORE_FORMAT:
            raise StoreError(
                f"store manifest {manifest_path} declares format "
                f"{manifest.get('format')!r}, expected {STORE_FORMAT!r}"
            )
        if manifest.get("version") != STORE_VERSION:
            raise StoreError(
                f"store manifest {manifest_path} is version "
                f"{manifest.get('version')}, this build reads version "
                f"{STORE_VERSION} — rebuild the store"
            )
        entries = {
            name: {**entry, "file": str(directory / entry["file"])}
            for name, entry in manifest["arrays"].items()
        }
        try:
            block = FileArrayBlock.attach(
                {"kind": "file", "version": STORE_VERSION, "entries": entries}
            )
        except (FileNotFoundError, ValueError) as error:
            raise StoreError(f"cannot attach store {directory}: {error}") from None
        try:
            store = TrajectoryStore.open(directory / "pages.bin", pool_pages=pool_pages)
        except (StoreMetaError, ValueError, FileNotFoundError) as error:
            raise StoreError(
                f"cannot open page store in {directory}: {error}"
            ) from None

        arrays = block.arrays()
        count = int(manifest["count"])
        ndim = int(manifest["ndim"])
        epsilon = float(manifest["epsilon"])
        database = TrajectoryDatabase._shell(
            PagedTrajectoryList(store), ndim, epsilon, arrays["lengths"]
        )
        if manifest["qgram"] is not None:
            q = int(manifest["qgram"]["q"])
            database._sorted_means_2d[q] = OffsetSlicedRows(
                arrays["qg2_values"], arrays["qg2_offsets"]
            )
            database._flat_means_2d[q] = (
                arrays["qg2_pool_values"],
                arrays["qg2_pool_owners"],
            )
        for variant in manifest["hist"]:
            tag = variant["tag"]
            axis = variant["axis"]
            key = (float(variant["delta"]), axis)
            space = HistogramSpace(variant["origin"], variant["bin_size"])
            database._histograms[key] = (
                space,
                LazyHistogramRows(
                    arrays[f"{tag}_keys"],
                    arrays[f"{tag}_kcounts"],
                    arrays[f"{tag}_koffsets"],
                ),
            )
            database._histogram_arrays[key] = HistogramArrayStore.from_state(
                variant["ndim"],
                np.asarray(variant["lo"], dtype=np.int64),
                np.asarray(variant["shape"], dtype=np.int64),
                arrays[f"{tag}_totals"],
                (
                    arrays[f"{tag}_kcounts"],
                    arrays[f"{tag}_indices"],
                    arrays[f"{tag}_koffsets"],
                ),
            )
        if manifest["nti"] is not None:
            matrix = arrays["nti_matrix"]
            columns = {
                int(rid): matrix[row]
                for row, rid in enumerate(arrays["nti_refs"].tolist())
            }
            reference_count = min(int(manifest["nti"]["max_triangle"]), count)
            database._reference_columns[(reference_count, "first")] = columns
            database._reference_column_store.update(columns)
        return cls(directory, manifest, block, store, database)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.manifest["count"])

    @property
    def epsilon(self) -> float:
        return self.database.epsilon

    @property
    def ndim(self) -> int:
        return self.database.ndim

    @property
    def trajectories(self):
        return self.database.trajectories

    @property
    def pool(self):
        return self._store.pool

    def storage_stats(self) -> Dict[str, object]:
        """Cumulative buffer-pool and layout counters (for ``/stats``)."""
        pool = self._store.pool
        return {
            "directory": str(self.directory),
            "count": len(self),
            "page_size": self.page_size,
            "pool_pages": pool.capacity,
            "pool_hits": pool.hits,
            "pool_misses": pool.misses,
            "pool_evictions": pool.evictions,
            "pool_hit_rate": pool.hit_rate,
            "parts": list(self.manifest["parts"]),
        }

    # ------------------------------------------------------------------
    # Engine wrappers: unmodified engines + storage accounting
    # ------------------------------------------------------------------
    def _accounted(
        self,
        runner: Callable[[], SearchResult],
        query: Trajectory,
        pruners: Sequence[Pruner],
        source: Optional[_BlockedVisits] = None,
    ) -> SearchResult:
        """Run one engine call and fill its storage counters: the pool's
        deltas, the pages read, and the filter bytes — the blocked visit
        source's own tally, else each pruner's bulk-pass model."""
        pool = self._store.pool
        hits0, misses0, evictions0 = pool.hits, pool.misses, pool.evictions
        neighbors, stats = runner()
        stats.pool_hits = pool.hits - hits0
        stats.pool_misses = pool.misses - misses0
        stats.pool_evictions = pool.evictions - evictions0
        stats.pages_read = stats.pool_misses
        if source is not None:
            filter_bytes = source.bytes
        else:
            filter_bytes = sum(
                self._pruner_bytes(pruner, query) for pruner in pruners
            )
        stats.bytes_touched = filter_bytes + stats.pages_read * self.page_size
        return neighbors, stats

    def _pruner_bytes(self, pruner: Pruner, query: Trajectory) -> int:
        """Columnar bytes one pruner's bulk filter pass touches.

        Histogram stores are scanned in full (totals plus the CSR count
        matrix).  The Q-gram merge join probes the
        sorted pool by binary search, so only the probe path and the
        matched ε-windows count — that component is what makes total
        filter bytes grow sublinearly with the corpus.  NTI counts its
        consulted reference columns.  The model is an upper estimate of
        the mapped bytes actually faulted in; refine-phase page reads
        are measured, not modeled.
        """
        if isinstance(pruner, HistogramPruner):
            total = 0
            for store in pruner._stores:
                counts = store._counts
                total += (
                    store.totals.nbytes
                    + counts.data.nbytes
                    + counts.indices.nbytes
                    + counts.indptr.nbytes
                )
            return total
        if isinstance(pruner, QgramMergeJoinPruner):
            pool_values, _pool_owners = pruner._flat_pool
            if len(pool_values) == 0:
                return 0
            query_sorted = sort_means_2d(mean_value_qgrams(query, pruner._q))
            if len(query_sorted) == 0:
                return 0
            key = pool_values if pool_values.ndim == 1 else pool_values[:, 0]
            starts, ends = _windows(
                np.asarray(query_sorted)[:, 0], key, pruner.match_tolerance(query)
            )
            row_bytes = pool_values.itemsize * (
                1 if pool_values.ndim == 1 else pool_values.shape[1]
            ) + 8  # value row + owner id
            probe_bytes = (
                2 * len(query_sorted) * max(1, int(np.log2(len(key) + 1))) * 8
            )
            # Probe windows overlap heavily (nearby Q-grams share the
            # same ε-neighborhood); physically each pool row faults in
            # once, so count the union of the intervals, not the sum.
            order = np.argsort(starts, kind="stable")
            s, e = starts[order], ends[order]
            reach = np.maximum.accumulate(e)
            floor = np.concatenate((s[:1], reach[:-1]))
            covered = int(np.maximum(0, e - np.maximum(s, floor)).sum())
            return covered * row_bytes + probe_bytes
        if isinstance(pruner, NearTrianglePruning):
            columns = getattr(pruner, "_columns", None)
            if columns is None:
                return 0
            return int(sum(column.nbytes for column in columns.values()))
        return 0

    def knn_search(
        self, query: Trajectory, k: int, pruners: Sequence[Pruner], **kwargs
    ) -> SearchResult:
        return self._accounted(
            lambda: _knn_search(self.database, query, k, pruners, **kwargs),
            query,
            pruners,
        )

    def subknn_search(
        self, query: Trajectory, k: int, pruners: Sequence[Pruner] = (), **kwargs
    ) -> WindowSearchResult:
        """Top-k banded-window search over the paged store.

        The engine is the unmodified serial
        :func:`~repro.core.subtrajectory.subknn_search` — it pulls
        survivor rows through the store's ``fetch_many`` readahead, so
        the storage accounting (pool hits/misses, pages read, bytes
        touched) lands on the same counters as the whole-trajectory
        engines.
        """
        return self._accounted(
            lambda: _subknn_search(self.database, query, k, pruners, **kwargs),
            query,
            pruners,
        )

    def knn_sorted_search(
        self,
        query: Trajectory,
        k: int,
        primary: Pruner,
        secondary: Sequence[Pruner] = (),
        block_skip: bool = True,
        **kwargs,
    ) -> SearchResult:
        pruners = [primary, *secondary]
        summaries = self._block_summaries_for(primary) if block_skip else None
        if summaries is not None:
            return self._blocked(query, _ResultList(k), pruners, summaries, **kwargs)
        return self._accounted(
            lambda: _knn_search(self.database, query, k, pruners, **kwargs),
            query,
            pruners,
        )

    # ------------------------------------------------------------------
    # Block-skipping sorted access
    # ------------------------------------------------------------------
    def _variant_keys(
        self, primary: HistogramPruner
    ) -> List[Tuple[float, Optional[int]]]:
        if primary._per_axis:
            return [(float(primary._delta), axis) for axis in range(self.ndim)]
        return [(float(primary._delta), None)]

    def _block_summaries_for(
        self, primary: Pruner
    ) -> Optional[List[Dict[str, object]]]:
        """This store's skip summaries for the primary's variants, or None."""
        if not isinstance(primary, HistogramPruner):
            return None
        summaries = [
            self._summaries.get(key) for key in self._variant_keys(primary)
        ]
        if any(summary is None for summary in summaries):
            return None
        return summaries

    def _per_candidate_bytes(
        self, pruner: Pruner
    ) -> Tuple[Optional[np.ndarray], int]:
        """Bytes one scalar bound evaluation touches, per candidate.

        Returns ``(per-candidate byte array or None, metadata bytes to
        charge once)`` — the per-visited-candidate cost model of the
        blocked visit source, where later pruners evaluate scalar bounds
        against only the candidates its walk actually reaches.
        """
        if isinstance(pruner, QgramMergeJoinPruner):
            offsets = self._arrays.get("qg2_offsets")
            if offsets is None:
                return None, 0
            rows = np.diff(np.asarray(offsets))
            return rows * (8 * self.ndim) + 8, offsets.nbytes
        if isinstance(pruner, HistogramPruner):
            tags = {
                (float(v["delta"]), v["axis"]): v["tag"]
                for v in self.manifest["hist"]
            }
            cost: Optional[np.ndarray] = None
            fixed = 0
            for delta, axis in self._variant_keys(pruner):
                tag = tags.get((delta, axis))
                if tag is None:
                    return None, 0
                koffsets = self._arrays[f"{tag}_koffsets"]
                rows = np.diff(np.asarray(koffsets))
                ndim_h = 1 if axis is not None else self.ndim
                piece = rows * ((ndim_h + 1) * 8) + 16
                cost = piece if cost is None else cost + piece
                fixed += koffsets.nbytes
            return cost, fixed
        if isinstance(pruner, NearTrianglePruning):
            columns = getattr(pruner, "_columns", None)
            references = len(columns) if columns else 0
            return np.full(len(self), references * 8, dtype=np.int64), 0
        return None, 0

    def knn_scan(self, query: Trajectory, k: int, **kwargs) -> SearchResult:
        return self._accounted(
            lambda: _knn_scan(self.database, query, k, **kwargs), query, ()
        )

    def range_search(
        self,
        query: Trajectory,
        radius: float,
        pruners: Sequence[Pruner],
        block_skip: bool = True,
        **kwargs,
    ) -> SearchResult:
        summaries = (
            self._block_summaries_for(pruners[0]) if block_skip and pruners else None
        )
        if summaries is not None:
            return self._blocked(
                query, _RadiusList(radius), pruners, summaries, radius, **kwargs
            )
        return self._accounted(
            lambda: _range_search(self.database, query, radius, pruners, **kwargs),
            query,
            pruners,
        )

    def _blocked(
        self,
        query: Trajectory,
        result,
        pruners: Sequence[Pruner],
        summaries: List[Dict[str, object]],
        radius: Optional[float] = None,
        **kwargs,
    ) -> SearchResult:
        """The search loop over this store's summary blocks: sorted k-NN
        (no ``radius``) or a range query, ``result`` being its policy.
        ``bytes_touched`` shrinks from Θ(N) to the summaries, the opened
        blocks and the per-visited-candidate scalar bounds."""
        started = time.perf_counter()
        query_pruners = [pruner.for_query(query) for pruner in pruners]
        source = _BlockedVisits(self, pruners, query_pruners, summaries, radius)
        return self._accounted(
            lambda: _knn(
                self.database, query, result, query_pruners, source,
                started=started, **kwargs,
            ),
            query,
            pruners,
            source,
        )

    # ------------------------------------------------------------------
    # Sharded mmap-attach mode
    # ------------------------------------------------------------------
    def sharded(self, shards: int = 2, **kwargs):
        """A :class:`ShardedDatabase` whose shards map this store's files.

        Instead of packing artifact copies into shared-memory segments,
        each shard's manifest describes row slices of the store's own
        files; workers attach via :class:`FileArrayBlock`, so N shards
        add no resident copies of the corpus.  Answers and counters are
        byte-for-byte those of the shm-packed path.
        """
        from ..core.sharding import ShardedDatabase

        if "max_triangle" not in kwargs and self.manifest["nti"] is not None:
            kwargs["max_triangle"] = int(self.manifest["nti"]["max_triangle"])
        return ShardedDatabase(
            self.database, shards, pack_shard=self._shard_payload, **kwargs
        )

    def _shard_payload(
        self, start: int, stop: int, parts: Sequence[str], max_triangle: int
    ) -> Dict[str, object]:
        """File-manifest payload for one shard: row slices, no copies."""
        manifest = self.manifest
        stored = manifest["arrays"]
        count = stop - start

        def sliced(name: str, rows_lo: int, rows_hi: int, bias=None):
            source = stored[name]
            dtype = np.dtype(str(source["dtype"]))
            shape = list(source["shape"])
            row_width = int(np.prod(shape[1:])) if len(shape) > 1 else 1
            entry = {
                "file": str(self.directory / source["file"]),
                "dtype": source["dtype"],
                "shape": [rows_hi - rows_lo] + shape[1:],
                "offset": rows_lo * row_width * dtype.itemsize,
            }
            if bias is not None:
                entry["bias"] = int(bias)
            return entry

        offsets = self._arrays["offsets"]
        entries: Dict[str, Dict[str, object]] = {
            "points": sliced("points", int(offsets[start]), int(offsets[stop])),
            "offsets": sliced(
                "offsets", start, stop + 1, bias=int(offsets[start])
            ),
        }
        meta: Dict[str, object] = {
            "start": int(start),
            "stop": int(stop),
            "epsilon": float(manifest["epsilon"]),
            "ndim": int(manifest["ndim"]),
            "qgram": None,
            "hist": [],
            "nti": None,
        }

        if "qgram" in parts:
            if manifest["qgram"] is None:
                raise StoreError(
                    f"store {self.directory} was built without the 'qgram' "
                    "part; rebuild with --pruners including qgram"
                )
            qg_offsets = self._arrays["qg2_offsets"]
            entries["qg2_values"] = sliced(
                "qg2_values", int(qg_offsets[start]), int(qg_offsets[stop])
            )
            entries["qg2_offsets"] = sliced(
                "qg2_offsets", start, stop + 1, bias=int(qg_offsets[start])
            )
            # The global pool is sorted across owners and cannot be row
            # sliced; the shard runtime re-pools from the per-trajectory
            # means at attach (byte-identical to the shm packing).
            meta["qgram"] = {"q": int(manifest["qgram"]["q"])}

        wanted = _variants_for_parts(parts, int(manifest["ndim"]))
        stored_variants = {
            (float(v["delta"]), v["axis"]): v for v in manifest["hist"]
        }
        for delta, axis in wanted:
            variant = stored_variants.get((delta, axis))
            if variant is None:
                part = "histogram" if axis is None else "histogram-1d"
                raise StoreError(
                    f"store {self.directory} was built without the {part!r} "
                    "part; rebuild with --pruners including it"
                )
            tag = variant["tag"]
            koffsets = self._arrays[f"{tag}_koffsets"]
            klo, khi = int(koffsets[start]), int(koffsets[stop])
            entries[f"{tag}_keys"] = sliced(f"{tag}_keys", klo, khi)
            entries[f"{tag}_kcounts"] = sliced(f"{tag}_kcounts", klo, khi)
            entries[f"{tag}_indices"] = sliced(f"{tag}_indices", klo, khi)
            entries[f"{tag}_koffsets"] = sliced(
                f"{tag}_koffsets", start, stop + 1, bias=klo
            )
            entries[f"{tag}_totals"] = sliced(f"{tag}_totals", start, stop)
            meta["hist"].append(dict(variant))

        if "nti" in parts:
            if manifest["nti"] is None:
                raise StoreError(
                    f"store {self.directory} was built without the 'nti' "
                    "part; rebuild with --pruners including nti"
                )
            stored_triangle = int(manifest["nti"]["max_triangle"])
            if int(max_triangle) != stored_triangle:
                raise StoreError(
                    f"store {self.directory} holds {stored_triangle} "
                    f"reference columns but the engine asked for "
                    f"{max_triangle}; pass max_triangle={stored_triangle} or "
                    "rebuild the store"
                )
            source = stored["nti_matrix"]
            entries["nti_matrix"] = {
                "file": str(self.directory / source["file"]),
                "dtype": source["dtype"],
                "shape": source["shape"],
                "axis1": [int(start), int(stop)],
            }
            refs = stored["nti_refs"]
            entries["nti_refs"] = {
                "file": str(self.directory / refs["file"]),
                "dtype": refs["dtype"],
                "shape": refs["shape"],
            }
            meta["nti"] = {"max_triangle": int(max_triangle), "policy": "first"}

        return {
            "manifest": {
                "kind": "file",
                "version": STORE_VERSION,
                "entries": entries,
            },
            "meta": meta,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._store.close()
        self._block.close()

    def __enter__(self) -> "TieredDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""A disk-resident trajectory store with page-level I/O accounting.

Stores a trajectory set across fixed-size pages (each trajectory's
float64 points serialized contiguously, spanning pages as needed) and
reads trajectories back through a :class:`BufferPool`.  The point is the
paper's I/O claim made measurable: a k-NN engine that prunes a candidate
never touches its pages, so pruning power translates directly into saved
physical reads — :func:`disk_knn_search` reports both.
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from ..core.database import TrajectoryDatabase
from ..core.edr import edr
from ..core.search import Neighbor, Pruner, SearchStats, _Chain, _knn, _ResultList
from ..core.trajectory import Trajectory
from .bufferpool import BufferPool
from .pagefile import DEFAULT_PAGE_SIZE, PageFile

__all__ = [
    "TrajectoryStore",
    "TrajectoryStoreWriter",
    "StoreMetaError",
    "DiskSearchStats",
    "disk_knn_scan",
    "disk_knn_search",
]

_HEADER = struct.Struct("<III")  # length, arity, label byte-length

# Version stamp of the ``.meta.json`` sidecar.  Bumping it invalidates
# stores written by incompatible layouts the way a stale shared-memory
# manifest is rejected by ``shm.attach()``.
_META_FORMAT = "trajectory-store"
_META_VERSION = 1


class StoreMetaError(ValueError):
    """A store's metadata is missing, corrupt, or from a foreign layout."""


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write JSON durably: temp file in the same directory, then rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _meta_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def _load_meta(path: Path) -> dict:
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise StoreMetaError(f"store metadata {meta_path} does not exist")
    try:
        meta = json.loads(meta_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise StoreMetaError(f"store metadata {meta_path} is corrupt: {error}") from None
    if not isinstance(meta, dict):
        raise StoreMetaError(f"store metadata {meta_path} is corrupt: not an object")
    fmt = meta.get("format", _META_FORMAT)
    if fmt != _META_FORMAT:
        raise StoreMetaError(
            f"store metadata {meta_path} declares format {fmt!r}, "
            f"expected {_META_FORMAT!r} — foreign store"
        )
    version = meta.get("version", _META_VERSION)
    if version != _META_VERSION:
        raise StoreMetaError(
            f"store metadata {meta_path} is version {version}, this build "
            f"reads version {_META_VERSION} — stale or future store"
        )
    if "page_size" not in meta or "extents" not in meta:
        raise StoreMetaError(
            f"store metadata {meta_path} is corrupt: missing page_size/extents"
        )
    return meta


class TrajectoryStore:
    """Trajectories serialized over a page file, read via a buffer pool.

    Build with :meth:`create` (writes a data file plus a ``.meta.json``
    directory of per-trajectory page extents), reopen with
    :meth:`open`.
    """

    def __init__(
        self,
        file: PageFile,
        pool: BufferPool,
        extents: List[Tuple[int, int, int]],
    ) -> None:
        self._file = file
        self.pool = pool
        # extents[i] = (first_page, page_count, byte_length)
        self._extents = extents

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        trajectories: Sequence[Trajectory],
        page_size: int = DEFAULT_PAGE_SIZE,
        pool_pages: int = 64,
    ) -> "TrajectoryStore":
        """Serialize ``trajectories`` into a fresh store at ``path``."""
        writer = TrajectoryStoreWriter(path, page_size=page_size)
        for trajectory in trajectories:
            writer.append(trajectory)
        return writer.finish(pool_pages=pool_pages)

    @classmethod
    def open(
        cls, path: Union[str, Path], pool_pages: int = 64
    ) -> "TrajectoryStore":
        """Reopen a store created earlier at ``path``.

        Raises :class:`StoreMetaError` when the ``.meta.json`` sidecar is
        missing, corrupt, from a foreign/stale format version, or when
        the extents it describes do not fit inside the data file.
        """
        path = Path(path)
        if not path.exists():
            raise StoreMetaError(f"store data file {path} does not exist")
        meta = _load_meta(path)
        file = PageFile(path, page_size=int(meta["page_size"]))
        extents = [tuple(extent) for extent in meta["extents"]]
        required = max(
            (first + count for first, count, _ in extents), default=0
        )
        if required > file.page_count:
            file.close()
            raise StoreMetaError(
                f"store {path} holds {file.page_count} pages but the "
                f"metadata describes {required} — truncated data file or "
                "stale metadata"
            )
        pool = BufferPool(file, capacity=pool_pages)
        return cls(file, pool, extents)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._extents)

    def pages_of(self, index: int) -> int:
        """Number of pages trajectory ``index`` occupies."""
        return self._extents[index][1]

    def get(self, index: int) -> Trajectory:
        """Load one trajectory through the buffer pool."""
        first_page, page_count, byte_length = self._extents[index]
        payload = b"".join(
            self.pool.get(first_page + offset) for offset in range(page_count)
        )[:byte_length]
        return self._deserialize(payload)

    def read_many(self, indices: Sequence[int]) -> List[Trajectory]:
        """Batched fetch: page in ``indices`` in extent order, return in
        request order.

        Sorting the physical reads by first page turns a scattered batch
        into one forward sweep over the data file (sequential readahead
        instead of per-trajectory seeks); each distinct trajectory is
        deserialized once even when requested repeatedly.
        """
        order = sorted(set(indices), key=lambda index: self._extents[index][0])
        fetched = {index: self.get(index) for index in order}
        return [fetched[index] for index in indices]

    def close(self) -> None:
        self.pool.flush()
        self._file.close()

    def __enter__(self) -> "TrajectoryStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    @staticmethod
    def _serialize(trajectory: Trajectory) -> bytes:
        label = (trajectory.label or "").encode("utf-8")
        header = _HEADER.pack(len(trajectory), trajectory.ndim, len(label))
        return header + label + trajectory.points.tobytes()

    @staticmethod
    def _deserialize(payload: bytes) -> Trajectory:
        length, arity, label_length = _HEADER.unpack_from(payload)
        offset = _HEADER.size
        label = payload[offset : offset + label_length].decode("utf-8") or None
        offset += label_length
        points = np.frombuffer(
            payload, dtype=np.float64, count=length * arity, offset=offset
        ).reshape(length, arity)
        return Trajectory(points.copy(), label=label)


class TrajectoryStoreWriter:
    """Streaming store builder: append trajectories one at a time.

    Lets :func:`repro.storage.tiered.build_store` serialize a corpus of
    arbitrary size with O(1) resident memory — only the trajectory being
    appended is materialized.  ``finish`` syncs the data file and writes
    the metadata sidecar atomically (temp file + rename), so a crash
    mid-build never leaves a store that opens with half-written extents.
    """

    def __init__(
        self, path: Union[str, Path], page_size: int = DEFAULT_PAGE_SIZE
    ) -> None:
        self.path = Path(path)
        if self.path.exists():
            self.path.unlink()
        self._file = PageFile(self.path, page_size=page_size)
        self._page_size = page_size
        self._extents: List[Tuple[int, int, int]] = []
        self._finished = False

    def append(self, trajectory: Trajectory) -> int:
        """Serialize one trajectory; returns its index in the store."""
        if self._finished:
            raise RuntimeError("writer already finished")
        payload = TrajectoryStore._serialize(trajectory)
        page_size = self._page_size
        page_count = max(1, -(-len(payload) // page_size))
        first_page = self._file.allocate()
        for _ in range(page_count - 1):
            self._file.allocate()
        for offset in range(page_count):
            chunk = payload[offset * page_size : (offset + 1) * page_size]
            self._file.write(first_page + offset, chunk)
        self._extents.append((first_page, page_count, len(payload)))
        return len(self._extents) - 1

    def extend(self, trajectories: Iterable[Trajectory]) -> None:
        for trajectory in trajectories:
            self.append(trajectory)

    def __len__(self) -> int:
        return len(self._extents)

    def finish(self, pool_pages: int = 64) -> TrajectoryStore:
        """Sync, write metadata atomically, and reopen as a store."""
        if self._finished:
            raise RuntimeError("writer already finished")
        self._finished = True
        self._file.sync()
        meta = {
            "format": _META_FORMAT,
            "version": _META_VERSION,
            "page_size": self._page_size,
            "extents": self._extents,
        }
        _atomic_write_json(_meta_path(self.path), meta)
        pool = BufferPool(self._file, capacity=pool_pages)
        return TrajectoryStore(self._file, pool, self._extents)

    def abort(self) -> None:
        """Close the data file without writing metadata."""
        self._finished = True
        self._file.close()


@dataclass
class DiskSearchStats(SearchStats):
    """Search stats extended with physical-I/O accounting."""

    page_reads: int = 0
    pages_avoided: int = 0


class _PagedChain(_Chain):
    """The index-order chain, tallying the pages its prunes leave unread."""

    def __init__(self, query_pruners, store: TrajectoryStore) -> None:
        super().__init__(query_pruners, len(store))
        self._store = store
        self.pages_avoided = 0

    def pruner_for(self, candidate_index, rank, threshold):
        pruner = super().pruner_for(candidate_index, rank, threshold)
        if pruner is not None:
            self.pages_avoided += self._store.pages_of(candidate_index)
        return pruner


def disk_knn_scan(
    store: TrajectoryStore,
    query: Trajectory,
    k: int,
    epsilon: float,
) -> "tuple[List[Neighbor], DiskSearchStats]":
    """Sequential k-NN over the disk store: every page gets read."""
    start = time.perf_counter()
    stats = DiskSearchStats(database_size=len(store))
    result = _ResultList(k)
    reads_before = store.pool.misses
    for index in range(len(store)):
        candidate = store.get(index)
        stats.true_distance_computations += 1
        result.offer(index, edr(query, candidate, epsilon))
    stats.page_reads = store.pool.misses - reads_before
    stats.elapsed_seconds = time.perf_counter() - start
    return result.neighbors(), stats


def disk_knn_search(
    store: TrajectoryStore,
    artifacts: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    pruners: Sequence[Pruner],
) -> "tuple[List[Neighbor], DiskSearchStats]":
    """k-NN over the disk store with in-memory pruning artifacts.

    ``artifacts`` is a :class:`TrajectoryDatabase` built over the same
    trajectory set (its histograms / Q-gram means / reference columns
    fit in memory; the paper's setting).  Lower bounds are evaluated
    from the artifacts alone, so a pruned candidate's pages are never
    read — the stats report the physical reads avoided.  The loop is
    the resident engines' (:func:`repro.core.search._knn`), visiting in
    index order with scalar refinement.
    """
    from .tiered import PagedTrajectoryList  # tiered imports this module

    if len(store) != len(artifacts):
        raise ValueError("store and artifact database must align")
    start = time.perf_counter()
    query_pruners = [pruner.for_query(query) for pruner in pruners]
    source = _PagedChain(query_pruners, store)
    # Scalar refine reads each verified candidate through the store, in
    # visit order, exactly when it is verified.
    database = TrajectoryDatabase._shell(
        PagedTrajectoryList(store), artifacts.ndim, artifacts.epsilon,
        artifacts.lengths,
    )
    reads_before = store.pool.misses
    neighbors, stats = _knn(
        database, query, _ResultList(k), query_pruners, source,
        refine_batch_size=None, started=start,
    )
    return neighbors, DiskSearchStats(
        **{f.name: getattr(stats, f.name) for f in fields(SearchStats)},
        page_reads=store.pool.misses - reads_before,
        pages_avoided=source.pages_avoided,
    )

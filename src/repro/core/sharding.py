"""Sharded intra-query parallelism over shared-memory shards.

A single large query on the classic engines occupies one core end to
end; :class:`ShardedDatabase` splits one query's work across N database
shards instead.  The layout:

* **Shared-memory shards.**  The database is partitioned into N
  contiguous shards whose trajectory points, length offsets, Q-gram
  mean arrays, histogram count matrices (on the *global* grid), and
  near-triangle reference columns are packed into one
  :class:`~repro.core.shm.SharedArrayBlock` per shard.  A persistent
  worker pool maps the blocks once at startup; per-task messages carry
  only scalars and candidate ids — zero database-sized pickling.

* **Coordinator-brain rounds.**  The coordinator computes the global
  visit order from the primary pruner's bulk quick bounds (gathered per
  shard in a parallel filter phase) and walks it in rounds of
  ``refine_batch_size`` candidates.  Within a round the pruning
  threshold ``B`` (the current k-th best distance, or the range radius)
  is *frozen*: the coordinator makes every quick-bound pruning decision
  and the sorted-scan break itself, and ships the surviving candidates
  to their shard workers, which run the staged exact bounds and the
  batched EDR kernel.  Because every decision is a pure function of
  ``(candidate, B)`` and the sequence of ``B`` values is derived from
  the global order alone, both the answers *and* the per-pruner
  counters are independent of the shard count.

* **Cooperative bound tightening.**  Shards additionally share the
  running k-th-best bound through a ``multiprocessing.Value``: the
  coordinator republishes it as each shard's round results merge, and
  workers re-read it at refine-batch boundaries, so a tight bound found
  in one shard shrinks the early-abandon budget in all others
  mid-round.  The shared bound only ever tightens below the frozen
  ``B``, so every abandonment it causes is sound.

**Exactness.**  Results are byte-for-byte identical to the serial
engines: every pruning decision compares a proven lower bound (paper
Theorems 1–6) strictly against a threshold that is never below the
final k-th distance, and the canonical result list makes the answer a
pure function of the surviving candidates' distances — so merge order,
shard count, and execution mode cannot change it.  See
``docs/SHARDING.md`` for the full argument.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import faults as _faults
from .database import TrajectoryDatabase
from .edr_batch import DEFAULT_REFINE_BATCH_SIZE, edr_many, iter_length_buckets
from .faults import (
    ChecksumMismatch,
    Fault,
    FaultPlan,
    ShardAttachError,
    WorkerCrash,
    WorkerTimeout,
)
from .histogram import HistogramArrayStore, HistogramSpace
from .kernels import LEGACY_KERNEL, length_bucket, resolve_kernel_plan, run_kernel
from .mp import process_context, terminate_pool
from .search import (
    HistogramPruner,
    NearTrianglePruning,
    Neighbor,
    Pruner,
    QgramMergeJoinPruner,
    QueryPruner,
    SearchStats,
    _ResultList,
    knn_search,
)
from .shm import SharedArrayBlock
from .subtrajectory import (
    DEFAULT_WINDOW_ALPHA,
    WINDOW_KERNEL,
    WindowMatch,
    _WindowResultList,
    edr_windows_many,
    resolve_window_range,
    window_counts,
)
from .subtrajectory import subknn_search as _serial_subknn_search
from .trajectory import Trajectory

__all__ = [
    "ShardedDatabase",
    "ShardedSearchStats",
    "pruner_spec_of",
    "RECOVERY_FIELDS",
]

#: Recovery counters carried by :class:`ShardedSearchStats` (per query)
#: and by the engine's lifetime :meth:`ShardedDatabase.resilience`
#: snapshot.  ``retries`` counts re-executions, ``respawns`` replaced
#: worker pools; the rest classify the detected failures.
RECOVERY_FIELDS = (
    "retries",
    "respawns",
    "worker_crashes",
    "timeouts",
    "attach_failures",
    "checksum_failures",
    "transport_errors",
)

_QGRAM_Q = 1  # the spec-built merge-join pruner is q=1 (service default)


def canonical_pruner_spec(spec: str) -> str:
    """Deferred import of the shared spec canonicalizer.

    ``service.pruning`` imports ``core.search``; importing it lazily
    here keeps ``core`` importable without touching the service package
    at module-load time (no cycle through ``core.batch``).
    """
    from ..service.pruning import canonical_pruner_spec as _canonical

    return _canonical(spec)


@dataclass
class ShardedSearchStats(SearchStats):
    """Aggregated counters plus the per-shard breakdown.

    ``per_shard[s]`` holds shard ``s``'s own :class:`SearchStats`
    (credits attributed to the shard owning each candidate); the
    inherited fields are their sums.  ``rounds`` counts frozen-bound
    refinement rounds; ``shards`` the shard count.
    """

    per_shard: List[SearchStats] = field(default_factory=list)
    rounds: int = 0
    shards: int = 0
    # Recovery accounting (see RECOVERY_FIELDS).  Answers are exact
    # regardless — these count what it took to stay exact.
    retries: int = 0
    respawns: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    attach_failures: int = 0
    checksum_failures: int = 0
    transport_errors: int = 0
    #: True when this query fell back to the serial engine after a
    #: shard exhausted its retry budget.  The answer is still exact.
    degraded: bool = False


def pruner_spec_of(pruners: Sequence[Pruner]) -> str:
    """The service spec string equivalent to a built pruner chain.

    The sharded engine rebuilds pruner chains *inside* shard workers
    from the spec, so callers holding constructed pruner objects (such
    as ``knn_batch``) must map them back.  Only the spec-buildable
    configurations are accepted; anything else raises ``ValueError``.
    """
    parts: List[str] = []
    for pruner in pruners:
        if isinstance(pruner, HistogramPruner):
            if pruner._delta != 1.0:
                raise ValueError("sharded execution supports histogram delta=1 only")
            parts.append("histogram-1d" if pruner._per_axis else "histogram")
        elif isinstance(pruner, QgramMergeJoinPruner):
            if pruner._q != _QGRAM_Q or not pruner._two_dimensional:
                raise ValueError("sharded execution supports the 2-D q=1 Q-gram pruner only")
            parts.append("qgram")
        elif isinstance(pruner, NearTrianglePruning):
            parts.append("nti")
        else:
            raise ValueError(
                f"pruner {pruner.name!r} has no sharded equivalent; use the spec "
                "families histogram/histogram-1d/qgram/nti"
            )
    return ",".join(parts)


# ----------------------------------------------------------------------
# Shard packing (coordinator side)
# ----------------------------------------------------------------------
def _histogram_variants(part: str, ndim: int) -> List[Tuple[float, Optional[int]]]:
    if part == "histogram":
        return [(1.0, None)]
    return [(1.0, axis) for axis in range(ndim)]


def _pack_shard(
    database: TrajectoryDatabase,
    start: int,
    stop: int,
    parts: Sequence[str],
    max_triangle: int,
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """One shard's artifact arrays (for shm) and its small pickled meta.

    Histogram stores are row-sliced but keep the parent's grid
    (``lo``/``shape``) and the parent's :class:`HistogramSpace` origin:
    re-anchoring at the shard's own minima would shift every bin index
    at shard borders and change the bounds.  Q-gram pools are re-pooled
    from the shard's per-trajectory sorted means (the global pool is
    sorted across owners and cannot be sliced).
    """
    trajectories = database.trajectories[start:stop]
    arrays: Dict[str, np.ndarray] = {}
    meta: Dict[str, object] = {
        "start": int(start),
        "stop": int(stop),
        "epsilon": database.epsilon,
        "ndim": database.ndim,
        "qgram": None,
        "hist": [],
        "nti": None,
    }

    points = [t.points for t in trajectories]
    offsets = np.zeros(len(points) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in points], out=offsets[1:])
    arrays["points"] = (
        np.concatenate(points) if offsets[-1] else np.empty((0, database.ndim))
    )
    arrays["offsets"] = offsets

    if "qgram" in parts:
        from ..index.mergejoin import flatten_sorted_means

        means = database.sorted_qgram_means(_QGRAM_Q)[start:stop]
        qoffsets = np.zeros(len(means) + 1, dtype=np.int64)
        np.cumsum([len(m) for m in means], out=qoffsets[1:])
        arrays["qg2_values"] = (
            np.concatenate(means) if qoffsets[-1] else np.empty((0, database.ndim))
        )
        arrays["qg2_offsets"] = qoffsets
        pool_values, pool_owners = flatten_sorted_means(means)
        arrays["qg2_pool_values"] = pool_values
        arrays["qg2_pool_owners"] = pool_owners
        meta["qgram"] = {"q": _QGRAM_Q}

    variants: List[Tuple[float, Optional[int]]] = []
    for part in parts:
        if part in ("histogram", "histogram-1d"):
            for variant in _histogram_variants(part, database.ndim):
                if variant not in variants:
                    variants.append(variant)
    for tag_index, (delta, axis) in enumerate(variants):
        tag = f"h{tag_index}"
        space, _ = database.histograms(delta=delta, axis=axis)
        store = database.histogram_arrays(delta=delta, axis=axis)
        # A CSR row is its histogram's keys in sorted order, so the row
        # slice gives both the exact-bound runs and the count matrix —
        # the same files a tiered store holds.
        counts = store._counts
        klo, khi = int(counts.indptr[start]), int(counts.indptr[stop])
        indices = counts.indices[klo:khi].astype(np.int64)
        arrays[f"{tag}_keys"] = store._lo + np.stack(
            np.unravel_index(indices, tuple(store._shape)), axis=1
        )
        arrays[f"{tag}_kcounts"] = counts.data[klo:khi]
        arrays[f"{tag}_indices"] = indices
        arrays[f"{tag}_koffsets"] = counts.indptr[start : stop + 1].astype(np.int64) - klo
        arrays[f"{tag}_totals"] = store.totals[start:stop]
        meta["hist"].append(
            {
                "tag": tag,
                "delta": float(delta),
                "axis": axis,
                "ndim": store.ndim,
                "origin": [float(v) for v in space.origin],
                "bin_size": float(space.bin_size),
                "lo": [int(v) for v in store._lo],
                "shape": [int(v) for v in store._shape],
            }
        )

    if "nti" in parts:
        columns = database.reference_columns(max_triangle, policy="first")
        reference_ids = np.asarray(sorted(columns), dtype=np.int64)
        arrays["nti_matrix"] = np.stack(
            [columns[int(rid)][start:stop] for rid in reference_ids]
        ) if len(reference_ids) else np.empty((0, stop - start))
        arrays["nti_refs"] = reference_ids
        meta["nti"] = {"max_triangle": int(max_triangle), "policy": "first"}

    return arrays, meta


# ----------------------------------------------------------------------
# Shard runtime (worker side — also used in-process in inline mode)
# ----------------------------------------------------------------------
_QUERY_CACHE_LIMIT = 8


class _ShardRuntime:
    """One attached shard: database view, injected artifacts, query cache."""

    def __init__(self, manifest: Dict[str, object], meta: Dict[str, object]) -> None:
        file_mode = manifest.get("kind") == "file"
        if file_mode:
            # Mmap-attach mode: the shard maps row slices of a tiered
            # store's own files — no artifact bytes are copied, and the
            # lazy views below keep attach from faulting in the corpus
            # (eager Trajectory construction scans every point for the
            # finiteness check).
            from ..storage.tiered import (
                FileArrayBlock,
                LazyHistogramRows,
                MmapTrajectoryList,
                OffsetSlicedRows,
            )

            self.block = FileArrayBlock.attach(manifest)
        else:
            self.block = SharedArrayBlock.attach(manifest)
        self.meta = meta
        arrays = self.block.arrays()
        offsets = arrays["offsets"]
        points = arrays["points"]
        if file_mode:
            self.database = TrajectoryDatabase._shell(
                MmapTrajectoryList(points, offsets),
                int(meta["ndim"]),
                float(meta["epsilon"]),
                np.diff(np.asarray(offsets)),
            )
        else:
            trajectories = [
                Trajectory(points[offsets[i] : offsets[i + 1]])
                for i in range(len(offsets) - 1)
            ]
            self.database = TrajectoryDatabase(trajectories, float(meta["epsilon"]))

        if meta["qgram"] is not None:
            q = int(meta["qgram"]["q"])
            qoffsets = arrays["qg2_offsets"]
            values = arrays["qg2_values"]
            if file_mode:
                sorted_means = OffsetSlicedRows(values, qoffsets)
            else:
                sorted_means = [
                    values[qoffsets[i] : qoffsets[i + 1]]
                    for i in range(len(qoffsets) - 1)
                ]
            self.database._sorted_means_2d[q] = sorted_means
            if "qg2_pool_values" in arrays:
                self.database._flat_means_2d[q] = (
                    arrays["qg2_pool_values"],
                    arrays["qg2_pool_owners"],
                )
            else:
                # A store's global pool is sorted across all owners and
                # cannot be row-sliced per shard; re-pool the shard's
                # rows, exactly as the shm packing does.
                from ..index.mergejoin import flatten_sorted_means

                self.database._flat_means_2d[q] = flatten_sorted_means(
                    list(sorted_means)
                )

        for variant in meta["hist"]:
            tag = variant["tag"]
            axis = variant["axis"]
            space = HistogramSpace(variant["origin"], variant["bin_size"])
            keys = arrays[f"{tag}_keys"]
            kcounts = arrays[f"{tag}_kcounts"]
            koffsets = arrays[f"{tag}_koffsets"]
            if file_mode:
                histograms = LazyHistogramRows(keys, kcounts, koffsets)
            else:
                histograms = []
                for i in range(len(koffsets) - 1):
                    lo, hi = int(koffsets[i]), int(koffsets[i + 1])
                    histograms.append(
                        {
                            tuple(map(int, key)): int(count)
                            for key, count in zip(
                                keys[lo:hi].tolist(), kcounts[lo:hi].tolist()
                            )
                        }
                    )
            key = (float(variant["delta"]), axis)
            self.database._histograms[key] = (space, histograms)
            self.database._histogram_arrays[key] = HistogramArrayStore.from_state(
                variant["ndim"],
                np.asarray(variant["lo"], dtype=np.int64),
                np.asarray(variant["shape"], dtype=np.int64),
                arrays[f"{tag}_totals"],
                (kcounts, arrays[f"{tag}_indices"], koffsets),
            )

        # Near-triangle reference column slices (global reference ids,
        # shard-local candidate axis).  The cooperative NTI state itself
        # is coordinator-owned — it must see the global record order —
        # but the columns ride in the shard's block so shard-local
        # engines can consult them without touching the parent.
        self.reference_columns: Dict[int, np.ndarray] = {}
        if meta["nti"] is not None:
            matrix = arrays["nti_matrix"]
            for row, reference_id in enumerate(arrays["nti_refs"].tolist()):
                self.reference_columns[int(reference_id)] = matrix[row]

        self._chains: Dict[str, Dict[int, Optional[Pruner]]] = {}
        self._queries: "Dict[Tuple[str, str], Dict[str, object]]" = {}

    def chain(self, spec: str) -> Dict[int, Optional[Pruner]]:
        """Static pruners of ``spec`` rebuilt against the shard view.

        Keyed by chain position; dynamic entries (``nti``) are ``None``
        — the coordinator evaluates those with global state.
        """
        if spec not in self._chains:
            chain: Dict[int, Optional[Pruner]] = {}
            for position, name in enumerate(p for p in spec.split(",") if p):
                if name == "histogram":
                    chain[position] = HistogramPruner(self.database)
                elif name == "histogram-1d":
                    chain[position] = HistogramPruner(self.database, per_axis=True)
                elif name == "qgram":
                    chain[position] = QgramMergeJoinPruner(self.database, q=_QGRAM_Q)
                elif name == "nti":
                    chain[position] = None
                else:  # pragma: no cover - specs are pre-validated
                    raise ValueError(f"unknown pruner {name!r}")
            self._chains[spec] = chain
        return self._chains[spec]

    def query_state(
        self, spec: str, digest: str, query_points: np.ndarray
    ) -> Dict[str, object]:
        """Per-(query, spec) pruner state, LRU-cached per shard.

        Refine tasks can land on any pool worker, so every task carries
        the query points and the state rebuilds on a cache miss; repeat
        rounds of the same query on the same worker hit the cache.
        """
        key = (spec, digest)
        state = self._queries.pop(key, None)
        if state is None:
            query = Trajectory(query_points)
            pruners = {
                position: pruner.for_query(query)
                for position, pruner in self.chain(spec).items()
                if pruner is not None
            }
            quick = {
                position: np.asarray(
                    query_pruner.bulk_quick_lower_bounds(), dtype=np.float64
                )
                for position, query_pruner in pruners.items()
            }
            state = {"query": query, "pruners": pruners, "quick": quick}
        self._queries[key] = state
        while len(self._queries) > _QUERY_CACHE_LIMIT:
            self._queries.pop(next(iter(self._queries)))
        return state

    def filter(
        self, spec: str, digest: str, query_points: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Bulk quick-bound arrays of every static pruner, shard-local."""
        state = self.query_state(spec, digest, query_points)
        return dict(state["quick"])

    def refine(
        self,
        spec: str,
        digest: str,
        query_points: np.ndarray,
        members: List[int],
        threshold: float,
        early_abandon: bool,
        exact_positions: List[int],
        batch_size: int,
        kernel_spec,
        shared_value,
    ) -> List[Tuple[str, float]]:
        """Staged exact bounds + batched EDR for one round's shard group.

        Every member already passed all quick bounds at ``threshold``
        (the coordinator pruned the rest), so the work here is: the
        exact stage of each two-stage pruner in ``exact_positions``
        (chain order), then the batched EDR kernel over the survivors,
        length-bucketed.  Outcomes align with ``members``: ``("p", i)``
        — pruned by the exact stage of chain position ``i`` — or
        ``("d", distance)`` with ``inf`` marking an early abandon.

        With ``early_abandon`` the EDR budget is ``threshold`` tightened
        by the shared cooperative bound, re-read at every bucket
        boundary; both only shrink below the frozen round threshold, so
        abandonments stay sound.

        ``kernel_spec`` is the coordinator-resolved kernel routing:
        ``None`` keeps the legacy batched kernel, otherwise it is a
        serializable ``(default, ((bucket, kernel), ...))`` pair built
        from the parent's :class:`~repro.core.kernels.KernelPlan`.
        Workers never autotune — they apply the table they were handed,
        and because every kernel returns byte-identical distances the
        choice cannot change any outcome.
        """
        state = self.query_state(spec, digest, query_points)
        pruners: Dict[int, QueryPruner] = state["pruners"]
        query: Trajectory = state["query"]
        outcomes: List[Optional[Tuple[str, float]]] = [None] * len(members)
        survivors: List[int] = []
        survivor_slots: List[int] = []
        finite = np.isfinite(threshold)
        for slot, local_index in enumerate(members):
            pruned_at = None
            if finite:
                for position in exact_positions:
                    if pruners[position].exact_lower_bound(local_index) > threshold:
                        pruned_at = position
                        break
            if pruned_at is not None:
                outcomes[slot] = ("p", float(pruned_at))
            else:
                survivors.append(local_index)
                survivor_slots.append(slot)
        if survivors:
            kernel_table = None
            default_kernel = None
            if kernel_spec is not None:
                default_kernel, pairs = kernel_spec
                kernel_table = dict(pairs)
            lengths = self.database.lengths[survivors]
            for bucket in iter_length_buckets(lengths, batch_size):
                bound = None
                if early_abandon:
                    limit = threshold
                    if shared_value is not None:
                        limit = min(limit, float(shared_value.value))
                    bound = limit if np.isfinite(limit) else None
                indices = [survivors[int(position)] for position in bucket]
                candidates = [self.database.trajectories[i] for i in indices]
                if kernel_table is None:
                    distances = edr_many(
                        query, candidates, self.database.epsilon, bounds=bound
                    )
                else:
                    # Length-sorted batches are not aligned to power-of-two
                    # buckets, so pick by the longest member — it sets the
                    # batch's padded width, which the autotuner's bucket
                    # timing models.  Any deterministic pick is sound:
                    # kernels agree byte-for-byte.
                    kernel = kernel_table.get(
                        length_bucket(int(lengths[int(bucket[-1])])),
                        default_kernel,
                    )
                    distances = run_kernel(
                        kernel, query, candidates, self.database.epsilon,
                        bounds=bound,
                    )
                for position, distance in zip(bucket, distances):
                    outcomes[survivor_slots[int(position)]] = ("d", float(distance))
        return outcomes  # type: ignore[return-value]

    def subknn(
        self,
        query_points: np.ndarray,
        members: List[int],
        bound: float,
        lo: int,
        hi: int,
        batch_size: int,
    ) -> List[Tuple[float, int, int, int, int]]:
        """Best banded window of each member, against the shard view.

        No pruner state is involved — the coordinator evaluates the
        (single-stage, static) window bounds itself, so the task needs
        only the corpus rows.  ``bound`` is the frozen round threshold
        folded with the early-abandon flag (non-finite disables row
        abandoning); there is deliberately no cooperative mid-round
        tightening, which is what keeps the window counters byte-equal
        to the serial engine's.  Outcomes align with ``members``:
        ``(distance, start, end, evaluated, abandoned)`` per member,
        with ``inf`` distance when every window was abandoned.
        """
        outcomes: List[Optional[Tuple[float, int, int, int, int]]] = (
            [None] * len(members)
        )
        limit = float(bound) if np.isfinite(bound) else None
        lengths = self.database.lengths[members]
        for bucket in iter_length_buckets(lengths, batch_size):
            indices = [members[int(position)] for position in bucket]
            candidates = [self.database.trajectories[i] for i in indices]
            distances, starts, ends, evaluated, abandoned = edr_windows_many(
                query_points, candidates, self.database.epsilon, lo, hi,
                bounds=limit,
            )
            for slot, position in enumerate(bucket):
                outcomes[int(position)] = (
                    float(distances[slot]),
                    int(starts[slot]),
                    int(ends[slot]),
                    int(evaluated[slot]),
                    int(abandoned[slot]),
                )
        return outcomes  # type: ignore[return-value]

    def close(self) -> None:
        self.block.close()


class _WorkerState:
    """Per-process registry of attached shard runtimes."""

    def __init__(self, payload: Dict[str, object], shared_value) -> None:
        self._payload = payload
        self.shared_value = shared_value
        self._runtimes: Dict[int, _ShardRuntime] = {}

    def runtime(self, shard_id: int) -> _ShardRuntime:
        if shard_id not in self._runtimes:
            shard = self._payload["shards"][shard_id]
            try:
                runtime = _ShardRuntime(shard["manifest"], shard["meta"])
            except (FileNotFoundError, ValueError) as error:
                # The segment vanished or its manifest no longer matches
                # — surface as the attach-failure class so the
                # coordinator's recovery path handles both the injected
                # and the real thing identically.
                raise ShardAttachError(
                    f"cannot attach shard {shard_id}: {error}"
                ) from error
            self._runtimes[shard_id] = runtime
        return self._runtimes[shard_id]

    def drop(self, shard_id: int) -> None:
        """Forget shard ``shard_id``'s runtime (forces a reattach)."""
        runtime = self._runtimes.pop(shard_id, None)
        if runtime is not None:
            runtime.close()

    def close(self) -> None:
        for runtime in self._runtimes.values():
            runtime.close()
        self._runtimes = {}


_POOL_STATE: Optional[_WorkerState] = None


def _pool_initializer(payload: Dict[str, object], shared_value) -> None:
    global _POOL_STATE
    _POOL_STATE = _WorkerState(payload, shared_value)


def _pool_filter(shard_id, spec, digest, query_points, directives=()):
    _faults.apply(
        directives, inline=False, drop=lambda: _POOL_STATE.drop(shard_id)
    )
    payload = _POOL_STATE.runtime(shard_id).filter(spec, digest, query_points)
    return _faults.wrap_result(payload, directives)


def _pool_refine(
    shard_id, spec, digest, query_points, members, threshold,
    early_abandon, exact_positions, batch_size, kernel_spec, directives=(),
):
    _faults.apply(
        directives, inline=False, drop=lambda: _POOL_STATE.drop(shard_id)
    )
    payload = _POOL_STATE.runtime(shard_id).refine(
        spec, digest, query_points, members, threshold,
        early_abandon, exact_positions, batch_size, kernel_spec,
        _POOL_STATE.shared_value,
    )
    return _faults.wrap_result(payload, directives)


def _pool_subknn(
    shard_id, query_points, members, bound, lo, hi, batch_size, directives=(),
):
    _faults.apply(
        directives, inline=False, drop=lambda: _POOL_STATE.drop(shard_id)
    )
    payload = _POOL_STATE.runtime(shard_id).subknn(
        query_points, members, bound, lo, hi, batch_size
    )
    return _faults.wrap_result(payload, directives)


def _pool_ping():
    """Worker liveness probe: answers with the worker's pid."""
    return os.getpid()


class _ShardFailure(RuntimeError):
    """A shard task exhausted its retry budget — degrade to serial."""

    def __init__(self, point: str, shard_id: int) -> None:
        super().__init__(
            f"shard {shard_id} failed its {point} task after retries"
        )
        self.point = point
        self.shard_id = shard_id


def _classify(error: BaseException) -> Optional[str]:
    """Map a dispatch failure to its recovery counter (None = not ours).

    Unknown exception types return ``None`` and the caller re-raises:
    masking a genuine bug as a transient worker fault would retry (and
    eventually serialize) forever instead of surfacing it.
    """
    if isinstance(error, (BrokenProcessPool, WorkerCrash)):
        return "worker_crashes"
    if isinstance(error, (_FuturesTimeout, TimeoutError, WorkerTimeout)):
        return "timeouts"
    if isinstance(error, ShardAttachError):
        return "attach_failures"
    if isinstance(error, ChecksumMismatch):
        return "checksum_failures"
    if isinstance(error, (EOFError, BrokenPipeError, ConnectionError)):
        return "transport_errors"
    return None


class _InlineValue:
    """In-process stand-in for the shared cooperative bound."""

    __slots__ = ("value",)

    def __init__(self, value: float = float("inf")) -> None:
        self.value = value


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class ShardedDatabase:
    """Partition-parallel exact search over a warmed database.

    Parameters
    ----------
    database:
        The parent database.  Artifacts needed by ``specs`` are built
        (or reused) at construction and packed into shared memory.
    shards:
        Number of contiguous partitions (clamped to the database size).
    specs:
        Pruner-chain specs (service syntax) the shards must be able to
        serve; the union of their families decides what gets packed.
    mode:
        ``"process"`` — persistent worker pool over shared memory (the
        production path); ``"inline"`` — the identical pipeline executed
        in-process, for deterministic tests and cheap single-shard use.
    workers:
        Pool size (process mode); defaults to the shard count.
    exact_stage:
        Scheduling policy for two-stage pruners' exact bounds on
        refine-phase survivors: ``"auto"`` pays them only when the
        pruner declares them cheap (``exact_stage_cheap``), ``"always"``
        / ``"never"`` force either way.  Pure scheduling — answers are
        identical under all three; only the pruned-vs-refined credit
        split moves (deterministically, for any fixed policy).
    max_retries:
        Re-executions allowed per failed shard task before the query
        degrades to the serial engine (which still returns the exact
        answer).
    retry_backoff_s:
        Base backoff before retry ``n`` (doubles each attempt).
    round_timeout_s:
        Deadline for collecting one dispatch wave; a shard that misses
        it is treated as hung (worker terminated and respawned, task
        retried).  ``None`` disables timeouts.
    fault_plan:
        Optional :class:`~repro.core.faults.FaultPlan` — deterministic
        fault injection for the chaos suite.  The plan is consumed
        coordinator-side as tasks are dispatched, so retries run clean
        unless the plan says otherwise.
    verify_checksums:
        Verify the per-task content checksum every worker result
        carries; a mismatch is treated as a transient fault (retry).
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        shards: int = 2,
        *,
        specs: Sequence[str] = ("histogram,qgram",),
        mode: str = "process",
        workers: Optional[int] = None,
        max_triangle: int = 50,
        refine_batch_size: int = DEFAULT_REFINE_BATCH_SIZE,
        exact_stage: str = "auto",
        max_retries: int = 2,
        retry_backoff_s: float = 0.02,
        round_timeout_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        verify_checksums: bool = True,
        pack_shard: Optional[
            Callable[[int, int, Sequence[str], int], Dict[str, object]]
        ] = None,
    ) -> None:
        if mode not in ("process", "inline"):
            raise ValueError("mode must be 'process' or 'inline'")
        if exact_stage not in ("auto", "always", "never"):
            raise ValueError("exact_stage must be 'auto', 'always', or 'never'")
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._database = database
        self.shards = min(int(shards), len(database))
        self.mode = mode
        self.workers = int(workers) if workers else self.shards
        self._max_triangle = int(max_triangle)
        self._round_size = max(2, int(refine_batch_size))
        self._exact_stage = exact_stage

        canonical: List[str] = []
        for spec in specs:
            normalized = canonical_pruner_spec(spec)
            if normalized not in canonical:
                canonical.append(normalized)
        if not canonical:
            canonical = [""]
        self.specs = tuple(canonical)
        self._packed_parts = sorted(
            {part for spec in self.specs for part in spec.split(",") if part}
        )

        sizes = [len(piece) for piece in np.array_split(np.arange(len(database)), self.shards)]
        starts = np.zeros(self.shards + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        self._starts = starts
        self._shard_ids = np.repeat(np.arange(self.shards), sizes)

        self._blocks: List[SharedArrayBlock] = []
        shard_payload: Dict[int, Dict[str, object]] = {}
        for shard_id in range(self.shards):
            if pack_shard is not None:
                # Mmap-attach mode (tiered stores): the callback returns
                # a file-array manifest describing row slices of the
                # store's own files — nothing is packed into shm, so
                # there is nothing to unlink at close either.
                shard_payload[shard_id] = pack_shard(
                    int(starts[shard_id]),
                    int(starts[shard_id + 1]),
                    self._packed_parts,
                    self._max_triangle,
                )
                continue
            arrays, meta = _pack_shard(
                database,
                int(starts[shard_id]),
                int(starts[shard_id + 1]),
                self._packed_parts,
                self._max_triangle,
            )
            block = SharedArrayBlock.create(arrays)
            self._blocks.append(block)
            shard_payload[shard_id] = {"manifest": block.manifest, "meta": meta}
        self._payload = {"shards": shard_payload}

        self._pools: Optional[List[ProcessPoolExecutor]] = None
        self._context = None
        self._value = None
        self._inline_state: Optional[_WorkerState] = None
        self._start_method: Optional[str] = None
        self._parent_chains: Dict[str, List[Pruner]] = {}
        self._closed = False

        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.round_timeout_s = (
            None if round_timeout_s is None else float(round_timeout_s)
        )
        self.fault_plan = fault_plan
        self.verify_checksums = bool(verify_checksums)
        self._degraded = False
        self._lifetime: Dict[str, int] = {name: 0 for name in RECOVERY_FIELDS}
        self._lifetime["degraded_queries"] = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._database)

    @property
    def database(self) -> TrajectoryDatabase:
        return self._database

    @property
    def boundaries(self) -> List[Tuple[int, int]]:
        """Global ``[start, stop)`` row range of every shard."""
        return [
            (int(self._starts[s]), int(self._starts[s + 1]))
            for s in range(self.shards)
        ]

    @property
    def start_method(self) -> Optional[str]:
        """Start method of the worker pool (None before first use / inline)."""
        return self._start_method

    def supports(self, spec: str) -> bool:
        """Whether the packed artifacts can serve ``spec``."""
        try:
            parts = [p for p in canonical_pruner_spec(spec).split(",") if p]
        except ValueError:
            return False
        return all(part in self._packed_parts for part in parts)

    @property
    def degraded(self) -> bool:
        """True after a query fell back to serial, until a sharded query
        (or :meth:`health_check`) succeeds again."""
        return self._degraded

    def resilience(self) -> Dict[str, object]:
        """Lifetime recovery counters plus the current degraded flag."""
        snapshot: Dict[str, object] = dict(self._lifetime)
        snapshot["degraded"] = self._degraded
        return snapshot

    def health_check(self, timeout: float = 5.0) -> bool:
        """Probe every worker slot; respawn dead ones; clear degraded.

        Returns True when every slot answered a ping (after at most one
        respawn each).  A True result clears the degraded flag — the
        sharded path is serviceable again.
        """
        self._ensure_ready()
        if self.mode == "inline":
            self._degraded = False
            return True
        healthy = True
        for index in range(len(self._pools)):
            try:
                self._pools[index].submit(_pool_ping).result(timeout=timeout)
                continue
            except Exception as error:
                if _classify(error) is None:
                    raise
            self._respawn_slot(index)
            self._lifetime["respawns"] += 1
            try:
                self._pools[index].submit(_pool_ping).result(timeout=timeout)
            except Exception:
                healthy = False
        if healthy:
            self._degraded = False
        return healthy

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def _ensure_ready(self) -> None:
        if self._closed:
            raise RuntimeError("sharded database is closed")
        if self.mode == "inline":
            if self._inline_state is None:
                self._value = _InlineValue()
                self._inline_state = _WorkerState(self._payload, self._value)
            return
        if self._pools is None:
            context, method = process_context("fork")
            self._start_method = method
            # Synchronized values travel only by inheritance, so the
            # cooperative bound needs fork; without it workers fall back
            # to the frozen round threshold (still exact, just no
            # mid-round cross-shard tightening).
            self._value = context.Value("d", float("inf"), lock=False) if method == "fork" else None
            # One single-worker pool per worker slot, with shards pinned
            # to slots (shard s -> pool s % W): a shard's tasks always
            # land on the same process, so its attached block and its
            # per-query pruner state are built exactly once — a shared
            # pool's round-robin would rebuild the query state on
            # whichever worker each round's task happened to reach.
            self._context = context
            slots = max(1, min(self.workers, self.shards))
            self._pools = [self._new_pool() for _ in range(slots)]

    def _new_pool(self) -> ProcessPoolExecutor:
        # Fresh pools reuse the same initargs: under fork they travel by
        # memory inheritance, so a respawned worker keeps the *same*
        # shared cooperative-bound Value and shard manifests.
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._context,
            initializer=_pool_initializer,
            initargs=(self._payload, self._value),
        )

    def _respawn_slot(self, index: int) -> None:
        """Terminate slot ``index``'s (dead or hung) pool; start fresh."""
        terminate_pool(self._pools[index])
        self._pools[index] = self._new_pool()

    def _pool_for(self, shard_id: int) -> ProcessPoolExecutor:
        return self._pools[shard_id % len(self._pools)]

    def _parent_chain(self, spec: str) -> List[Pruner]:
        if spec not in self._parent_chains:
            from ..service.pruning import build_pruners

            self._parent_chains[spec] = build_pruners(
                self._database, spec, max_triangle=self._max_triangle
            )
        return self._parent_chains[spec]

    # ------------------------------------------------------------------
    # Public search API
    # ------------------------------------------------------------------
    def knn_search(
        self,
        query: Trajectory,
        k: int,
        spec: Optional[str] = None,
        early_abandon: bool = False,
        refine_batch_size: Optional[int] = None,
        edr_kernel: Optional[str] = None,
    ) -> Tuple[List[Neighbor], ShardedSearchStats]:
        """Exact k-NN, byte-for-byte equal to the serial ``knn_search``."""
        return self._run(
            query, spec, k=k, radius=None,
            early_abandon=early_abandon, refine_batch_size=refine_batch_size,
            edr_kernel=edr_kernel,
        )

    def knn_sorted_search(
        self,
        query: Trajectory,
        k: int,
        spec: Optional[str] = None,
        early_abandon: bool = False,
        refine_batch_size: Optional[int] = None,
        edr_kernel: Optional[str] = None,
    ) -> Tuple[List[Neighbor], ShardedSearchStats]:
        """Alias of :meth:`knn_search` — the sharded pipeline *is* a
        sorted scan (global quick-bound order with a sorted break), and
        the canonical result list makes the serial ``knn_search`` and
        ``knn_sorted_search`` answers identical already."""
        return self.knn_search(
            query, k, spec=spec, early_abandon=early_abandon,
            refine_batch_size=refine_batch_size, edr_kernel=edr_kernel,
        )

    def range_search(
        self,
        query: Trajectory,
        radius: float,
        spec: Optional[str] = None,
        early_abandon: bool = False,
        refine_batch_size: Optional[int] = None,
        edr_kernel: Optional[str] = None,
    ) -> Tuple[List[Neighbor], ShardedSearchStats]:
        """Exact range query; answers equal the serial ``range_search``."""
        if radius < 0.0:
            raise ValueError("radius must be non-negative")
        return self._run(
            query, spec, k=None, radius=float(radius),
            early_abandon=early_abandon, refine_batch_size=refine_batch_size,
            edr_kernel=edr_kernel,
        )

    def subknn_search(
        self,
        query: Trajectory,
        k: int,
        spec: Optional[str] = None,
        alpha: float = DEFAULT_WINDOW_ALPHA,
        min_window: Optional[int] = None,
        max_window: Optional[int] = None,
        early_abandon: bool = False,
        refine_batch_size: Optional[int] = None,
        edr_kernel: Optional[str] = None,
    ) -> Tuple[List[WindowMatch], ShardedSearchStats]:
        """Exact top-k banded-window search, byte-equal to the serial
        :func:`repro.core.subtrajectory.subknn_search` — answers and the
        window counters alike (the round engine never tightens a
        worker's bound mid-round, so abandonment decisions match)."""
        start_time = time.perf_counter()
        self._ensure_ready()
        spec = canonical_pruner_spec(spec if spec is not None else self.specs[0])
        if not self.supports(spec):
            raise ValueError(
                f"spec {spec!r} needs artifact families outside the packed set "
                f"{self._packed_parts}"
            )
        round_size = (
            self._round_size
            if refine_batch_size is None
            else max(2, int(refine_batch_size))
        )
        recovery = {name: 0 for name in RECOVERY_FIELDS}
        try:
            answer, stats = self._run_subknn(
                query, spec, k, alpha, min_window, max_window,
                early_abandon, round_size, recovery, edr_kernel,
            )
            self._degraded = False
        except _ShardFailure:
            answer, stats = self._degrade_subknn(
                query, spec, k, alpha, min_window, max_window,
                early_abandon, round_size, edr_kernel,
            )
        for name in RECOVERY_FIELDS:
            setattr(stats, name, recovery[name])
            self._lifetime[name] += recovery[name]
        if stats.degraded:
            self._lifetime["degraded_queries"] += 1
        stats.elapsed_seconds = time.perf_counter() - start_time
        return answer, stats

    # ------------------------------------------------------------------
    # The frozen-bound round engine
    # ------------------------------------------------------------------
    def _run(
        self,
        query: Trajectory,
        spec: Optional[str],
        k: Optional[int],
        radius: Optional[float],
        early_abandon: bool,
        refine_batch_size: Optional[int],
        edr_kernel: Optional[str] = None,
    ) -> Tuple[List[Neighbor], ShardedSearchStats]:
        start_time = time.perf_counter()
        self._ensure_ready()
        spec = canonical_pruner_spec(spec if spec is not None else self.specs[0])
        if not self.supports(spec):
            raise ValueError(
                f"spec {spec!r} needs artifact families outside the packed set "
                f"{self._packed_parts}"
            )
        round_size = (
            self._round_size
            if refine_batch_size is None
            else max(2, int(refine_batch_size))
        )
        recovery = {name: 0 for name in RECOVERY_FIELDS}
        try:
            answer, stats = self._run_sharded(
                query, spec, k, radius, early_abandon, round_size, recovery,
                edr_kernel,
            )
            self._degraded = False
        except _ShardFailure:
            answer, stats = self._degrade(
                query, spec, k, radius, early_abandon, round_size, edr_kernel
            )
        for name in RECOVERY_FIELDS:
            setattr(stats, name, recovery[name])
            self._lifetime[name] += recovery[name]
        if stats.degraded:
            self._lifetime["degraded_queries"] += 1
        stats.elapsed_seconds = time.perf_counter() - start_time
        return answer, stats

    def _degrade(
        self,
        query: Trajectory,
        spec: str,
        k: Optional[int],
        radius: Optional[float],
        early_abandon: bool,
        round_size: int,
        edr_kernel: Optional[str] = None,
    ) -> Tuple[List[Neighbor], ShardedSearchStats]:
        """Last resort: rerun the whole query on the serial engine.

        The serial engines are pure functions of the database and the
        query, so the answer is exact regardless of what the sharded
        attempt got through before failing; its partial per-shard
        tallies are discarded and the returned stats are the serial
        engine's own (marked ``degraded``).
        """
        chain = self._parent_chain(spec)
        if radius is None:
            answer, serial = knn_search(
                self._database, query, k, chain,
                early_abandon=early_abandon, refine_batch_size=round_size,
                edr_kernel=edr_kernel,
            )
        else:
            from .rangequery import range_search

            answer, serial = range_search(
                self._database, query, radius, chain,
                early_abandon=early_abandon, refine_batch_size=round_size,
                edr_kernel=edr_kernel,
            )
        self._degraded = True
        stats = ShardedSearchStats(
            database_size=serial.database_size,
            true_distance_computations=serial.true_distance_computations,
            pruned_by=dict(serial.pruned_by),
            per_shard=[],
            rounds=0,
            shards=self.shards,
            start_method=self._start_method if self.mode == "process" else None,
            degraded=True,
        )
        stats.kernel = serial.kernel
        stats.kernel_buckets = dict(serial.kernel_buckets)
        stats.kernel_cells = dict(serial.kernel_cells)
        stats.kernel_seconds = dict(serial.kernel_seconds)
        return answer, stats

    def _degrade_subknn(
        self,
        query: Trajectory,
        spec: str,
        k: int,
        alpha: float,
        min_window: Optional[int],
        max_window: Optional[int],
        early_abandon: bool,
        round_size: int,
        edr_kernel: Optional[str] = None,
    ) -> Tuple[List[WindowMatch], ShardedSearchStats]:
        """Serial rerun of a failed sharded window query (see
        :meth:`_degrade`); the window counters carry over verbatim."""
        chain = self._parent_chain(spec)
        answer, serial = _serial_subknn_search(
            self._database, query, k, chain, alpha=alpha,
            min_window=min_window, max_window=max_window,
            early_abandon=early_abandon, refine_batch_size=round_size,
            edr_kernel=edr_kernel,
        )
        self._degraded = True
        stats = ShardedSearchStats(
            database_size=serial.database_size,
            true_distance_computations=serial.true_distance_computations,
            pruned_by=dict(serial.pruned_by),
            per_shard=[],
            rounds=0,
            shards=self.shards,
            start_method=self._start_method if self.mode == "process" else None,
            degraded=True,
        )
        stats.kernel = serial.kernel
        stats.kernel_buckets = dict(serial.kernel_buckets)
        stats.kernel_cells = dict(serial.kernel_cells)
        stats.kernel_seconds = dict(serial.kernel_seconds)
        stats.windows_total = serial.windows_total
        stats.windows_evaluated = serial.windows_evaluated
        stats.windows_pruned = serial.windows_pruned
        stats.windows_abandoned = serial.windows_abandoned
        return answer, stats

    def _run_sharded(
        self,
        query: Trajectory,
        spec: str,
        k: Optional[int],
        radius: Optional[float],
        early_abandon: bool,
        round_size: int,
        recovery: Dict[str, int],
        edr_kernel: Optional[str] = None,
    ) -> Tuple[List[Neighbor], ShardedSearchStats]:
        knn = radius is None
        result = _ResultList(k) if knn else None
        # Kernel routing is resolved once, coordinator-side ("auto"
        # autotunes against the parent database; forked workers inherit
        # nothing — they receive the concrete table in the task tuple).
        plan = resolve_kernel_plan(self._database, edr_kernel)
        if plan.default == LEGACY_KERNEL and not plan.table:
            kernel_spec = None
        else:
            kernel_spec = (plan.default, tuple(sorted(plan.table.items())))
        range_hits: List[Neighbor] = []
        total = len(self._database)
        per_shard = [
            SearchStats(database_size=int(self._starts[s + 1] - self._starts[s]))
            for s in range(self.shards)
        ]

        chain = self._parent_chain(spec)
        query_pruners = [pruner.for_query(query) for pruner in chain]
        names = [query_pruner.name for query_pruner in query_pruners]
        query_points = np.ascontiguousarray(query.points)
        digest = hashlib.sha1(query_points.tobytes()).hexdigest()

        if self._value is not None:
            self._value.value = radius if not knn else float("inf")

        # ---- filter phase: shard-parallel bulk quick bounds ----------
        shard_quick = self._dispatch_filter(spec, digest, query_points, recovery)
        quick: List[Optional[np.ndarray]] = []
        for position, query_pruner in enumerate(query_pruners):
            if query_pruner.dynamic:
                quick.append(None)
            else:
                quick.append(
                    np.concatenate(
                        [shard_quick[s][position] for s in range(self.shards)]
                    )
                )
        if quick and quick[0] is not None:
            order_keys = quick[0]
        elif query_pruners:
            # Dynamic primary: order by its initial (pre-scan) bounds,
            # exactly like the serial sorted engine's frozen array.
            order_keys = np.asarray(
                query_pruners[0].bulk_quick_lower_bounds(), dtype=np.float64
            )
        else:
            order_keys = np.zeros(total, dtype=np.float64)
        order = np.argsort(order_keys, kind="stable")

        exact_positions = [
            position
            for position, query_pruner in enumerate(query_pruners)
            if quick[position] is not None
            and query_pruner.two_stage
            and (
                self._exact_stage == "always"
                or (self._exact_stage == "auto" and query_pruner.exact_stage_cheap)
            )
        ]

        # ---- frozen-bound rounds -------------------------------------
        position_in_order = 0
        rounds = 0
        while position_in_order < total:
            threshold = result.best_so_far if knn else radius
            finite = np.isfinite(threshold)
            chunk: List[int] = []
            while position_in_order < total and len(chunk) < round_size:
                candidate = int(order[position_in_order])
                if finite and query_pruners:
                    if order_keys[candidate] > threshold:
                        # Sorted break: every remaining ordered bound
                        # also exceeds the frozen threshold.
                        remaining = order[position_in_order:]
                        counts = np.bincount(
                            self._shard_ids[remaining], minlength=self.shards
                        )
                        for shard_id, count in enumerate(counts.tolist()):
                            if count:
                                per_shard[shard_id].pruned_by[names[0]] = (
                                    per_shard[shard_id].pruned_by.get(names[0], 0)
                                    + count
                                )
                        position_in_order = total
                        break
                    pruned = False
                    for p, query_pruner in enumerate(query_pruners):
                        if quick[p] is None:
                            prunes = query_pruner.lower_bound(candidate, threshold) > threshold
                        else:
                            prunes = quick[p][candidate] > threshold
                        if prunes:
                            per_shard[int(self._shard_ids[candidate])].credit(names[p])
                            pruned = True
                            break
                    if pruned:
                        position_in_order += 1
                        continue
                chunk.append(candidate)
                position_in_order += 1
            if not chunk:
                continue
            rounds += 1

            groups: Dict[int, List[int]] = {}
            for candidate in chunk:
                groups.setdefault(int(self._shard_ids[candidate]), []).append(candidate)
            outcomes = self._dispatch_refine(
                groups, spec, digest, query_points, threshold,
                early_abandon, exact_positions, round_size, kernel_spec,
                result, recovery,
            )
            # Deterministic merge pass in global chunk order: stats,
            # range hits, and dynamic-pruner records all follow the
            # partition-independent order, not completion order.
            cursors = {shard_id: 0 for shard_id in groups}
            for candidate in chunk:
                shard_id = int(self._shard_ids[candidate])
                outcome = outcomes[shard_id][cursors[shard_id]]
                cursors[shard_id] += 1
                kind, payload = outcome
                if kind == "p":
                    per_shard[shard_id].credit(names[int(payload)])
                    continue
                per_shard[shard_id].true_distance_computations += 1
                distance = float(payload)
                if np.isfinite(distance):
                    for query_pruner in query_pruners:
                        query_pruner.record(candidate, distance)
                    if not knn and distance <= radius:
                        range_hits.append(Neighbor(candidate, distance))

        stats = ShardedSearchStats(
            database_size=total,
            per_shard=per_shard,
            rounds=rounds,
            shards=self.shards,
            start_method=self._start_method if self.mode == "process" else None,
        )
        stats.kernel = plan.requested
        stats.kernel_buckets = {
            str(bucket): name for bucket, name in sorted(plan.table.items())
        }
        for shard_stats in per_shard:
            shard_stats.start_method = stats.start_method
            stats.true_distance_computations += shard_stats.true_distance_computations
            for name, count in shard_stats.pruned_by.items():
                stats.pruned_by[name] = stats.pruned_by.get(name, 0) + count
        if knn:
            return result.neighbors(), stats
        range_hits.sort(key=lambda neighbor: neighbor.index)
        return range_hits, stats

    def _run_subknn(
        self,
        query: Trajectory,
        spec: str,
        k: int,
        alpha: float,
        min_window: Optional[int],
        max_window: Optional[int],
        early_abandon: bool,
        round_size: int,
        recovery: Dict[str, int],
        edr_kernel: Optional[str] = None,
    ) -> Tuple[List[WindowMatch], ShardedSearchStats]:
        result = _WindowResultList(k)
        if edr_kernel is not None:
            # Validation only — the windowed DP has a single batched
            # implementation (see the serial engine's note).
            resolve_kernel_plan(self._database, edr_kernel)
        total = len(self._database)
        query_points = np.ascontiguousarray(query.points)
        lo, hi = resolve_window_range(
            int(query_points.shape[0]), alpha, min_window, max_window
        )
        lengths = np.asarray(self._database.lengths, dtype=np.int64)
        counts = window_counts(lengths, lo, hi)
        per_shard: List[SearchStats] = []
        for s in range(self.shards):
            shard_stats = SearchStats(
                database_size=int(self._starts[s + 1] - self._starts[s])
            )
            shard_stats.windows_total = int(
                counts[self._starts[s]:self._starts[s + 1]].sum()
            )
            shard_stats.kernel = WINDOW_KERNEL
            per_shard.append(shard_stats)

        # The window bounds are single-stage static arrays, so the
        # coordinator prices them against the parent chain directly —
        # no filter wave, and the subknn task ships no pruner state.
        chain = self._parent_chain(spec)
        query_pruners = [pruner.for_query(query) for pruner in chain]
        names = [query_pruner.name for query_pruner in query_pruners]
        window_bounds = [
            np.asarray(
                query_pruner.bulk_window_lower_bounds(), dtype=np.float64
            )
            for query_pruner in query_pruners
        ]
        order_keys = (
            window_bounds[0] if window_bounds else np.zeros(total, dtype=np.float64)
        )
        order = np.argsort(order_keys, kind="stable")

        position_in_order = 0
        rounds = 0
        while position_in_order < total:
            threshold = result.best_so_far
            finite = np.isfinite(threshold)
            chunk: List[int] = []
            while position_in_order < total and len(chunk) < round_size:
                candidate = int(order[position_in_order])
                if finite and query_pruners:
                    if order_keys[candidate] > threshold:
                        # Sorted break: the primary window bound only
                        # grows from here, retiring every remaining
                        # candidate — and all of their windows.
                        remaining = order[position_in_order:]
                        trajectory_tallies = np.bincount(
                            self._shard_ids[remaining], minlength=self.shards
                        )
                        window_tallies = np.bincount(
                            self._shard_ids[remaining],
                            weights=counts[remaining].astype(np.float64),
                            minlength=self.shards,
                        )
                        for shard_id, count in enumerate(
                            trajectory_tallies.tolist()
                        ):
                            if count:
                                per_shard[shard_id].pruned_by[names[0]] = (
                                    per_shard[shard_id].pruned_by.get(names[0], 0)
                                    + count
                                )
                                per_shard[shard_id].windows_pruned += int(
                                    window_tallies[shard_id]
                                )
                        position_in_order = total
                        break
                    pruned = False
                    for p in range(1, len(query_pruners)):
                        if window_bounds[p][candidate] > threshold:
                            shard_id = int(self._shard_ids[candidate])
                            per_shard[shard_id].credit(names[p])
                            per_shard[shard_id].windows_pruned += int(
                                counts[candidate]
                            )
                            pruned = True
                            break
                    if pruned:
                        position_in_order += 1
                        continue
                chunk.append(candidate)
                position_in_order += 1
            if not chunk:
                continue
            rounds += 1
            bound = float(threshold) if (early_abandon and finite) else float("inf")

            groups: Dict[int, List[int]] = {}
            for candidate in chunk:
                groups.setdefault(int(self._shard_ids[candidate]), []).append(candidate)
            outcomes = self._dispatch_subknn(
                groups, query_points, bound, lo, hi, round_size, result, recovery,
            )
            cursors = {shard_id: 0 for shard_id in groups}
            for candidate in chunk:
                shard_id = int(self._shard_ids[candidate])
                outcome = outcomes[shard_id][cursors[shard_id]]
                cursors[shard_id] += 1
                per_shard[shard_id].true_distance_computations += 1
                per_shard[shard_id].windows_evaluated += int(outcome[3])
                per_shard[shard_id].windows_abandoned += int(outcome[4])

        stats = ShardedSearchStats(
            database_size=total,
            per_shard=per_shard,
            rounds=rounds,
            shards=self.shards,
            start_method=self._start_method if self.mode == "process" else None,
        )
        stats.kernel = WINDOW_KERNEL
        stats.windows_total = int(counts.sum())
        for shard_stats in per_shard:
            shard_stats.start_method = stats.start_method
            stats.true_distance_computations += (
                shard_stats.true_distance_computations
            )
            stats.windows_evaluated += shard_stats.windows_evaluated
            stats.windows_pruned += shard_stats.windows_pruned
            stats.windows_abandoned += shard_stats.windows_abandoned
            for name, count in shard_stats.pruned_by.items():
                stats.pruned_by[name] = stats.pruned_by.get(name, 0) + count
        return result.matches(), stats

    # ------------------------------------------------------------------
    # Dispatch (process pool or inline), with bounded recovery
    # ------------------------------------------------------------------
    def _directives_for(self, point: str, shard_id: int) -> Tuple[Fault, ...]:
        if self.fault_plan is None:
            return ()
        return self.fault_plan.directives(point, shard_id)

    def _submit(self, point: str, shard_id: int, args: tuple, directives):
        fn = {
            "filter": _pool_filter,
            "refine": _pool_refine,
            "subknn": _pool_subknn,
        }[point]
        return self._pool_for(shard_id).submit(fn, shard_id, *args, directives)

    def _inline_execute(
        self, point: str, shard_id: int, args: tuple, directives
    ):
        # Inline mode cannot interrupt a synchronous call, so a slow
        # directive that would blow the round deadline becomes a
        # deterministic pre-execution timeout instead of a sleep —
        # exactly the coordinator-visible outcome of the process path.
        if self.round_timeout_s is not None:
            delay = sum(d.delay_s for d in directives if d.kind == "slow")
            if delay >= self.round_timeout_s:
                raise WorkerTimeout(
                    f"shard {shard_id} {point} task exceeded the "
                    f"{self.round_timeout_s}s round deadline"
                )
        state = self._inline_state
        _faults.apply(
            directives, inline=True, drop=lambda: state.drop(shard_id)
        )
        runtime = state.runtime(shard_id)
        if point == "filter":
            payload = runtime.filter(*args)
        elif point == "subknn":
            payload = runtime.subknn(*args)
        else:
            payload = runtime.refine(*args, self._value)
        return _faults.wrap_result(payload, directives)

    def _attempt(
        self,
        point: str,
        shard_id: int,
        args: tuple,
        future=None,
        deadline: Optional[float] = None,
    ):
        """One execution of a shard task; verified payload or raise."""
        if future is None:
            directives = self._directives_for(point, shard_id)
            if self.mode == "inline":
                wrapped = self._inline_execute(point, shard_id, args, directives)
            else:
                wrapped = self._submit(point, shard_id, args, directives).result(
                    timeout=self.round_timeout_s
                )
        else:
            timeout = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            wrapped = future.result(timeout=timeout)
        payload, digest = wrapped
        if self.verify_checksums and _faults.checksum(payload) != digest:
            raise ChecksumMismatch(
                f"shard {shard_id} returned a corrupt {point} result"
            )
        return payload

    def _recover_slot(
        self, shard_id: int, counter: str, recovery: Dict[str, int]
    ) -> None:
        """Post-failure cleanup so the retry lands on a live worker.

        Crashes and timeouts leave a dead or hung process behind: the
        slot's pool is terminated and respawned (inline: the shard
        runtime is dropped, the deterministic analogue).  Transport,
        attach, and checksum failures leave the worker alive — nothing
        to do but retry.
        """
        if counter not in ("worker_crashes", "timeouts"):
            return
        if self.mode == "inline":
            self._inline_state.drop(shard_id)
        else:
            self._respawn_slot(shard_id % len(self._pools))
        recovery["respawns"] += 1

    def _collect(
        self,
        point: str,
        shard_id: int,
        args: tuple,
        recovery: Dict[str, int],
        future=None,
        deadline: Optional[float] = None,
    ):
        """A shard task's verified payload, through bounded recovery.

        The first attempt may ride an already-submitted ``future`` (the
        parallel wave); each retry re-executes from scratch after
        backoff.  Exhausting ``max_retries`` raises
        :class:`_ShardFailure`, the signal to degrade serially.
        """
        attempt = 0
        while True:
            try:
                return self._attempt(
                    point, shard_id, args, future=future, deadline=deadline
                )
            except Exception as error:
                counter = _classify(error)
                if counter is None:
                    raise
                recovery[counter] += 1
                self._recover_slot(shard_id, counter, recovery)
                attempt += 1
                if attempt > self.max_retries:
                    raise _ShardFailure(point, shard_id) from error
                if self.retry_backoff_s > 0.0:
                    time.sleep(self.retry_backoff_s * (2 ** (attempt - 1)))
                recovery["retries"] += 1
                future = None
                deadline = None

    def _dispatch(
        self,
        point: str,
        tasks: Dict[int, tuple],
        recovery: Dict[str, int],
        merge: Optional[Callable[[int, object], None]] = None,
    ) -> Dict[int, object]:
        """Run one wave of shard tasks, resiliently; payloads by shard.

        Process mode submits every first attempt up front (the parallel
        wave shares one round deadline), then collects in sorted shard
        order — recovery for one shard runs while later shards keep
        computing.  ``merge`` is called per shard as its verified
        payload lands.  Iteration is sorted in both modes so the fault
        plan's visit counters advance deterministically.
        """
        results: Dict[int, object] = {}
        pending: Dict[int, object] = {}
        deadline = None
        if self.mode == "process":
            for shard_id in sorted(tasks):
                directives = self._directives_for(point, shard_id)
                pending[shard_id] = self._submit(
                    point, shard_id, tasks[shard_id], directives
                )
            if self.round_timeout_s is not None:
                deadline = time.monotonic() + self.round_timeout_s
        for shard_id in sorted(tasks):
            payload = self._collect(
                point,
                shard_id,
                tasks[shard_id],
                recovery,
                future=pending.get(shard_id),
                deadline=deadline,
            )
            results[shard_id] = payload
            if merge is not None:
                merge(shard_id, payload)
        return results

    def _dispatch_filter(
        self,
        spec: str,
        digest: str,
        query_points: np.ndarray,
        recovery: Dict[str, int],
    ) -> Dict[int, Dict[int, np.ndarray]]:
        tasks = {
            shard_id: (spec, digest, query_points)
            for shard_id in range(self.shards)
        }
        return self._dispatch("filter", tasks, recovery)

    def _dispatch_refine(
        self,
        groups: Dict[int, List[int]],
        spec: str,
        digest: str,
        query_points: np.ndarray,
        threshold: float,
        early_abandon: bool,
        exact_positions: List[int],
        batch_size: int,
        kernel_spec,
        result: Optional[_ResultList],
        recovery: Dict[str, int],
    ) -> Dict[int, List[Tuple[str, float]]]:
        """Run one round's shard groups; merge k-NN offers eagerly.

        Offers into the canonical result list are commutative, so they
        happen as each shard's verified payload lands — and the shared
        bound is republished immediately, tightening still-running
        shards' early-abandon budget mid-round.  Everything
        order-sensitive (stats, records) waits for the caller's
        deterministic pass.
        """
        local_groups = {
            shard_id: [c - int(self._starts[shard_id]) for c in members]
            for shard_id, members in groups.items()
        }

        def merge(shard_id: int, shard_outcomes) -> None:
            if result is None:
                return
            base = int(self._starts[shard_id])
            for local_index, (kind, payload) in zip(
                local_groups[shard_id], shard_outcomes
            ):
                if kind == "d":
                    result.offer(base + local_index, float(payload))
            if self._value is not None:
                best = result.best_so_far
                if best < self._value.value:
                    self._value.value = best

        tasks = {
            shard_id: (
                spec, digest, query_points, members, threshold,
                early_abandon, exact_positions, batch_size, kernel_spec,
            )
            for shard_id, members in local_groups.items()
        }
        return self._dispatch("refine", tasks, recovery, merge=merge)

    def _dispatch_subknn(
        self,
        groups: Dict[int, List[int]],
        query_points: np.ndarray,
        bound: float,
        lo: int,
        hi: int,
        batch_size: int,
        result: _WindowResultList,
        recovery: Dict[str, int],
    ) -> Dict[int, List[Tuple[float, int, int, int, int]]]:
        """Run one round's shard window groups; merge offers eagerly.

        Offers into the window result list are commutative, so they
        land as each shard's verified payload arrives.  Unlike
        :meth:`_dispatch_refine` there is deliberately no shared-bound
        republish: workers abandon against the frozen round threshold
        only, which is what keeps ``windows_abandoned`` byte-equal to
        the serial engine's.  Stats wait for the caller's deterministic
        pass in global chunk order.
        """
        local_groups = {
            shard_id: [c - int(self._starts[shard_id]) for c in members]
            for shard_id, members in groups.items()
        }

        def merge(shard_id: int, shard_outcomes) -> None:
            base = int(self._starts[shard_id])
            for local_index, outcome in zip(
                local_groups[shard_id], shard_outcomes
            ):
                distance = float(outcome[0])
                if np.isfinite(distance):
                    result.offer(
                        base + local_index,
                        int(outcome[1]),
                        int(outcome[2]),
                        distance,
                    )

        tasks = {
            shard_id: (query_points, members, bound, lo, hi, batch_size)
            for shard_id, members in local_groups.items()
        }
        return self._dispatch("subknn", tasks, recovery, merge=merge)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and release every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=True)
            self._pools = None
        if self._inline_state is not None:
            self._inline_state.close()
            self._inline_state = None
        for block in self._blocks:
            block.close()
            block.unlink()
        self._blocks = []

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

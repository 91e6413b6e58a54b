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
  counters are independent of the shard count.  The loop itself lives
  in :mod:`repro.core.rounds`; this coordinator supplies its round
  executor.  The best-window search runs the same loop as another
  route, the serial engine's own: its window-sound bounds and its
  free-start filter are priced by the coordinator, and its workers run
  the windowed DP.

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
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import faults as _faults
from .database import TrajectoryDatabase
from .edr_batch import DEFAULT_REFINE_BATCH_SIZE, iter_length_buckets
from .faults import (
    ChecksumMismatch,
    Fault,
    FaultPlan,
    ShardAttachError,
    WorkerCrash,
    WorkerTimeout,
)
from .histogram import HistogramArrayStore, HistogramSpace
from .kernels import check_kernel_choice, run_kernel
from .mp import process_context, terminate_pool
from .rangequery import range_search
from .rounds import _Route, round_stats, run_rounds
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
    WindowMatch,
    refine_windows,
    window_route,
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
    """One attached shard: database view, injected artifacts, query cache.

    ``shared_value`` is the cooperative k-th-best bound (``None`` when
    the start method cannot share it); :meth:`refine` re-reads it.
    """

    def __init__(
        self, manifest: Dict[str, object], meta: Dict[str, object], shared_value
    ) -> None:
        self.shared_value = shared_value
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
        members: List[int],
        threshold: float,
        spec: str,
        digest: str,
        query_points: np.ndarray,
        early_abandon: bool,
        exact_positions: List[int],
        batch_size: int,
        kernel: str,
    ) -> List[Tuple[str, float]]:
        """Staged exact bounds + EDR for one round's shard group.

        Every member already passed all quick bounds at ``threshold``
        (the coordinator pruned the rest), so the work here is: the
        exact stage of each two-stage pruner in ``exact_positions``
        (chain order), then the ``kernel`` EDR batches over the
        survivors, length-bucketed.  Outcomes align with ``members``: ``("p", i)``
        — pruned by the exact stage of chain position ``i`` — or
        ``("d", distance)`` with ``inf`` marking an early abandon.

        With ``early_abandon`` the EDR budget is ``threshold`` tightened
        by the shared cooperative bound, re-read at every bucket
        boundary; both only shrink below the frozen round threshold, so
        abandonments stay sound.

        Every kernel returns byte-identical distances, so ``kernel``
        cannot change any outcome.
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
            lengths = self.database.lengths[survivors]
            for bucket in iter_length_buckets(lengths, batch_size):
                bound = None
                if early_abandon:
                    limit = threshold
                    if self.shared_value is not None:
                        limit = min(limit, float(self.shared_value.value))
                    bound = limit if np.isfinite(limit) else None
                indices = [survivors[int(position)] for position in bucket]
                candidates = [self.database.trajectories[i] for i in indices]
                distances = run_kernel(
                    kernel, query, candidates, self.database.epsilon, bounds=bound
                )
                for position, distance in zip(bucket, distances):
                    outcomes[survivor_slots[int(position)]] = ("d", float(distance))
        return outcomes  # type: ignore[return-value]

    def refine_windows(
        self,
        members: List[int],
        threshold: float,
        query_points: np.ndarray,
        lo: int,
        hi: int,
        batch_size: int,
        early_abandon: bool,
    ) -> List[Tuple[float, int, int, int, int]]:
        """Best banded window of each member, against the shard view
        (:func:`~repro.core.subtrajectory.refine_windows`).  No pruner
        state is involved: the coordinator evaluated the window bounds
        and the free-start filter itself."""
        trajectories = self.database.trajectories
        return refine_windows(
            query_points, [trajectories[i] for i in members],
            self.database.epsilon, lo, hi, threshold, batch_size, early_abandon,
        )

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
                runtime = _ShardRuntime(
                    shard["manifest"], shard["meta"], self.shared_value
                )
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


def _run_task(state: _WorkerState, inline: bool, shard_id: int, task, directives):
    """Run one shard task — a runtime method name, then its arguments —
    against ``state``'s runtime, honouring the fault directives."""
    _faults.apply(directives, inline=inline, drop=lambda: state.drop(shard_id))
    method, *args = task
    payload = getattr(state.runtime(shard_id), method)(*args)
    return _faults.wrap_result(payload, directives)


def _pool_task(shard_id, task, directives=()):
    return _run_task(_POOL_STATE, False, shard_id, task, directives)


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


#: Counters the coordinator sums over ``per_shard``.
_SUMMED_FIELDS = (
    "true_distance_computations",
    "windows_total",
    "windows_evaluated",
    "windows_pruned",
    "windows_abandoned",
)


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
        return self._execute(
            knn_search, self._whole_route, query, spec, refine_batch_size,
            k=k, early_abandon=early_abandon, edr_kernel=edr_kernel,
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
        return self._execute(
            range_search, self._whole_route, query, spec, refine_batch_size,
            radius=float(radius), early_abandon=early_abandon,
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
    ) -> Tuple[List[WindowMatch], ShardedSearchStats]:
        """Exact top-k banded-window search, byte-equal to the serial
        :func:`repro.core.subtrajectory.subknn_search` — answers and the
        window counters alike: both run the same route through the same
        round loop (the round engine never tightens a worker's bound
        mid-round, so abandonment decisions match)."""
        # The serial engine's route over the parent chain.  Window bounds
        # are single-stage static arrays, so the coordinator prices them
        # itself: no filter wave, and window tasks ship no pruner state.
        def build_route(query, spec, round_size, recovery, **params):
            return window_route(
                self._database, query, self._parent_chain(spec), round_size=round_size,
                **params,
            )

        return self._execute(
            _serial_subknn_search, build_route, query, spec, refine_batch_size,
            k=k, alpha=alpha, min_window=min_window, max_window=max_window,
            early_abandon=early_abandon,
        )

    # ------------------------------------------------------------------
    # The frozen-bound round engine
    # ------------------------------------------------------------------
    def _execute(
        self,
        serial: Callable,
        build_route: Callable[..., _Route],
        query: Trajectory,
        spec: Optional[str],
        refine_batch_size: Optional[int],
        **params,
    ) -> Tuple[list, ShardedSearchStats]:
        """One query through the rounds, or through its serial engine.

        ``build_route`` prices the query's bounds into a route;
        ``serial`` is the route's serial engine, rerun when a shard
        exhausts its retry budget.  Both take the route's ``params``.
        """
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
            route = build_route(query, spec, round_size, recovery, **params)
            per_shard = round_stats(route, self._starts)
            if self._value is not None:
                self._value.value = route.threshold()
            rounds = run_rounds(
                route, self._shard_ids, per_shard, round_size,
                lambda route, groups, threshold: self._dispatch_round(
                    route, groups, threshold, recovery
                ),
            )
            answer = route.answer()
            stats = ShardedSearchStats(
                database_size=len(self._database),
                per_shard=per_shard,
                rounds=rounds,
                shards=self.shards,
                start_method=self._start_method,
                kernel=route.kernel,
            )
            for shard_stats in per_shard:
                shard_stats.start_method = stats.start_method
                for name in _SUMMED_FIELDS:
                    setattr(stats, name, getattr(stats, name) + getattr(shard_stats, name))
                for name, count in shard_stats.pruned_by.items():
                    stats.pruned_by[name] = stats.pruned_by.get(name, 0) + count
            self._degraded = False
        except _ShardFailure:
            answer, stats = self._degrade(serial, query, spec, round_size, **params)
        for name in RECOVERY_FIELDS:
            setattr(stats, name, recovery[name])
            self._lifetime[name] += recovery[name]
        if stats.degraded:
            self._lifetime["degraded_queries"] += 1
        stats.elapsed_seconds = time.perf_counter() - start_time
        return answer, stats

    def _degrade(
        self,
        serial: Callable,
        query: Trajectory,
        spec: str,
        round_size: int,
        **params,
    ) -> Tuple[list, ShardedSearchStats]:
        """Last resort: rerun the whole query on the serial engine.

        The serial engines are pure functions of the database and the
        query, so the answer is exact regardless of what the sharded
        attempt got through before failing; its partial per-shard
        tallies are discarded and every :class:`SearchStats` field of
        the returned stats is the serial engine's own (marked
        ``degraded``).
        """
        answer, serial_stats = serial(
            self._database, query, pruners=self._parent_chain(spec),
            refine_batch_size=round_size, **params
        )
        self._degraded = True
        copied = {f.name: getattr(serial_stats, f.name) for f in fields(SearchStats)}
        copied["start_method"] = self._start_method
        return answer, ShardedSearchStats(
            **copied, shards=self.shards, degraded=True
        )

    def _whole_route(
        self,
        query: Trajectory,
        spec: str,
        round_size: int,
        recovery: Dict[str, int],
        early_abandon: bool,
        edr_kernel: Optional[str],
        k: Optional[int] = None,
        radius: Optional[float] = None,
    ) -> _Route:
        """The k-NN (``k``) or range (``radius``) route.  A filter wave
        gathers every static pruner's bulk quick bounds shard-parallel."""
        result = None if k is None else _ResultList(k)
        kernel = check_kernel_choice(edr_kernel)
        query_pruners = [
            pruner.for_query(query) for pruner in self._parent_chain(spec)
        ]
        query_points = np.ascontiguousarray(query.points)
        digest = hashlib.sha1(query_points.tobytes()).hexdigest()

        shard_quick = self._dispatch(
            "filter",
            {
                shard_id: ("filter", spec, digest, query_points)
                for shard_id in range(self.shards)
            },
            recovery,
        )
        quick: List[Optional[np.ndarray]] = [
            None
            if query_pruner.dynamic
            else np.concatenate(
                [shard_quick[s][position] for s in range(self.shards)]
            )
            for position, query_pruner in enumerate(query_pruners)
        ]
        if quick and quick[0] is not None:
            order_keys = quick[0]
        elif query_pruners:
            # Dynamic primary: order by its initial (pre-scan) bounds,
            # exactly like the serial sorted engine's frozen array.
            order_keys = np.asarray(
                query_pruners[0].bulk_quick_lower_bounds(), dtype=np.float64
            )
        else:
            order_keys = np.zeros(len(self._database), dtype=np.float64)
        exact_positions = [
            position
            for position, query_pruner in enumerate(query_pruners)
            if quick[position] is not None
            and query_pruner.two_stage
            and query_pruner.exact_stage_cheap
        ]
        return _Route(
            query_pruners,
            quick,
            order_keys,
            result,
            (
                spec, digest, query_points, early_abandon, exact_positions,
                round_size, kernel,
            ),
            radius=radius,
            kernel=kernel,
        )

    # ------------------------------------------------------------------
    # Dispatch (process pool or inline), with bounded recovery
    # ------------------------------------------------------------------
    def _directives_for(self, point: str, shard_id: int) -> Tuple[Fault, ...]:
        if self.fault_plan is None:
            return ()
        return self.fault_plan.directives(point, shard_id)

    def _submit(self, shard_id: int, task: tuple, directives):
        return self._pool_for(shard_id).submit(_pool_task, shard_id, task, directives)

    def _inline_execute(self, point: str, shard_id: int, task: tuple, directives):
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
        return _run_task(self._inline_state, True, shard_id, task, directives)

    def _attempt(
        self,
        point: str,
        shard_id: int,
        task: tuple,
        future=None,
        deadline: Optional[float] = None,
    ):
        """One execution of a shard task; verified payload or raise."""
        if future is None:
            directives = self._directives_for(point, shard_id)
            if self.mode == "inline":
                wrapped = self._inline_execute(point, shard_id, task, directives)
            else:
                wrapped = self._submit(shard_id, task, directives).result(
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
        task: tuple,
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
                    point, shard_id, task, future=future, deadline=deadline
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
                    shard_id, tasks[shard_id], directives
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

    def _dispatch_round(
        self,
        route: _Route,
        groups: Dict[int, List[int]],
        threshold: float,
        recovery: Dict[str, int],
    ) -> Dict[int, list]:
        """Run one round's shard groups as the ``refine`` wave.

        Offers into the canonical result list are commutative, so they
        happen as each shard's verified payload lands — and a
        republishing route then tightens the shared bound at once,
        shrinking still-running shards' early-abandon budget mid-round.
        Everything order-sensitive (stats, records) waits for the
        caller's deterministic pass.
        """

        def merge(shard_id: int, shard_outcomes) -> None:
            for candidate, outcome in zip(groups[shard_id], shard_outcomes):
                route.offer(candidate, outcome)
            if route.republish and self._value is not None:
                best = route.threshold()
                if best < self._value.value:
                    self._value.value = best

        tasks = {
            shard_id: (
                route.method,
                [c - int(self._starts[shard_id]) for c in members],
                threshold,
            )
            + route.args
            for shard_id, members in groups.items()
        }
        return self._dispatch("refine", tasks, recovery, merge=merge)

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

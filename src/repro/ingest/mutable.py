"""Mutable database: a base generation plus an incrementally-indexed delta.

:class:`MutableDatabase` wraps one immutable base generation (a plain
:class:`~repro.core.database.TrajectoryDatabase` or a tiered store's
database shell) and accepts ``insert`` / ``delete`` mutations.  Queries
run against :meth:`MutableDatabase.view` — a
:class:`~repro.core.database.TrajectoryDatabase` subclass over the
merged logical corpus whose artifact accessors assemble the pruning
artifacts *incrementally*:

* **Q-gram stores** — per-trajectory sorted mean arrays are reused from
  the base generation for surviving members and computed once per
  inserted trajectory (cached across view rebuilds); the pooled flat
  arrays rebuild deterministically from that merged list, exactly as a
  cold build would.
* **Histogram count matrices** — per-trajectory histogram dicts are
  reused whenever the merged corpus' grid origin equals the base's, and
  recomputed (then cached per origin) when an insert or delete moves
  the corpus minimum — the one case where the cold build's grid anchor
  shifts.
* **NTI reference columns** — EDR columns are maintained as a
  uid-keyed symmetric distance cache seeded from the base generation's
  column store; a view's column materializes from cache entries plus
  batched EDR calls for delta members only.

Because every pruner family captures its artifacts from the database at
construction time, byte-identical artifacts imply byte-identical
answers *and* byte-identical per-pruner counters versus a cold-built
database over the same logical corpus — the exactness oracle the ingest
tests assert across engines, compaction boundaries, and shard counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.database import TrajectoryDatabase
from ..core.edr_batch import edr_many_bucketed
from ..core.histogram import HistogramSpace
from ..core.qgram import mean_value_qgrams
from ..core.trajectory import Trajectory
from ..index.mergejoin import sort_means_1d, sort_means_2d
from .wal import DeltaLog

__all__ = ["MutableDatabase"]

_EMPTY = object()  # sentinel for "empty trajectory" in the minima cache


class _MergedTrajectoryList:
    """The merged logical corpus: surviving base rows, then inserts.

    Base members are read through the base generation's own trajectory
    sequence (mmap-paged for tiered stores), so the merged view adds no
    resident copy of the base corpus.
    """

    def __init__(
        self,
        base_trajectories,
        kept_positions: np.ndarray,
        inserts: List[Trajectory],
    ) -> None:
        self._base = base_trajectories
        self._kept = kept_positions
        self._inserts = inserts

    def __len__(self) -> int:
        return len(self._kept) + len(self._inserts)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Trajectory, List[Trajectory]]:
        if isinstance(index, slice):
            return self.fetch_many(range(*index.indices(len(self))))
        if index < 0:
            index += len(self)
        if index < len(self._kept):
            return self._base[int(self._kept[index])]
        return self._inserts[index - len(self._kept)]

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    def fetch_many(self, indices: Sequence[int]) -> List[Trajectory]:
        """Batched fetch preserving order; base rows use the base's
        readahead path when it has one."""
        boundary = len(self._kept)
        base_slots = [i for i, idx in enumerate(indices) if idx < boundary]
        out: List[Optional[Trajectory]] = [None] * len(indices)
        if base_slots:
            base_positions = [int(self._kept[indices[i]]) for i in base_slots]
            fetch = getattr(self._base, "fetch_many", None)
            rows = (
                fetch(base_positions)
                if fetch is not None
                else [self._base[p] for p in base_positions]
            )
            for slot, row in zip(base_slots, rows):
                out[slot] = row
        for i, idx in enumerate(indices):
            if idx >= boundary:
                out[i] = self._inserts[idx - boundary]
        return out  # type: ignore[return-value]


class _MergedView(TrajectoryDatabase):
    """A database over the merged corpus with incremental artifacts.

    Instances are built only through :meth:`MutableDatabase.view`; the
    overridden accessors delegate per-trajectory artifact work to the
    owning :class:`MutableDatabase`'s uid-keyed caches.  Derived
    artifacts (flat Q-gram pools, histogram array stores, trees, kernel
    tables) inherit the stock lazy builders, which consume the
    overridden accessors — the same code path a cold build runs.
    """

    _owner: "MutableDatabase"
    _uids: List[int]

    # -- Q-gram artifacts ----------------------------------------------
    def sorted_qgram_means(self, q: int) -> List[np.ndarray]:
        if q not in self._sorted_means_2d:
            self._sorted_means_2d[q] = [
                self._owner._qgram_row(q, None, uid, self.trajectories[pos])
                for pos, uid in enumerate(self._uids)
            ]
        return self._sorted_means_2d[q]

    def sorted_qgram_means_1d(self, q: int, axis: int = 0) -> List[np.ndarray]:
        key = (q, axis)
        if key not in self._sorted_means_1d:
            self._sorted_means_1d[key] = [
                self._owner._qgram_row(q, axis, uid, self.trajectories[pos])
                for pos, uid in enumerate(self._uids)
            ]
        return self._sorted_means_1d[key]

    # -- Histogram artifacts -------------------------------------------
    def histograms(self, delta: float = 1.0, axis: Optional[int] = None):
        if delta < 1.0:
            raise ValueError(
                "bin size below epsilon breaks the HD lower bound (Corollary 1)"
            )
        key = (float(delta), axis)
        if key not in self._histograms:
            bin_size = delta * self.epsilon
            if bin_size <= 0.0:
                raise ValueError("histograms need a positive epsilon")
            minima = self._owner._merged_minima(self)
            origin = minima if axis is None else minima[axis : axis + 1]
            space = HistogramSpace(origin, bin_size)
            built = [
                self._owner._histogram_row(
                    float(delta), axis, space, uid, self.trajectories[pos]
                )
                for pos, uid in enumerate(self._uids)
            ]
            self._histograms[key] = (space, built)
        return self._histograms[key]

    # -- Near-triangle artifacts ---------------------------------------
    def reference_columns(
        self,
        max_references: int = 400,
        policy: str = "first",
        workers: Optional[int] = None,
    ) -> Dict[int, np.ndarray]:
        count = min(max_references, len(self.trajectories))
        key = (count, policy)
        if key not in self._reference_columns:
            if policy == "first":
                indices = list(range(count))
            elif policy == "short":
                indices = [
                    int(i)
                    for i in np.argsort(self.lengths, kind="stable")[:count]
                ]
            else:
                raise ValueError(f"unknown reference policy {policy!r}")
            for index in indices:
                if index not in self._reference_column_store:
                    self._reference_column_store[index] = (
                        self._owner._reference_column(self, index)
                    )
            self._reference_columns[key] = {
                index: self._reference_column_store[index] for index in indices
            }
        return self._reference_columns[key]


class MutableDatabase:
    """Insert/delete over a base generation, queryable through a merged view.

    Parameters
    ----------
    base:
        The immutable base generation: a
        :class:`~repro.core.database.TrajectoryDatabase` or a
        :class:`~repro.storage.tiered.TieredDatabase` (whose shell
        database is used; the handle is closed by :meth:`close`).
    base_uids:
        Stable ids of the base members in database order; defaults to
        ``0..N-1`` for a fresh corpus.
    next_uid:
        First id handed to an insert; defaults to one past the largest
        base uid.
    log:
        Optional :class:`~repro.ingest.wal.DeltaLog`.  When attached,
        every :meth:`insert` / :meth:`delete` is appended to the log
        *before* it is applied, so a crash can never lose an
        acknowledged mutation.
    generation:
        Name of the base generation (for cache/epoch tokens).
    """

    def __init__(
        self,
        base,
        *,
        base_uids: Optional[Sequence[int]] = None,
        next_uid: Optional[int] = None,
        log: Optional[DeltaLog] = None,
        generation: str = "gen-000000",
    ) -> None:
        self._base_handle = None
        database = getattr(base, "database", None)
        if database is not None and not isinstance(base, TrajectoryDatabase):
            self._base_handle = base  # a TieredDatabase-like owner
            base = database
        self.base: TrajectoryDatabase = base
        self.generation = str(generation)
        self.log = log
        uids = (
            list(range(len(base)))
            if base_uids is None
            else [int(u) for u in base_uids]
        )
        if len(uids) != len(base):
            raise ValueError("base_uids must cover every base trajectory")
        self._base_uids: List[int] = uids
        self._base_pos: Dict[int, int] = {u: p for p, u in enumerate(uids)}
        if len(self._base_pos) != len(uids):
            raise ValueError("base_uids must be unique")
        self._deleted_base: set = set()
        self._inserts: Dict[int, Trajectory] = {}  # uid -> trajectory, in order
        self._next_uid = (
            (max(uids) + 1 if uids else 0) if next_uid is None else int(next_uid)
        )
        self.applied_seq = 0
        self.mutations = 0
        self._view: Optional[_MergedView] = None
        # Per-trajectory incremental artifact caches, all keyed by uid —
        # stable across deletes, compactions, and view rebuilds.  Histogram
        # rows also depend on the grid origin, so each (delta, axis) keeps
        # the rows of its current origin only.
        self._qgram_cache: Dict[Tuple[int, Optional[int]], Dict[int, np.ndarray]] = {}
        self._hist_cache: Dict[
            Tuple[float, Optional[int]], Tuple[bytes, Dict[int, dict]]
        ] = {}
        self._nti_cache: Dict[int, Dict[int, float]] = {}
        self._nti_seeded: set = set()
        self._minima_cache: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return self.base.ndim

    @property
    def epsilon(self) -> float:
        return self.base.epsilon

    @property
    def next_uid(self) -> int:
        return self._next_uid

    @property
    def delta_size(self) -> int:
        """Mutations not yet folded: live inserts plus base deletes."""
        return len(self._inserts) + len(self._deleted_base)

    @property
    def token(self) -> str:
        """Identifies the logical corpus this instance currently serves."""
        return f"{self.generation}:{self.applied_seq}:{self.mutations}"

    def __len__(self) -> int:
        return len(self._base_uids) - len(self._deleted_base) + len(self._inserts)

    def live_uids(self) -> List[int]:
        """Stable ids of the merged corpus, in logical database order."""
        return [
            u for u in self._base_uids if u not in self._deleted_base
        ] + list(self._inserts)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, trajectory, *, label: Optional[str] = None) -> int:
        """Insert one trajectory; returns its stable id."""
        if not isinstance(trajectory, Trajectory):
            trajectory = Trajectory(np.asarray(trajectory, dtype=np.float64))
        if trajectory.ndim != self.ndim:
            raise ValueError(
                f"trajectory arity {trajectory.ndim} does not match "
                f"database arity {self.ndim}"
            )
        record: Dict[str, object] = {
            "op": "insert",
            "uid": self._next_uid,
            "points": trajectory.points.tolist(),
        }
        resolved_label = label if label is not None else trajectory.label
        if resolved_label is not None:
            record["label"] = str(resolved_label)
        if self.log is not None:
            record = self.log.append(record)
            self.applied_seq = int(record["seq"])
        self._apply(record)
        return int(record["uid"])

    def delete(self, uid: int) -> None:
        """Delete one trajectory by stable id (KeyError if not live)."""
        uid = int(uid)
        if uid not in self._inserts and (
            uid not in self._base_pos or uid in self._deleted_base
        ):
            raise KeyError(f"no live trajectory with id {uid}")
        record: Dict[str, object] = {"op": "delete", "uid": uid}
        if self.log is not None:
            record = self.log.append(record)
            self.applied_seq = int(record["seq"])
        self._apply(record)

    def apply_record(self, record: Dict[str, object]) -> bool:
        """Replay one WAL record; no-op (False) if already applied."""
        seq = int(record.get("seq", 0))
        if seq and seq <= self.applied_seq:
            return False
        self._apply(record)
        if seq:
            self.applied_seq = seq
        return True

    def _apply(self, record: Dict[str, object]) -> None:
        op = record["op"]
        uid = int(record["uid"])
        if op == "insert":
            points = np.asarray(record["points"], dtype=np.float64)
            self._inserts[uid] = Trajectory(
                points, label=record.get("label"), trajectory_id=uid
            )
            self._next_uid = max(self._next_uid, uid + 1)
        elif op == "delete":
            if uid in self._inserts:
                del self._inserts[uid]
            elif uid in self._base_pos and uid not in self._deleted_base:
                self._deleted_base.add(uid)
            else:
                raise KeyError(f"no live trajectory with id {uid}")
        else:
            raise ValueError(f"unknown WAL op {op!r}")
        self.mutations += 1
        self._view = None

    # ------------------------------------------------------------------
    # The merged view
    # ------------------------------------------------------------------
    def view(self) -> TrajectoryDatabase:
        """A queryable database over the merged corpus (cached until the
        next mutation)."""
        if self._view is None:
            kept_uids = [
                u for u in self._base_uids if u not in self._deleted_base
            ]
            uids = kept_uids + list(self._inserts)
            if not uids:
                raise ValueError("a trajectory database cannot be empty")
            kept_positions = np.array(
                [self._base_pos[u] for u in kept_uids], dtype=np.int64
            )
            inserts = list(self._inserts.values())
            trajectories = _MergedTrajectoryList(
                self.base.trajectories, kept_positions, inserts
            )
            base_lengths = np.asarray(self.base.lengths)[kept_positions]
            lengths = np.concatenate(
                [
                    base_lengths.astype(np.int64, copy=False),
                    np.array([len(t) for t in inserts], dtype=np.int64),
                ]
            )
            view = _MergedView._shell(
                trajectories, self.ndim, self.epsilon, lengths
            )
            view._owner = self
            view._uids = uids
            self._view = view
        return self._view

    def snapshot(self) -> Tuple[List[Trajectory], List[int]]:
        """The merged corpus materialized, with its stable ids — the
        compactor's fold input."""
        view = self.view()
        return list(view.trajectories), list(view._uids)

    def close(self) -> None:
        if self._base_handle is not None:
            self._base_handle.close()
            self._base_handle = None

    # ------------------------------------------------------------------
    # Incremental artifact rows (uid-keyed, reused across views)
    # ------------------------------------------------------------------
    def _qgram_row(
        self, q: int, axis: Optional[int], uid: int, trajectory: Trajectory
    ) -> np.ndarray:
        cache = self._qgram_cache.setdefault((q, axis), {})
        row = cache.get(uid)
        if row is None:
            base_pos = self._base_pos.get(uid)
            if base_pos is not None and self._base_has_qgrams(q, axis):
                if axis is None:
                    row = self.base.sorted_qgram_means(q)[base_pos]
                else:
                    row = self.base.sorted_qgram_means_1d(q, axis)[base_pos]
            elif axis is None:
                row = sort_means_2d(mean_value_qgrams(trajectory, q))
            else:
                row = sort_means_1d(
                    mean_value_qgrams(trajectory.projection(axis), q)
                )
            cache[uid] = row
        return row

    def _base_has_qgrams(self, q: int, axis: Optional[int]) -> bool:
        if axis is None:
            return q in self.base._sorted_means_2d
        return (q, axis) in self.base._sorted_means_1d

    def _histogram_row(
        self,
        delta: float,
        axis: Optional[int],
        space: HistogramSpace,
        uid: int,
        trajectory: Trajectory,
    ) -> dict:
        origin = space.origin.tobytes()
        cached_origin, cache = self._hist_cache.get((delta, axis), (None, None))
        if cached_origin != origin:
            # An insert or delete moved the corpus minimum: rows binned on
            # the old origin would otherwise be kept for the process life.
            cache = {}
            self._hist_cache[(delta, axis)] = (origin, cache)
        row = cache.get(uid)
        if row is None:
            base_pos = self._base_pos.get(uid)
            base_row = None
            if base_pos is not None:
                built = self.base._histograms.get((delta, axis))
                if built is not None:
                    base_space, base_rows = built
                    if (
                        base_space.bin_size == space.bin_size
                        and np.array_equal(base_space.origin, space.origin)
                    ):
                        base_row = dict(base_rows[base_pos])
            if base_row is not None:
                row = base_row
            else:
                row = space.histogram(
                    trajectory if axis is None else trajectory.projection(axis)
                )
            cache[uid] = row
        return row

    def _minimum_of(self, uid: int, trajectory: Trajectory):
        cached = self._minima_cache.get(uid)
        if cached is None:
            cached = (
                trajectory.bounds()[0] if len(trajectory) > 0 else _EMPTY
            )
            self._minima_cache[uid] = cached
        return None if cached is _EMPTY else cached

    def _merged_minima(self, view: _MergedView) -> np.ndarray:
        rows = []
        for pos, uid in enumerate(view._uids):
            minimum = self._minimum_of(uid, view.trajectories[pos])
            if minimum is not None:
                rows.append(minimum)
        if not rows:
            raise ValueError("need at least one trajectory to anchor the space")
        return np.min(rows, axis=0)

    def _reference_column(
        self, view: _MergedView, reference_position: int
    ) -> np.ndarray:
        """One merged-order EDR column, from the symmetric uid cache.

        Entries come, in order of preference, from the cache, the base
        generation's column store (position-translated), or a single
        batched EDR call over the still-unknown members.  EDR values are
        exact integers in float64 and identical across kernels, so every
        source yields the byte the cold build would compute.
        """
        uids = view._uids
        ref_uid = uids[reference_position]
        cache = self._nti_cache.setdefault(ref_uid, {})
        cache.setdefault(ref_uid, 0.0)
        if ref_uid not in self._nti_seeded:
            base_pos = self._base_pos.get(ref_uid)
            if base_pos is not None:
                column = self.base._reference_column_store.get(base_pos)
                if column is not None:
                    column = np.asarray(column, dtype=np.float64)
                    for uid, pos in self._base_pos.items():
                        cache.setdefault(uid, float(column[pos]))
            self._nti_seeded.add(ref_uid)
        unknown = [uid for uid in uids if uid not in cache]
        if unknown:
            positions = {uid: pos for pos, uid in enumerate(uids)}
            reference = view.trajectories[reference_position]
            members = [view.trajectories[positions[uid]] for uid in unknown]
            distances = edr_many_bucketed(reference, members, self.epsilon)
            for uid, distance in zip(unknown, distances):
                value = float(distance)
                cache[uid] = value
                self._nti_cache.setdefault(uid, {})[ref_uid] = value
        return np.array([cache[uid] for uid in uids], dtype=np.float64)

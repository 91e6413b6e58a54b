"""Mutable database: a base generation plus an incrementally-indexed delta.

:class:`MutableDatabase` wraps one immutable base generation (a plain
:class:`~repro.core.database.TrajectoryDatabase` or a tiered store's
database shell) and accepts ``insert`` / ``delete`` mutations.  Queries
run against :meth:`MutableDatabase.view` — a
:class:`~repro.core.database.TrajectoryDatabase` subclass over the
merged logical corpus whose artifact accessors assemble the pruning
artifacts *incrementally*:

* **Q-gram stores** — each view derives its per-trajectory sorted
  means and pooled flat arrays from the previous view's (seeded from
  the base generation): deleted rows are masked out and only inserted
  trajectories are computed and merged into the pool.
* **Histogram count matrices** — each view derives its dict histograms
  and CSR store from the previous view's while the grid origin (the
  corpus minimum) stays put: kept rows are sliced out of the CSR and
  only inserted rows are binned.  When an insert or delete moves the
  origin, every row is binned afresh — the one case where the cold
  build's grid anchor shifts — unless the origin is back on the base
  generation's, whose rows and store are then the starting point.
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

from itertools import compress
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.database import TrajectoryDatabase
from ..core.edr_batch import edr_many_bucketed
from ..core.histogram import HistogramArrayStore, HistogramSpace
from ..core.qgram import mean_value_qgrams
from ..core.trajectory import Trajectory
from ..index.mergejoin import (
    extend_sorted_means,
    flatten_sorted_means,
    sort_means_1d,
    sort_means_2d,
)
from .wal import DeltaLog

__all__ = ["MutableDatabase"]


class _HistogramState(NamedTuple):
    """One histogram variant of the last view that built it."""

    origin: bytes  # the grid origin every row is binned on
    uids: np.ndarray  # row order
    rows: Sequence[dict]  # per-row dict histograms
    store: HistogramArrayStore


class _QgramState(NamedTuple):
    """One Q-gram variant of the last view that built it."""

    uids: np.ndarray  # row order
    rows: Sequence[np.ndarray]  # per-row sorted means
    pool: Optional[Tuple[np.ndarray, np.ndarray]]  # pooled (values, owners)


def _survivors(previous: np.ndarray, uids: np.ndarray) -> Optional[np.ndarray]:
    """Mask of the ``previous`` rows that survive into ``uids``.

    A view lists the kept base rows in base order, then the inserts in
    insert order, so from one view to the next the survivors keep their
    relative order and new uids only append.  Returns ``None`` when
    ``uids`` does not start with exactly the survivors, in order — then
    nothing can be carried over.
    """
    keep = np.isin(previous, uids)
    kept = int(np.count_nonzero(keep))
    if not np.array_equal(previous[keep], uids[:kept]):
        return None
    return keep


def _carried(states, uids: np.ndarray):
    """The first of ``states`` whose rows carry over into ``uids``, with
    its survivor mask; ``(None, None)`` when none does."""
    for state in states:
        if state is not None:
            keep = _survivors(state.uids, uids)
            if keep is not None:
                return state, keep
    return None, None


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
    overridden Q-gram and histogram accessors take their artifacts from
    the owning :class:`MutableDatabase`, which derives them from the
    previous view's.  The other artifacts (trees, kernel tables) inherit
    the stock lazy builders, which consume the overridden accessors —
    the same code path a cold build runs.
    """

    _owner: "MutableDatabase"
    _uids: List[int]
    _uid_array: np.ndarray

    # -- Q-gram artifacts ----------------------------------------------
    def sorted_qgram_means(self, q: int) -> List[np.ndarray]:
        if q not in self._sorted_means_2d:
            self._sorted_means_2d[q] = self._owner._qgram_state(
                self, q, None, pooled=False
            ).rows
        return self._sorted_means_2d[q]

    def sorted_qgram_means_1d(self, q: int, axis: int = 0) -> List[np.ndarray]:
        key = (q, axis)
        if key not in self._sorted_means_1d:
            self._sorted_means_1d[key] = self._owner._qgram_state(
                self, q, axis, pooled=False
            ).rows
        return self._sorted_means_1d[key]

    def flat_qgram_means(self, q: int) -> Tuple[np.ndarray, np.ndarray]:
        if q not in self._flat_means_2d:
            self._flat_means_2d[q] = self._owner._qgram_state(
                self, q, None, pooled=True
            ).pool
        return self._flat_means_2d[q]

    def flat_qgram_means_1d(
        self, q: int, axis: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        key = (q, axis)
        if key not in self._flat_means_1d:
            self._flat_means_1d[key] = self._owner._qgram_state(
                self, q, axis, pooled=True
            ).pool
        return self._flat_means_1d[key]

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
            state = self._owner._histogram_state(self, key, space)
            self._histograms[key] = (space, state.rows)
            self._histogram_arrays[key] = state.store
        return self._histograms[key]

    def histogram_arrays(
        self, delta: float = 1.0, axis: Optional[int] = None
    ) -> HistogramArrayStore:
        self.histograms(delta=delta, axis=axis)
        return self._histogram_arrays[(float(delta), axis)]

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
        self._base_uid_array = np.asarray(uids, dtype=np.int64)
        # The artifacts of the last view that built them, row-aligned
        # with that view's uids; the next view derives its own from them.
        # Histogram rows also depend on the grid origin, so each
        # (delta, axis) holds the rows and store of one origin only.
        # States are immutable tuples replaced whole and checked against
        # the view's uids before use, so views built out of order cost a
        # rebuild, never a wrong row.
        self._qgram_cache: Dict[Tuple[int, Optional[int]], _QgramState] = {}
        self._hist_cache: Dict[Tuple[float, Optional[int]], _HistogramState] = {}
        self._minima: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # NTI distances, keyed by uid pair — stable across deletes,
        # compactions, and view rebuilds.
        self._nti_cache: Dict[int, Dict[int, float]] = {}
        self._nti_seeded: set = set()

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
            # The reshape keeps an empty insert's arity ("points": []).
            points = np.asarray(record["points"], dtype=np.float64).reshape(
                -1, self.ndim
            )
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
            view._uid_array = np.asarray(uids, dtype=np.int64)
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
    # Derived artifacts (each view starts from the previous view's)
    # ------------------------------------------------------------------
    def _qgram_state(
        self, view: _MergedView, q: int, axis: Optional[int], *, pooled: bool
    ) -> _QgramState:
        """The view's sorted Q-gram means, and with ``pooled`` its pool.

        Rows surviving from the previous view (or, failing that, from
        the base generation) are reused; only rows new to this view are
        computed.  The pool is carried along whenever that source had
        one, with deleted owners dropped and the new rows merged in.
        """
        key = (q, axis)
        uids = view._uid_array
        state = self._qgram_cache.get(key)
        if state is None or state.uids is not uids:
            state, keep = _carried(
                (state, self._base_qgram_state(q, axis)), uids
            )
            if state is None:
                rows, pool = [], None
            else:
                rows, pool = list(compress(state.rows, keep.tolist())), state.pool
            fresh = [
                sort_means_2d(mean_value_qgrams(trajectory, q))
                if axis is None
                else sort_means_1d(
                    mean_value_qgrams(trajectory.projection(axis), q)
                )
                for trajectory in view.trajectories[len(rows) :]
            ]
            if pool is not None:
                pool = extend_sorted_means(pool, keep, fresh)
            state = _QgramState(uids, rows + fresh, pool)
        if pooled and state.pool is None:
            state = state._replace(pool=flatten_sorted_means(state.rows))
        self._qgram_cache[key] = state
        return state

    def _base_qgram_state(
        self, q: int, axis: Optional[int]
    ) -> Optional[_QgramState]:
        """The base generation's Q-gram artifacts, when it has built them."""
        if axis is None:
            rows = self.base._sorted_means_2d.get(q)
            pool = self.base._flat_means_2d.get(q)
        else:
            rows = self.base._sorted_means_1d.get((q, axis))
            pool = self.base._flat_means_1d.get((q, axis))
        if rows is None:
            return None
        return _QgramState(self._base_uid_array, rows, pool)

    def _histogram_state(
        self,
        view: _MergedView,
        key: Tuple[float, Optional[int]],
        space: HistogramSpace,
    ) -> _HistogramState:
        """The view's dict histograms and CSR store on ``space``.

        While the grid origin stays put, rows surviving from the previous
        view (or from the base generation, when the origin is back on
        the base's) are reused and sliced out of its store, and only rows
        new to this view are binned.  When the origin moved elsewhere,
        every row is binned on the new one.
        """
        axis = key[1]
        origin = space.origin.tobytes()
        uids = view._uid_array
        state, keep = _carried(
            (
                candidate
                for candidate in (
                    self._hist_cache.get(key),
                    self._base_histogram_state(key),
                )
                if candidate is not None and candidate.origin == origin
            ),
            uids,
        )
        rows = [] if state is None else list(compress(state.rows, keep.tolist()))
        fresh = [
            space.histogram(
                trajectory if axis is None else trajectory.projection(axis)
            )
            for trajectory in view.trajectories[len(rows) :]
        ]
        if state is None:
            store = HistogramArrayStore(fresh, space.ndim)
        else:
            store = state.store.derive(keep, fresh)
        state = _HistogramState(origin, uids, rows + fresh, store)
        self._hist_cache[key] = state
        return state

    def _base_histogram_state(
        self, key: Tuple[float, Optional[int]]
    ) -> Optional[_HistogramState]:
        """The base generation's histogram artifacts, when it has built them."""
        built = self.base._histograms.get(key)
        store = self.base._histogram_arrays.get(key)
        if built is None or store is None:
            return None
        space, rows = built
        return _HistogramState(
            space.origin.tobytes(), self._base_uid_array, rows, store
        )

    def _merged_minima(self, view: _MergedView) -> np.ndarray:
        """The view's per-axis corpus minimum (the histogram grid origin),
        from per-row minima carried over from the previous view."""
        uids = view._uid_array
        if self._minima is None or self._minima[0] is not uids:
            keep = None if self._minima is None else _survivors(self._minima[0], uids)
            kept = (
                np.empty((0, self.ndim)) if keep is None else self._minima[1][keep]
            )
            fresh = [
                trajectory.bounds()[0]
                if len(trajectory) > 0
                else np.full(self.ndim, np.inf)
                for trajectory in view.trajectories[len(kept) :]
            ]
            self._minima = (
                uids,
                np.concatenate([kept, np.reshape(fresh, (-1, self.ndim))]),
            )
        occupied = np.asarray(view.lengths) > 0
        if not occupied.any():
            raise ValueError("need at least one trajectory to anchor the space")
        return self._minima[1][occupied].min(axis=0)

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

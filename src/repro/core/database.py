"""Trajectory database with prebuilt pruning artifacts.

:class:`TrajectoryDatabase` owns a list of trajectories, a matching
threshold ε, and lazily-built, cached artifacts for each pruning method
of Section 4:

* sorted mean-value Q-grams (2-D pairs and per-axis 1-D projections),
* an R-tree over all 2-D Q-gram means and a B+-tree over 1-D means,
* trajectory histograms for any bin-size multiple δ·ε and per-axis 1-D
  histograms,
* near-triangle reference distance columns.

Everything is built once and shared across queries, which is how the
paper's speedup-ratio experiments are framed (index build time is
offline; query time is what is measured).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..index.bptree import BPlusTree
from ..index.mergejoin import flatten_sorted_means, sort_means_1d, sort_means_2d
from ..index.rtree import RTree
from .histogram import HistogramArrayStore, HistogramSpace, TrajectoryHistogram
from .neartriangle import build_reference_columns
from .qgram import mean_value_qgrams
from .trajectory import Trajectory

__all__ = ["TrajectoryDatabase"]

# Format 2: q=1 Q-gram means are the points verbatim (see mean_value_qgrams).
_MEANS_FORMAT = 2


class TrajectoryDatabase:
    """A searchable collection of trajectories under one matching threshold.

    Parameters
    ----------
    trajectories:
        The database contents.  Normalization is the caller's choice (the
        paper normalizes before everything else); the database stores
        what it is given.
    epsilon:
        The matching threshold ε used by EDR and by every pruning
        artifact derived from it.
    """

    def __init__(self, trajectories: Sequence[Trajectory], epsilon: float) -> None:
        if epsilon < 0.0:
            raise ValueError("matching threshold epsilon must be non-negative")
        self.trajectories: List[Trajectory] = list(trajectories)
        if not self.trajectories:
            raise ValueError("a trajectory database cannot be empty")
        arities = {t.ndim for t in self.trajectories}
        if len(arities) != 1:
            raise ValueError(f"mixed trajectory arities in database: {arities}")
        self.ndim = arities.pop()
        self.epsilon = float(epsilon)
        self.lengths = np.array([len(t) for t in self.trajectories])

        self._sorted_means_2d: Dict[int, List[np.ndarray]] = {}
        self._sorted_means_1d: Dict[Tuple[int, int], List[np.ndarray]] = {}
        self._flat_means_2d: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._flat_means_1d: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._rtrees: Dict[int, RTree] = {}
        self._bptrees: Dict[Tuple[int, int], BPlusTree] = {}
        self._histograms: Dict[
            Tuple[float, Optional[int]], Tuple[HistogramSpace, List[TrajectoryHistogram]]
        ] = {}
        self._histogram_arrays: Dict[Tuple[float, Optional[int]], HistogramArrayStore] = {}
        self._reference_columns: Dict[Tuple[int, str], Dict[int, np.ndarray]] = {}
        # One EDR column per reference index, shared by every
        # (max_references, policy) request that selects that reference,
        # so overlapping requests never recompute a column — and
        # reference-vs-reference pairs are filled in by symmetry.
        self._reference_column_store: Dict[int, np.ndarray] = {}

    @classmethod
    def _shell(
        cls,
        trajectories: Sequence[Trajectory],
        ndim: int,
        epsilon: float,
        lengths: np.ndarray,
    ) -> "TrajectoryDatabase":
        """A database shell around an externally-owned trajectory sequence.

        Used by the tiered storage layer (and the mmap-attached shard
        runtime) to wrap lazy, disk-backed trajectory lists without the
        constructor's eager full-corpus pass: ``trajectories`` may be any
        sequence supporting ``len`` and integer indexing.  All artifact
        caches start empty — the caller injects mmap-backed artifacts
        directly, and anything not injected builds lazily through the
        normal accessors (reading trajectories on demand).
        """
        database = cls.__new__(cls)
        database.trajectories = trajectories  # type: ignore[assignment]
        database.ndim = int(ndim)
        database.epsilon = float(epsilon)
        database.lengths = np.asarray(lengths)
        database._sorted_means_2d = {}
        database._sorted_means_1d = {}
        database._flat_means_2d = {}
        database._flat_means_1d = {}
        database._rtrees = {}
        database._bptrees = {}
        database._histograms = {}
        database._histogram_arrays = {}
        database._reference_columns = {}
        database._reference_column_store = {}
        return database

    def __len__(self) -> int:
        return len(self.trajectories)

    def rows(self, indices: Sequence[int]) -> List[Trajectory]:
        """Trajectories ``indices``, in order.  Disk-resident lists expose
        ``fetch_many`` for one batched, extent-ordered read; plain lists
        are indexed."""
        fetch_many = getattr(self.trajectories, "fetch_many", None)
        if fetch_many is not None:
            return fetch_many(indices)
        return [self.trajectories[index] for index in indices]

    @property
    def max_length(self) -> int:
        return int(self.lengths.max())

    # ------------------------------------------------------------------
    # Q-gram artifacts
    # ------------------------------------------------------------------
    def sorted_qgram_means(self, q: int) -> List[np.ndarray]:
        """Per-trajectory mean value pairs sorted on axis 0 (PS2 input)."""
        if q not in self._sorted_means_2d:
            self._sorted_means_2d[q] = [
                sort_means_2d(mean_value_qgrams(t, q)) for t in self.trajectories
            ]
        return self._sorted_means_2d[q]

    def sorted_qgram_means_1d(self, q: int, axis: int = 0) -> List[np.ndarray]:
        """Per-trajectory single-axis Q-gram means, sorted (PS1 input)."""
        key = (q, axis)
        if key not in self._sorted_means_1d:
            self._sorted_means_1d[key] = [
                sort_means_1d(mean_value_qgrams(t.projection(axis), q))
                for t in self.trajectories
            ]
        return self._sorted_means_1d[key]

    def qgram_rtree(self, q: int) -> RTree:
        """R-tree over every 2-D Q-gram mean; payload = trajectory index (PR)."""
        if q not in self._rtrees:
            tree = RTree(ndim=self.ndim)
            for index, trajectory in enumerate(self.trajectories):
                for mean in mean_value_qgrams(trajectory, q):
                    tree.insert(mean, index)
            self._rtrees[q] = tree
        return self._rtrees[q]

    def qgram_bptree(self, q: int, axis: int = 0) -> BPlusTree:
        """B+-tree over single-axis Q-gram means; payload = trajectory index (PB)."""
        key = (q, axis)
        if key not in self._bptrees:
            tree = BPlusTree()
            for index, trajectory in enumerate(self.trajectories):
                means = mean_value_qgrams(trajectory.projection(axis), q)
                for mean in means.ravel():
                    tree.insert(float(mean), index)
            self._bptrees[key] = tree
        return self._bptrees[key]

    def qgram_count(self, trajectory_index: int, q: int) -> int:
        """Number of Q-grams (``n - q + 1``, floored at zero) of one trajectory."""
        return max(0, int(self.lengths[trajectory_index]) - q + 1)

    def flat_qgram_means(self, q: int) -> Tuple[np.ndarray, np.ndarray]:
        """All 2-D Q-gram means pooled and sorted, with owner trajectory ids.

        The bulk merge-join kernel runs one ``searchsorted`` pass over
        this pool instead of one per-candidate join per database member.
        """
        if q not in self._flat_means_2d:
            self._flat_means_2d[q] = flatten_sorted_means(self.sorted_qgram_means(q))
        return self._flat_means_2d[q]

    def flat_qgram_means_1d(self, q: int, axis: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Single-axis pooled sorted Q-gram means with owner trajectory ids."""
        key = (q, axis)
        if key not in self._flat_means_1d:
            self._flat_means_1d[key] = flatten_sorted_means(
                self.sorted_qgram_means_1d(q, axis)
            )
        return self._flat_means_1d[key]

    # ------------------------------------------------------------------
    # Histogram artifacts
    # ------------------------------------------------------------------
    def histograms(
        self, delta: float = 1.0, axis: Optional[int] = None
    ) -> Tuple[HistogramSpace, List[TrajectoryHistogram]]:
        """Histogram space and per-trajectory histograms.

        ``delta`` scales the bin size to ``delta * epsilon`` (Theorem 7 /
        Corollary 1 require ``delta >= 1``); ``axis`` selects the 1-D
        per-axis variant of Corollary 1 (bin size stays ``delta * eps``).
        """
        if delta < 1.0:
            raise ValueError(
                "bin size below epsilon breaks the HD lower bound (Corollary 1)"
            )
        key = (float(delta), axis)
        if key not in self._histograms:
            bin_size = delta * self.epsilon
            if bin_size <= 0.0:
                raise ValueError("histograms need a positive epsilon")
            space = HistogramSpace.for_trajectories(
                self.trajectories, bin_size, axis=axis
            )
            built = [
                space.histogram(t if axis is None else t.projection(axis))
                for t in self.trajectories
            ]
            self._histograms[key] = (space, built)
        return self._histograms[key]

    def histogram_arrays(
        self, delta: float = 1.0, axis: Optional[int] = None
    ) -> HistogramArrayStore:
        """Array-backed (CSR) histogram store for one variant.

        Built from the same per-trajectory histograms as
        :meth:`histograms`; used by the bulk quick-bound kernels.
        """
        key = (float(delta), axis)
        if key not in self._histogram_arrays:
            space, built = self.histograms(delta=delta, axis=axis)
            self._histogram_arrays[key] = HistogramArrayStore(
                built, 1 if axis is not None else self.ndim
            )
        return self._histogram_arrays[key]

    # ------------------------------------------------------------------
    # Near-triangle artifacts
    # ------------------------------------------------------------------
    def reference_columns(
        self,
        max_references: int = 400,
        policy: str = "first",
        workers: Optional[int] = None,
    ) -> Dict[int, np.ndarray]:
        """Precomputed EDR columns for ``max_references`` reference trajectories.

        ``policy`` selects which trajectories become references:

        * ``"first"`` — the first trajectories in database order, the
          paper's own selection;
        * ``"short"`` — the shortest trajectories.  Theorem 5's bound is
          capped at ``len(query) - len(reference)`` (because
          ``EDR(R, S) >= |R| - |S|``), so short references are the only
          ones that can ever produce a strong bound — an improvement the
          paper leaves as future work ("finding a smaller suitable
          value").

        ``workers`` (when greater than 1) parallelizes the precompute of
        any columns not already cached over a process pool; the columns
        themselves are identical either way.
        """
        count = min(max_references, len(self.trajectories))
        key = (count, policy)
        if key not in self._reference_columns:
            if policy == "first":
                indices = list(range(count))
            elif policy == "short":
                indices = [int(i) for i in np.argsort(self.lengths, kind="stable")[:count]]
            else:
                raise ValueError(f"unknown reference policy {policy!r}")
            self._reference_column_store.update(
                build_reference_columns(
                    self.trajectories,
                    self.epsilon,
                    reference_indices=indices,
                    workers=workers,
                    known_columns=self._reference_column_store,
                )
            )
            self._reference_columns[key] = {
                reference_index: self._reference_column_store[reference_index]
                for reference_index in indices
            }
        return self._reference_columns[key]

    # ------------------------------------------------------------------
    # Eager warm-up
    # ------------------------------------------------------------------
    def warm(
        self,
        q: Union[int, Iterable[int], None] = 1,
        histogram_bins: Union[float, Iterable[float], None] = 1.0,
        references: int = 0,
        *,
        per_axis: bool = True,
        trees: bool = False,
        reference_policy: str = "first",
        workers: Optional[int] = None,
    ) -> Dict[str, float]:
        """Eagerly build the lazily-cached pruning artifacts, once, up front.

        Every artifact accessor on this class builds on first use, which
        is fine for a one-shot script but makes the first query of a
        long-lived process (a query server, a batch job) pay the full
        index cost.  ``warm`` forces construction ahead of time so that
        serving latency is flat from the first request onward.

        Parameters
        ----------
        q:
            Q-gram size(s) to prepare: sorted + pooled 2-D means, and —
            with ``per_axis=True`` — the 1-D per-axis variants.  ``None``
            skips Q-gram artifacts.
        histogram_bins:
            Bin-size multiple(s) δ (of ε, as in :meth:`histograms`) to
            prepare: the 2-D histograms and array stores, and — with
            ``per_axis=True`` — the per-axis variants.  ``None`` skips
            histogram artifacts.
        references:
            Number of near-triangle reference columns to precompute
            under ``reference_policy`` (0 skips them); ``workers``
            parallelizes the column precompute as in
            :meth:`reference_columns`.
        trees:
            Also build the R-tree / B+-trees over the Q-gram means (only
            the index-probe pruner needs them; the default merge-join
            pruner does not).

        Returns
        -------
        dict
            Build seconds per artifact name — already-cached artifacts
            cost (and report) effectively zero, so calling ``warm``
            twice is free.
        """
        report: Dict[str, float] = {}

        def timed(name: str, builder) -> None:
            start = time.perf_counter()
            builder()
            report[name] = time.perf_counter() - start

        q_values = [] if q is None else ([q] if isinstance(q, int) else list(q))
        for q_value in q_values:
            timed(f"qgram_means_2d(q={q_value})", lambda: self.flat_qgram_means(q_value))
            if per_axis:
                for axis in range(self.ndim):
                    timed(
                        f"qgram_means_1d(q={q_value}, axis={axis})",
                        lambda: self.flat_qgram_means_1d(q_value, axis),
                    )
            if trees:
                timed(f"qgram_rtree(q={q_value})", lambda: self.qgram_rtree(q_value))
                timed(f"qgram_bptree(q={q_value})", lambda: self.qgram_bptree(q_value))

        if histogram_bins is None:
            deltas: List[float] = []
        elif isinstance(histogram_bins, (int, float)):
            deltas = [float(histogram_bins)]
        else:
            deltas = [float(delta) for delta in histogram_bins]
        for delta in deltas:
            timed(
                f"histograms(delta={delta:g})",
                lambda: self.histogram_arrays(delta=delta),
            )
            if per_axis:
                for axis in range(self.ndim):
                    timed(
                        f"histograms(delta={delta:g}, axis={axis})",
                        lambda: self.histogram_arrays(delta=delta, axis=axis),
                    )

        if references > 0:
            timed(
                f"reference_columns({references}, {reference_policy})",
                lambda: self.reference_columns(
                    references, policy=reference_policy, workers=workers
                ),
            )
        return report

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Persist the database and its built pruning artifacts to ``.npz``.

        Saved: trajectories (points + labels), ε, sorted Q-gram means
        (2-D and 1-D, per built size), histograms (per built variant),
        and near-triangle reference columns.  The R-tree and B+-tree are
        *not* serialized — they rebuild from the trajectories in linear
        time and their layout carries no information beyond that.
        """
        arrays: Dict[str, np.ndarray] = {
            "epsilon": np.array(self.epsilon),
            "count": np.array(len(self.trajectories)),
        }
        labels = [t.label or "" for t in self.trajectories]
        arrays["labels"] = np.array(labels)
        for index, trajectory in enumerate(self.trajectories):
            arrays[f"points_{index}"] = trajectory.points

        manifest = {
            "means_format": _MEANS_FORMAT,
            "means2d": sorted(self._sorted_means_2d),
            "means1d": sorted(self._sorted_means_1d),
            "histograms": sorted(
                (delta, axis if axis is not None else -1)
                for delta, axis in self._histograms
            ),
            "references": sorted(self._reference_columns),
        }
        arrays["manifest"] = np.array(json.dumps(manifest))

        for q, per_trajectory in self._sorted_means_2d.items():
            for index, means in enumerate(per_trajectory):
                arrays[f"m2d_{q}_{index}"] = means
        for (q, axis), per_trajectory in self._sorted_means_1d.items():
            for index, means in enumerate(per_trajectory):
                arrays[f"m1d_{q}_{axis}_{index}"] = means
        for (delta, axis), (space, histograms) in self._histograms.items():
            tag = f"{delta:g}_{-1 if axis is None else axis}"
            arrays[f"horigin_{tag}"] = space.origin
            arrays[f"hbin_{tag}"] = np.array(space.bin_size)
            for index, histogram in enumerate(histograms):
                keys = np.array(sorted(histogram), dtype=np.int64).reshape(
                    len(histogram), -1
                )
                counts = np.array(
                    [histogram[tuple(key)] for key in keys.tolist()],
                    dtype=np.int64,
                )
                arrays[f"hkeys_{tag}_{index}"] = keys
                arrays[f"hcounts_{tag}_{index}"] = counts
        for (count, policy), columns in self._reference_columns.items():
            tag = f"{count}_{policy}"
            arrays[f"refids_{tag}"] = np.array(sorted(columns), dtype=np.int64)
            for reference_index in sorted(columns):
                arrays[f"refcol_{tag}_{reference_index}"] = columns[reference_index]
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(
        cls, path: Union[str, Path], warm: bool = False
    ) -> "TrajectoryDatabase":
        """Load a database saved with :meth:`save`, artifacts included.

        With ``warm=True`` the *derived* artifacts the archive does not
        carry — pooled Q-gram mean arrays and array-backed histogram
        stores, which rebuild deterministically from the saved sorted
        means and histogram dicts — are materialized eagerly before
        returning, so a long-lived process (``serve`` cold-start) pays
        one load pass instead of lazy per-first-query builds.  The
        result is indistinguishable from building the same artifacts
        from scratch and warming them.
        """
        with np.load(path, allow_pickle=False) as archive:
            count = int(archive["count"])
            labels = [str(value) or None for value in archive["labels"]]
            trajectories = [
                Trajectory(
                    archive[f"points_{index}"],
                    label=labels[index] if labels[index] else None,
                    trajectory_id=index,
                )
                for index in range(count)
            ]
            database = cls(trajectories, float(archive["epsilon"]))
            manifest = json.loads(str(archive["manifest"]))
            # Means from an older format are dropped; they rebuild on use.
            if manifest.get("means_format") != _MEANS_FORMAT:
                manifest["means2d"], manifest["means1d"] = [], []
            for q in manifest["means2d"]:
                database._sorted_means_2d[q] = [
                    archive[f"m2d_{q}_{index}"] for index in range(count)
                ]
            for q, axis in manifest["means1d"]:
                database._sorted_means_1d[(q, axis)] = [
                    archive[f"m1d_{q}_{axis}_{index}"] for index in range(count)
                ]
            for delta, axis_flag in manifest["histograms"]:
                axis = None if axis_flag == -1 else axis_flag
                tag = f"{delta:g}_{axis_flag}"
                space = HistogramSpace(
                    archive[f"horigin_{tag}"], float(archive[f"hbin_{tag}"])
                )
                histograms = []
                for index in range(count):
                    keys = archive[f"hkeys_{tag}_{index}"]
                    counts = archive[f"hcounts_{tag}_{index}"]
                    histograms.append(
                        {
                            tuple(map(int, key)): int(value)
                            for key, value in zip(keys.tolist(), counts.tolist())
                        }
                    )
                database._histograms[(float(delta), axis)] = (space, histograms)
            for reference_count, policy in manifest["references"]:
                tag = f"{reference_count}_{policy}"
                reference_ids = archive[f"refids_{tag}"]
                columns = {
                    int(reference_index): archive[f"refcol_{tag}_{reference_index}"]
                    for reference_index in reference_ids
                }
                database._reference_columns[(int(reference_count), policy)] = columns
                for reference_index, column in columns.items():
                    database._reference_column_store.setdefault(
                        reference_index, column
                    )
            # Archives written by older versions may carry a "kernels"
            # entry (a per-bucket kernel table); it is ignored.
        if warm:
            for q in manifest["means2d"]:
                database.flat_qgram_means(q)
            for q, axis in manifest["means1d"]:
                database.flat_qgram_means_1d(q, axis)
            for delta, axis_flag in manifest["histograms"]:
                database.histogram_arrays(
                    delta=float(delta),
                    axis=None if axis_flag == -1 else axis_flag,
                )
        return database

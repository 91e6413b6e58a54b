"""Kernel selection: autotuner determinism, routing, and byte-equality.

The load-bearing invariant of the whole kernel subsystem: answers AND
pruner counters are a pure function of the query — every kernel choice,
shard count, and batch size produces byte-identical results.  These
tests pin that across the serial, sorted, range, and sharded engines,
plus the autotuner's determinism contract (seeded samples, injectable
clock, no wall-clock under ``REPRO_KERNEL_FORCE``).
"""

import json

import numpy as np
import pytest

from repro import Trajectory, TrajectoryDatabase
from repro.core.edr_batch import edr_many
from repro.core.kernels import (
    DEFAULT_KERNEL,
    FORCE_ENV,
    KERNEL_CHOICES,
    LEGACY_KERNEL,
    KernelSelection,
    autotune_kernels,
    kernel_report,
    length_bucket,
    resolve_kernel_plan,
    run_kernel,
)
from repro.core.rangequery import range_scan, range_search
from repro.core.search import (
    HistogramPruner,
    NearTrianglePruning,
    QgramMergeJoinPruner,
    knn_scan,
    knn_search,
    knn_sorted_search,
)
from tests.conftest import random_walk_trajectories


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    trajectories = random_walk_trajectories(rng, 50, 10, 40, normalized=True)
    database = TrajectoryDatabase(trajectories, epsilon=0.25)
    queries = [
        Trajectory(np.cumsum(rng.normal(size=(20, 2)), axis=0)).normalized()
        for _ in range(3)
    ]
    database.warm(q=1, histogram_bins=1.0)
    return database, queries


def _stats_key(stats):
    return (
        stats.true_distance_computations,
        tuple(sorted(stats.pruned_by.items())),
    )


def _answer_key(neighbors):
    return [(n.index, n.distance) for n in neighbors]


class TestRunKernel:
    def test_all_kernels_byte_identical(self, workload):
        database, queries = workload
        query = queries[0]
        candidates = list(database.trajectories[:20])
        bounds = np.arange(3.0, 23.0)
        want = run_kernel("batched", query, candidates, 0.25, bounds=bounds)
        for kernel in ("scalar", "bitparallel"):
            got = run_kernel(kernel, query, candidates, 0.25, bounds=bounds)
            assert np.array_equal(want, got), kernel

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown EDR kernel"):
            run_kernel("simd", np.zeros((2, 2)), [np.zeros((2, 2))], 0.5)


class TestAutotuner:
    def test_deterministic_under_injected_clock(self, workload):
        database, _ = workload
        ticks = iter(range(10_000))

        def fake_clock():
            return float(next(ticks))

        first = autotune_kernels(database, time_fn=fake_clock)
        ticks = iter(range(10_000))
        second = autotune_kernels(database, time_fn=fake_clock)
        assert first.table == second.table
        assert first.default == second.default
        # Every bucket present in the database is tuned.
        want_buckets = {length_bucket(int(n)) for n in database.lengths}
        assert set(first.table) == want_buckets
        assert all(kernel in ("scalar", "batched", "bitparallel")
                   for kernel in first.table.values())

    def test_equal_timings_break_toward_legacy(self, workload):
        database, _ = workload
        selection = autotune_kernels(database, time_fn=lambda: 0.0)
        assert all(kernel == LEGACY_KERNEL for kernel in selection.table.values())
        assert selection.default == LEGACY_KERNEL

    @staticmethod
    def _scripted_race(monkeypatch, costs, slowdown_after=None):
        """Drive the autotuner with a fake clock: each kernel call takes
        ``costs[kernel]`` (``(first, later)``) fake seconds, tripled from
        call number ``slowdown_after`` on.  Returns the calls made."""
        from repro.core import kernels

        now = [0.0]
        calls = []

        def fake_run(kernel, *args, **kwargs):
            first, later = costs[kernel]
            cost = first if kernel not in calls else later
            if slowdown_after is not None and len(calls) >= slowdown_after:
                cost *= 3.0
            calls.append(kernel)
            now[0] += cost

        monkeypatch.setattr(kernels, "run_kernel", fake_run)
        return calls, lambda: now[0]

    def test_first_call_cost_does_not_decide(self, monkeypatch):
        database = TrajectoryDatabase(
            [Trajectory(np.zeros((20, 2))) for _ in range(4)], epsilon=0.5
        )
        costs = {"batched": (1.0, 1.0), "bitparallel": (50.0, 0.9)}
        calls, clock = self._scripted_race(monkeypatch, costs)
        selection = autotune_kernels(
            database, trials=1, kernels=("batched", "bitparallel"), time_fn=clock
        )
        assert set(selection.table.values()) == {"bitparallel"}

    def test_trials_round_robin_through_a_slowdown(self, monkeypatch):
        # The host slows 3x after the warm-up calls and the first round:
        # racing each kernel's trials back to back would time batched fast
        # and bitparallel slow, and pick the wrong kernel.
        database = TrajectoryDatabase(
            [Trajectory(np.zeros((20, 2))) for _ in range(4)], epsilon=0.5
        )
        costs = {"batched": (1.0, 1.0), "bitparallel": (0.9, 0.9)}
        calls, clock = self._scripted_race(monkeypatch, costs, slowdown_after=4)
        selection = autotune_kernels(
            database, trials=5, kernels=("batched", "bitparallel"), time_fn=clock
        )
        assert selection.table == {length_bucket(20): "bitparallel"}
        assert calls[:4] == ["batched", "bitparallel"] * 2

    def test_hopeless_kernel_sits_out_later_rounds(self, monkeypatch):
        database = TrajectoryDatabase(
            [Trajectory(np.zeros((20, 2))) for _ in range(4)], epsilon=0.5
        )
        costs = {
            "scalar": (10.0, 10.0),
            "batched": (1.0, 1.0),
            "bitparallel": (1.1, 1.1),
        }
        calls, clock = self._scripted_race(monkeypatch, costs)
        selection = autotune_kernels(database, trials=5, time_fn=clock)
        assert selection.table == {length_bucket(20): "batched"}
        # Warm-up plus one timed round for scalar; all five for the rest.
        assert calls.count("scalar") == 2
        assert calls.count("batched") == calls.count("bitparallel") == 6

    def test_validates_arguments(self, workload):
        database, _ = workload
        with pytest.raises(ValueError):
            autotune_kernels(database, trials=0)
        with pytest.raises(ValueError):
            autotune_kernels(database, sample=0)
        with pytest.raises(ValueError):
            autotune_kernels(database, kernels=("auto",))

    def test_selection_json_round_trip(self, workload):
        database, _ = workload
        selection = autotune_kernels(database, time_fn=lambda: 0.0)
        copy = KernelSelection.from_json(selection.to_json())
        assert copy.table == selection.table
        assert copy.default == selection.default
        assert copy.trials == selection.trials


class TestResolution:
    def test_none_is_bitparallel(self):
        plan = resolve_kernel_plan(None, None)
        assert plan.default == DEFAULT_KERNEL == "bitparallel"
        assert not plan.table and plan.source == "fixed"

    def test_fixed_names(self):
        for kernel in ("scalar", "batched", "bitparallel"):
            plan = resolve_kernel_plan(None, kernel)
            assert plan.default == kernel and plan.source == "fixed"

    def test_invalid_name_raises(self):
        with pytest.raises(ValueError):
            resolve_kernel_plan(None, "gpu")

    def test_auto_without_database_is_legacy(self):
        plan = resolve_kernel_plan(None, "auto")
        assert plan.default == LEGACY_KERNEL

    def test_auto_uses_cached_selection(self, workload):
        database, _ = workload
        plan = resolve_kernel_plan(database, "auto")
        assert plan.requested == "auto"
        assert set(plan.table) == {
            length_bucket(int(n)) for n in database.lengths
        }
        # Second resolution reuses the cached table (no re-tune).
        again = resolve_kernel_plan(database, "auto")
        assert again.table == plan.table

    def test_force_env_overrides_everything(self, workload, monkeypatch):
        database, _ = workload
        monkeypatch.setenv(FORCE_ENV, "bitparallel")
        plan = resolve_kernel_plan(database, "auto")
        assert plan.source == "forced"
        assert plan.default == "bitparallel" and not plan.table
        plan = resolve_kernel_plan(database, "scalar")
        assert plan.default == "bitparallel"

    def test_force_env_rejects_invalid(self, monkeypatch):
        monkeypatch.setenv(FORCE_ENV, "auto")
        with pytest.raises(ValueError, match=FORCE_ENV):
            resolve_kernel_plan(None, None)

    def test_kernel_report_shape(self, workload):
        database, _ = workload
        report = kernel_report(database, "auto")
        assert report["requested"] == "auto"
        assert report["choices"] == list(KERNEL_CHOICES)
        assert set(report["table"]) == {
            str(length_bucket(int(n))) for n in database.lengths
        }
        json.dumps(report)  # must be JSON-serializable for /stats


class TestDatabaseIntegration:
    def test_warm_builds_and_save_load_round_trips(self, tmp_path):
        rng = np.random.default_rng(13)
        trajectories = random_walk_trajectories(rng, 25, 5, 30)
        database = TrajectoryDatabase(trajectories, epsilon=0.4)
        report = database.warm(kernels=True)
        assert "kernel_selection" in report
        selection = database.kernel_selection()
        database.save(tmp_path / "db.npz")
        loaded = TrajectoryDatabase.load(tmp_path / "db.npz")
        restored = loaded.kernel_selection()
        assert restored.table == selection.table
        assert restored.default == selection.default
        assert restored.source == "loaded"

    def test_load_without_kernels_is_backward_compatible(self, tmp_path):
        rng = np.random.default_rng(14)
        trajectories = random_walk_trajectories(rng, 10, 5, 20)
        database = TrajectoryDatabase(trajectories, epsilon=0.4)
        database.save(tmp_path / "db.npz")  # never tuned: manifest has no table
        loaded = TrajectoryDatabase.load(tmp_path / "db.npz")
        assert loaded._kernel_selection is None


class TestEngineByteEquality:
    """Answers and counters identical at every kernel choice."""

    def _chains(self, database):
        return {
            "histogram": lambda: [HistogramPruner(database)],
            "hist+qgram": lambda: [
                HistogramPruner(database),
                QgramMergeJoinPruner(database, q=1),
            ],
            "hist+qgram+nti": lambda: [
                HistogramPruner(database),
                QgramMergeJoinPruner(database, q=1),
                NearTrianglePruning(database, max_triangle=10),
            ],
        }

    def test_knn_all_kernels(self, workload):
        database, queries = workload
        for name, chain in self._chains(database).items():
            for early_abandon in (False, True):
                baseline = None
                for kernel in (None,) + KERNEL_CHOICES:
                    neighbors, stats = knn_search(
                        database, queries[0], 5, chain(),
                        early_abandon=early_abandon, edr_kernel=kernel,
                    )
                    key = (_answer_key(neighbors), _stats_key(stats))
                    if baseline is None:
                        baseline = key
                    else:
                        assert key == baseline, (name, kernel, early_abandon)

    def test_sorted_all_kernels(self, workload):
        database, queries = workload
        baseline = None
        for kernel in (None,) + KERNEL_CHOICES:
            neighbors, stats = knn_sorted_search(
                database, queries[1], 4,
                HistogramPruner(database),
                [QgramMergeJoinPruner(database, q=1)],
                early_abandon=True, edr_kernel=kernel,
            )
            key = (_answer_key(neighbors), _stats_key(stats))
            baseline = baseline or key
            assert key == baseline, kernel

    def test_range_all_kernels(self, workload):
        database, queries = workload
        radius = 12.0
        baseline = None
        for kernel in (None,) + KERNEL_CHOICES:
            results, stats = range_search(
                database, queries[2], radius,
                [HistogramPruner(database)], edr_kernel=kernel,
            )
            key = (sorted(_answer_key(results)), _stats_key(stats))
            baseline = baseline or key
            assert key == baseline, kernel
            scan, _ = range_scan(database, queries[2], radius, edr_kernel=kernel)
            assert sorted(_answer_key(scan)) == key[0]

    def test_scan_matches_search_under_bitparallel(self, workload):
        database, queries = workload
        for query in queries:
            want, _ = knn_scan(database, query, 6, edr_kernel="bitparallel")
            got, _ = knn_search(
                database, query, 6,
                [HistogramPruner(database), QgramMergeJoinPruner(database, q=1)],
                edr_kernel="bitparallel",
            )
            assert _answer_key(want) == _answer_key(got)

    def test_refine_batch_sizes_agree(self, workload):
        database, queries = workload
        baseline = None
        for batch_size in (0, 7, 64, 256):
            neighbors, _ = knn_search(
                database, queries[0], 5, [HistogramPruner(database)],
                refine_batch_size=batch_size, edr_kernel="bitparallel",
            )
            key = _answer_key(neighbors)
            baseline = baseline or key
            assert key == baseline, batch_size


class TestShardedByteEquality:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_sharded_matches_scan_under_bitparallel(self, shards):
        from repro.core.sharding import ShardedDatabase

        rng = np.random.default_rng(7)
        trajectories = random_walk_trajectories(rng, 80, 15, 50)
        database = TrajectoryDatabase(trajectories, epsilon=0.4)
        database.warm(q=1, histogram_bins=1.0)
        queries = [trajectories[i] for i in (0, 41)]
        with ShardedDatabase(
            database, shards, specs=["histogram,qgram"], mode="inline"
        ) as sharded:
            for query in queries:
                serial, serial_stats = knn_search(
                    database, query, 5,
                    [HistogramPruner(database), QgramMergeJoinPruner(database, q=1)],
                    edr_kernel="bitparallel",
                )
                scan, _ = knn_scan(database, query, 5, edr_kernel="bitparallel")
                answer, stats = sharded.knn_search(
                    query, 5, early_abandon=True, edr_kernel="bitparallel"
                )
                assert _answer_key(answer) == _answer_key(serial)
                assert _answer_key(answer) == _answer_key(scan)
                assert stats.kernel == "bitparallel"
                hits, _ = sharded.range_search(
                    query, 10.0, edr_kernel="bitparallel"
                )
                want_hits, _ = range_search(
                    database, query, 10.0,
                    [HistogramPruner(database), QgramMergeJoinPruner(database, q=1)],
                    edr_kernel="bitparallel",
                )
                assert _answer_key(hits) == _answer_key(want_hits)

    def test_sharded_kernel_choices_agree(self):
        from repro.core.sharding import ShardedDatabase

        rng = np.random.default_rng(7)
        trajectories = random_walk_trajectories(rng, 60, 15, 50)
        database = TrajectoryDatabase(trajectories, epsilon=0.4)
        database.warm(q=1, histogram_bins=1.0)
        query = trajectories[19]
        with ShardedDatabase(
            database, 2, specs=["histogram,qgram"], mode="inline"
        ) as sharded:
            baseline = None
            for kernel in (None,) + KERNEL_CHOICES:
                answer, stats = sharded.knn_search(
                    query, 5, early_abandon=True, edr_kernel=kernel
                )
                key = (
                    _answer_key(answer),
                    stats.true_distance_computations,
                    tuple(sorted(stats.pruned_by.items())),
                )
                baseline = baseline or key
                assert key == baseline, kernel


class TestServiceConfig:
    def test_accepts_choices_and_rejects_garbage(self):
        from repro.service.config import ServiceConfig

        for kernel in KERNEL_CHOICES:
            config = ServiceConfig(edr_kernel=kernel).validated()
            assert config.public()["edr_kernel"] == kernel
        with pytest.raises(ValueError, match="edr_kernel"):
            ServiceConfig(edr_kernel="simd").validated()


class TestEdrManyCompactionFix:
    """Regression pin for the skip-propagation-on-death optimization.

    The bounds test moved before the left-propagation pass (whose
    masked row minimum it provably equals); these expectations were
    recorded against the pre-fix implementation and must never drift.
    """

    def test_pinned_sentinel_pattern(self):
        rng = np.random.default_rng(123)
        query = np.cumsum(rng.normal(size=(30, 2)), axis=0)
        candidates = [
            np.cumsum(rng.normal(size=(n, 2)), axis=0)
            for n in (5, 12, 20, 28, 35, 60)
        ]
        bounds = np.array([2.0, 5.0, 8.0, 11.0, 30.0, 14.0])
        got = edr_many(query, candidates, 0.5, bounds=bounds)
        finite = np.isfinite(got)
        # Exact distances for the survivors, sentinels for the rest —
        # recomputed per candidate to keep the pin self-verifying.
        from repro.core.edr import edr_reference

        for candidate, bound, value in zip(candidates, bounds, got):
            true = edr_reference(query, candidate, 0.5)
            if value == np.inf:
                assert true > bound
            else:
                assert value == true
        assert finite.sum() >= 1 and (~finite).sum() >= 1

    def test_refine_counters_unchanged_by_fix(self, workload):
        """SearchStats refine counters match the pre-fix implementation.

        The masked row minimum tested before the propagation pass equals
        the one the old code tested after it, so the abandonment pattern
        — and with it every counter — is pinned.  The expectations were
        recorded against the pre-fix ``edr_many``; counters identical
        across kernels at the same batch size is asserted separately.
        """
        database, queries = workload
        keys = []
        for batch_size in (4, 16, 64):
            _, stats = knn_search(
                database, queries[0], 5, [HistogramPruner(database)],
                early_abandon=True, refine_batch_size=batch_size,
            )
            keys.append(_stats_key(stats))
        assert keys == [
            (42, (("histogram-2d(delta=1)", 8),)),
            (47, (("histogram-2d(delta=1)", 3),)),
            (50, ()),
        ]

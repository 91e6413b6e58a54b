"""Refine kernels: name resolution and byte-equality.

The load-bearing invariant of the whole kernel subsystem: answers AND
pruner counters are a pure function of the query — every kernel choice,
shard count, and batch size produces byte-identical results.  These
tests pin that across the serial, sorted, range, and sharded engines,
and that every entry taking ``edr_kernel`` accepts only the kernel
names.
"""

import json

import numpy as np
import pytest

from repro import Trajectory, TrajectoryDatabase, knn_batch
from repro.core.edr_batch import edr_many
from repro.core.kernels import (
    DEFAULT_KERNEL,
    KERNEL_CHOICES,
    check_kernel_choice,
    kernel_report,
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
from repro.core.sharding import ShardedDatabase
from repro.storage.tiered import TieredDatabase, build_store
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


class TestResolution:
    def test_none_is_bitparallel(self):
        assert check_kernel_choice(None) == DEFAULT_KERNEL == "bitparallel"

    def test_fixed_names(self):
        for kernel in ("scalar", "batched", "bitparallel"):
            assert check_kernel_choice(kernel) == kernel

    def test_invalid_name_raises(self):
        with pytest.raises(ValueError):
            check_kernel_choice("gpu")

    def test_kernel_report_shape(self):
        report = kernel_report()
        assert report["kernel"] == DEFAULT_KERNEL
        assert report["choices"] == list(KERNEL_CHOICES)
        assert report["table"] == {}  # the key perfbench/serve.py reads
        json.dumps(report)  # must be JSON-serializable for /stats


@pytest.fixture(scope="module")
def entries(workload, tmp_path_factory):
    """Every entry that takes ``edr_kernel``, as ``kernel -> result``."""
    database, queries = workload
    query = queries[0]
    chain = [HistogramPruner(database), QgramMergeJoinPruner(database, q=1)]
    store = tmp_path_factory.mktemp("kernel-names") / "store"
    build_store(database.trajectories, store, database.epsilon, summary_block=8)
    tiered = TieredDatabase.open(store)
    sharded = ShardedDatabase(database, 2, specs=["histogram,qgram"], mode="inline")
    tiered_chain = [
        HistogramPruner(tiered.database),
        QgramMergeJoinPruner(tiered.database, q=1),
    ]
    yield {
        "knn_scan": lambda kernel: knn_scan(database, query, 3, edr_kernel=kernel),
        "knn_search": lambda kernel: knn_search(
            database, query, 3, chain, edr_kernel=kernel
        ),
        "knn_sorted_search": lambda kernel: knn_sorted_search(
            database, query, 3, chain[0], chain[1:], edr_kernel=kernel
        ),
        "range_search": lambda kernel: range_search(
            database, query, 8.0, chain, edr_kernel=kernel
        ),
        "knn_batch": lambda kernel: knn_batch(
            database, [query], 3, chain, executor="serial", edr_kernel=kernel
        ),
        # The window engines take no kernel; knn_batch still checks it.
        "knn_batch sub": lambda kernel: knn_batch(
            database, [query], 3, chain, executor="serial", edr_kernel=kernel,
            sub=True,
        ),
        "tiered knn_sorted_search": lambda kernel: tiered.knn_sorted_search(
            query, 3, tiered_chain[0], tiered_chain[1:], edr_kernel=kernel
        ),
        "sharded knn": lambda kernel: sharded.knn_search(query, 3, edr_kernel=kernel),
        "sharded range": lambda kernel: sharded.range_search(
            query, 8.0, edr_kernel=kernel
        ),
    }
    sharded.close()
    tiered.close()


@pytest.mark.parametrize(
    "entry",
    [
        "knn_scan", "knn_search", "knn_sorted_search", "range_search",
        "knn_batch", "knn_batch sub", "tiered knn_sorted_search",
        "sharded knn", "sharded range",
    ],
)
def test_every_entry_accepts_only_kernel_names(entries, entry):
    run = entries[entry]
    for kernel in ("auto", "simd"):
        with pytest.raises(ValueError, match="unknown EDR kernel"):
            run(kernel)
    run("batched")  # a kernel name runs


def _manifest(path):
    with np.load(path, allow_pickle=False) as archive:
        return json.loads(str(archive["manifest"]))


class TestDatabaseIntegration:
    #: The "kernels" manifest entry that ``save`` wrote after
    #: ``warm(kernels=True)`` while kernels were autotuned per bucket.
    OLD_KERNELS_ENTRY = {
        "table": {"3": "batched", "4": "bitparallel", "5": "bitparallel"},
        "default": "bitparallel",
        "throughput": {
            "scalar": 589749.9254007201,
            "batched": 1557529.4285216387,
            "bitparallel": 1615361.1751809213,
        },
        "trials": 5,
        "source": "autotune",
    }

    @staticmethod
    def _answers(database, query):
        pruners = [HistogramPruner(database), QgramMergeJoinPruner(database, q=1)]
        neighbors, stats = knn_search(database, query, 4, pruners)
        return _answer_key(neighbors), _stats_key(stats)

    def test_load_without_kernels_is_backward_compatible(self, tmp_path):
        rng = np.random.default_rng(14)
        trajectories = random_walk_trajectories(rng, 10, 5, 20)
        database = TrajectoryDatabase(trajectories, epsilon=0.4)
        database.save(tmp_path / "db.npz")
        assert "kernels" not in _manifest(tmp_path / "db.npz")
        loaded = TrajectoryDatabase.load(tmp_path / "db.npz")
        assert self._answers(loaded, trajectories[2]) == self._answers(
            database, trajectories[2]
        )

    def test_archive_with_a_kernel_table_loads_and_drops_it(self, tmp_path):
        rng = np.random.default_rng(14)
        trajectories = random_walk_trajectories(rng, 10, 5, 20)
        database = TrajectoryDatabase(trajectories, epsilon=0.4)
        database.warm()
        old = tmp_path / "old.npz"
        database.save(old)
        with np.load(old, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        manifest = json.loads(str(arrays["manifest"]))
        manifest["kernels"] = self.OLD_KERNELS_ENTRY
        arrays["manifest"] = np.array(json.dumps(manifest))
        np.savez_compressed(old, **arrays)

        loaded = TrajectoryDatabase.load(old, warm=True)
        fresh = TrajectoryDatabase(trajectories, epsilon=0.4)
        for query in (trajectories[2], trajectories[7]):
            assert self._answers(loaded, query) == self._answers(fresh, query)
        loaded.save(tmp_path / "resaved.npz")
        assert "kernels" not in _manifest(tmp_path / "resaved.npz")


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
        recorded against the pre-fix ``edr_many`` in index order, the
        visit order of the time; counters identical across kernels at
        the same batch size is asserted separately.
        """
        database, queries = workload
        keys = []
        for batch_size in (4, 16, 64):
            _, stats = knn_search(
                database, queries[0], 5, [HistogramPruner(database)],
                early_abandon=True, refine_batch_size=batch_size,
                order="index",
            )
            keys.append(_stats_key(stats))
        assert keys == [
            (42, (("histogram-2d(delta=1)", 8),)),
            (47, (("histogram-2d(delta=1)", 3),)),
            (50, ()),
        ]

"""The multi-query batch engine must equal per-query single-engine calls."""

import numpy as np
import pytest

from repro import (
    BatchResult,
    HistogramPruner,
    NearTrianglePruning,
    QgramMergeJoinPruner,
    Trajectory,
    TrajectoryDatabase,
    knn_batch,
    knn_scan,
    knn_search,
    knn_sorted_search,
)
from repro.cli import main
from repro.data import make_random_walk_set, save_npz
from repro.eval import same_answers


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(11)
    trajectories = [
        Trajectory(
            np.cumsum(rng.normal(size=(int(rng.integers(5, 30)), 2)), axis=0)
        )
        for _ in range(40)
    ]
    database = TrajectoryDatabase(trajectories, epsilon=0.4)
    queries = [trajectories[i] for i in (0, 9, 17, 25, 33)]
    return database, queries


def _pruners(database):
    return [
        HistogramPruner(database),
        QgramMergeJoinPruner(database, q=1),
        NearTrianglePruning(database, max_triangle=10),
    ]


class TestEquivalence:
    # The single-query engine the batch must equal: "scan" batches an
    # empty chain, "search" and "sorted" (its alias over primary and
    # secondaries) the pruned one.
    @pytest.mark.parametrize("engine", ["scan", "search", "sorted"])
    @pytest.mark.parametrize(
        "executor",
        ["serial", "thread", pytest.param("process", marks=pytest.mark.process)],
    )
    def test_matches_single_query_engines(self, workload, engine, executor):
        database, queries = workload
        pruners = _pruners(database) if engine != "scan" else []
        batch = knn_batch(
            database,
            queries,
            4,
            pruners,
            workers=2,
            executor=executor,
        )
        assert len(batch) == len(queries)
        for query, (neighbors, stats) in zip(queries, batch):
            if engine == "scan":
                expected, want = knn_scan(database, query, 4)
            elif engine == "search":
                expected, want = knn_search(database, query, 4, pruners)
            else:
                expected, want = knn_sorted_search(
                    database, query, 4, pruners[0], pruners[1:]
                )
            assert same_answers(expected, neighbors)
            assert stats.database_size == len(database)
            assert stats.pruned_by == want.pruned_by
            assert (
                stats.true_distance_computations
                == want.true_distance_computations
            )

    def test_no_pruners_means_scan(self, workload):
        database, queries = workload
        batch = knn_batch(database, queries[:2], 3)
        for query, (neighbors, _) in zip(queries, batch):
            expected, _ = knn_scan(database, query, 3)
            assert same_answers(expected, neighbors)

    def test_results_in_query_order(self, workload):
        database, queries = workload
        batch = knn_batch(
            database, queries, 1, _pruners(database), workers=3, executor="thread"
        )
        for query, (neighbors, _) in zip(queries, batch):
            expected, _ = knn_scan(database, query, 1)
            assert same_answers(expected, neighbors)


class TestKnobs:
    def test_auto_executor_is_serial_for_one_worker(self, workload):
        database, queries = workload
        batch = knn_batch(database, queries, 2, _pruners(database), workers=1)
        assert batch.executor == "serial"
        assert batch.workers == 1

    def test_auto_executor_uses_threads_for_many_workers(
        self, workload, monkeypatch
    ):
        import repro.core.batch as batch_module

        monkeypatch.setattr(batch_module.os, "cpu_count", lambda: 8)
        database, queries = workload
        batch = knn_batch(database, queries, 2, _pruners(database), workers=3)
        assert batch.executor == "thread"
        assert batch.workers == 3

    def test_auto_executor_is_serial_on_single_core(self, workload, monkeypatch):
        import repro.core.batch as batch_module

        monkeypatch.setattr(batch_module.os, "cpu_count", lambda: 1)
        database, queries = workload
        batch = knn_batch(database, queries, 2, _pruners(database), workers=4)
        assert batch.executor == "serial"

    def test_workers_clamped_to_query_count(self, workload):
        database, queries = workload
        batch = knn_batch(
            database, queries[:2], 2, _pruners(database), workers=16,
            executor="thread",
        )
        assert batch.workers == 2

    def test_empty_query_list(self, workload):
        database, _ = workload
        batch = knn_batch(database, [], 3, _pruners(database))
        assert len(batch) == 0
        assert isinstance(batch, BatchResult)

    def test_elapsed_and_extra_populated(self, workload):
        database, queries = workload
        batch = knn_batch(database, queries[:2], 2, _pruners(database))
        assert batch.elapsed_seconds > 0.0
        assert batch.extra["warm_seconds"] >= 0.0

    def test_invalid_executor_raises(self, workload):
        database, queries = workload
        with pytest.raises(ValueError, match="unknown executor"):
            knn_batch(database, queries, 2, executor="gpu")

    def test_invalid_workers_raises(self, workload):
        database, queries = workload
        with pytest.raises(ValueError, match="workers"):
            knn_batch(database, queries, 2, workers=0)


class TestEdgeCases:
    def test_k_exceeds_database_size(self, workload):
        database, queries = workload
        batch = knn_batch(
            database, queries[:2], len(database) + 25, _pruners(database)
        )
        for query, (neighbors, _) in zip(queries, batch):
            assert len(neighbors) == len(database)
            expected, _ = knn_scan(database, query, len(database) + 25)
            assert same_answers(expected, neighbors)

    def test_duplicate_queries_get_identical_answers(self, workload):
        database, queries = workload
        duplicated = [queries[0], queries[1], queries[0], queries[0]]
        batch = knn_batch(database, duplicated, 3, _pruners(database))
        reference = [(n.index, n.distance) for n in batch.neighbors[0]]
        for position in (2, 3):
            assert [
                (n.index, n.distance) for n in batch.neighbors[position]
            ] == reference

    @pytest.mark.process
    def test_thread_and_process_executors_agree(self, workload):
        database, queries = workload
        pruners = _pruners(database)
        threaded = knn_batch(
            database, queries[:3], 3, pruners, workers=2, executor="thread"
        )
        processed = knn_batch(
            database, queries[:3], 3, pruners, workers=2, executor="process"
        )
        assert threaded.executor == "thread"
        assert processed.executor == "process"
        for left, right in zip(threaded.neighbors, processed.neighbors):
            assert [(n.index, n.distance) for n in left] == [
                (n.index, n.distance) for n in right
            ]


class TestCli:
    def test_knn_batch_subcommand(self, tmp_path, capsys):
        path = str(tmp_path / "db.npz")
        save_npz(path, make_random_walk_set(count=30, seed=5))
        code = main(
            [
                "knn-batch",
                path,
                "--queries",
                "3",
                "--k",
                "2",
                "--pruners",
                "histogram,qgram",
                "--workers",
                "2",
                "--executor",
                "thread",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "3 queries" in output
        assert "query      0" in output

    def test_knn_batch_explicit_indices(self, tmp_path, capsys):
        path = str(tmp_path / "db.npz")
        save_npz(path, make_random_walk_set(count=20, seed=6))
        code = main(
            ["knn-batch", path, "--query-indices", "4,11", "--k", "1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "2 queries" in output
        assert "query      4" in output
        assert "query     11" in output

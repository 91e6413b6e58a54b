"""The sharded engine must be byte-for-byte the serial engines.

Every test here enforces the exactness contract of
:mod:`repro.core.sharding`: for any shard count, execution mode, and
supported pruner spec, ``knn_search`` / ``range_search`` answers — and
the aggregated per-pruner counters — are identical to the single-shard
pipeline (and the answers identical to the classic serial engines).
"""

import asyncio
import json
import multiprocessing
import warnings

import numpy as np
import pytest

from repro import (
    ShardedDatabase,
    ShardedSearchStats,
    Trajectory,
    TrajectoryDatabase,
    knn_batch,
    knn_search,
)
from repro.core import mp as mp_module
from repro.core.search import QgramIndexPruner
from repro.core.sharding import _WorkerState, pruner_spec_of
from repro.core.shm import SharedArrayBlock
from repro.core.rangequery import range_search
from repro.service.config import ServiceConfig
from repro.service.handlers import TrajectoryService
from repro.service.pruning import build_pruners

from .oracles import answers as _answers

SHARD_COUNTS = (1, 2, 3, 7)
SPECS = ("histogram,qgram", "qgram", "histogram-1d,qgram", "qgram,nti", "")


@pytest.fixture(scope="module")
def workload(sharding_workload):
    # The corpus itself is session-scoped in conftest.py (built and
    # warmed once per run); this alias keeps the test bodies unchanged.
    return sharding_workload


@pytest.fixture(scope="module")
def inline_engines(workload):
    database, _ = workload
    engines = {
        shards: ShardedDatabase(
            database, shards, specs=list(SPECS), mode="inline"
        )
        for shards in SHARD_COUNTS
    }
    yield engines
    for engine in engines.values():
        engine.close()


class TestSharedArrayBlock:
    def test_roundtrip_preserves_content_and_dtype(self):
        arrays = {
            "points": np.arange(12.0).reshape(6, 2),
            "offsets": np.array([0, 2, 6], dtype=np.int64),
            "empty": np.empty((0, 3)),
        }
        block = SharedArrayBlock.create(arrays)
        try:
            attached = SharedArrayBlock.attach(block.manifest)
            try:
                views = attached.arrays()
                for key, expected in arrays.items():
                    np.testing.assert_array_equal(views[key], expected)
                    assert views[key].dtype == expected.dtype
            finally:
                attached.close()
        finally:
            block.close()
            block.unlink()

    def test_views_are_read_only(self):
        block = SharedArrayBlock.create({"x": np.zeros(4)})
        try:
            view = block.arrays()["x"]
            with pytest.raises(ValueError):
                view[0] = 1.0
        finally:
            block.close()
            block.unlink()


class TestInlineExactness:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_knn_matches_serial_engine(
        self, workload, inline_engines, spec, shards
    ):
        database, queries = workload
        engine = inline_engines[shards]
        for query in queries:
            got, stats = engine.knn_search(query, 5, spec=spec)
            want, _ = knn_search(
                database, query, 5, build_pruners(database, spec)
            )
            assert _answers(got) == _answers(want)
            assert isinstance(stats, ShardedSearchStats)
            assert stats.shards == min(shards, len(database))

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_range_matches_serial_engine(
        self, workload, inline_engines, shards
    ):
        database, queries = workload
        engine = inline_engines[shards]
        spec = "histogram,qgram"
        for query in queries:
            got, _ = engine.range_search(query, 25.0, spec=spec)
            want, _ = range_search(
                database, query, 25.0, build_pruners(database, spec)
            )
            assert _answers(got) == _answers(want)

    def test_counters_independent_of_shard_count(
        self, workload, inline_engines
    ):
        _, queries = workload
        for spec in ("histogram,qgram", "qgram,nti"):
            baselines = None
            for shards in SHARD_COUNTS:
                engine = inline_engines[shards]
                observed = []
                for query in queries:
                    _, stats = engine.knn_search(query, 5, spec=spec)
                    observed.append(
                        (
                            stats.true_distance_computations,
                            dict(stats.pruned_by),
                            stats.rounds,
                        )
                    )
                if baselines is None:
                    baselines = observed
                else:
                    assert observed == baselines, (spec, shards)

    def test_k_exceeds_database_size(self, workload, inline_engines):
        database, queries = workload
        got, _ = inline_engines[3].knn_search(
            queries[0], len(database) + 10, spec="histogram,qgram"
        )
        want, _ = knn_search(
            database,
            queries[0],
            len(database) + 10,
            build_pruners(database, "histogram,qgram"),
        )
        assert _answers(got) == _answers(want)
        assert len(got) == len(database)

    def test_early_abandon_keeps_answers(self, workload, inline_engines):
        database, queries = workload
        for query in queries:
            got, _ = inline_engines[2].knn_search(
                query, 5, spec="histogram,qgram", early_abandon=True
            )
            want, _ = knn_search(
                database, query, 5, build_pruners(database, "histogram,qgram")
            )
            assert _answers(got) == _answers(want)

    def test_range_radius_must_be_non_negative(self, workload, inline_engines):
        _, queries = workload
        with pytest.raises(ValueError):
            inline_engines[2].range_search(queries[0], -1.0)

    def test_unsupported_spec_is_rejected(self, workload):
        database, queries = workload
        with ShardedDatabase(
            database, 2, specs=["qgram"], mode="inline"
        ) as engine:
            assert engine.supports("qgram")
            assert not engine.supports("histogram,qgram")
            with pytest.raises(ValueError):
                engine.knn_search(queries[0], 5, spec="histogram,qgram")


class TestShardLayout:
    def test_boundaries_cover_the_database(self, workload, inline_engines):
        database, _ = workload
        for shards, engine in inline_engines.items():
            bounds = engine.boundaries
            assert bounds[0][0] == 0
            assert bounds[-1][1] == len(database)
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start

    def test_shards_clamped_to_database_size(self):
        rng = np.random.default_rng(3)
        tiny = TrajectoryDatabase(
            [Trajectory(rng.normal(size=(8, 2))) for _ in range(3)],
            epsilon=0.4,
        )
        with ShardedDatabase(
            tiny, 10, specs=["qgram"], mode="inline"
        ) as engine:
            assert engine.shards == 3
            got, _ = engine.knn_search(tiny.trajectories[0], 2, spec="qgram")
            want, _ = knn_search(
                tiny, tiny.trajectories[0], 2, build_pruners(tiny, "qgram")
            )
            assert _answers(got) == _answers(want)

    def test_nti_reference_columns_match_parent(self, workload):
        database, _ = workload
        with ShardedDatabase(
            database, 3, specs=["qgram,nti"], mode="inline"
        ) as engine:
            parent_columns = database.reference_columns(50, policy="first")
            state = _WorkerState(engine._payload, None)
            try:
                for shard_id, (start, stop) in enumerate(engine.boundaries):
                    runtime = state.runtime(shard_id)
                    assert set(runtime.reference_columns) == set(
                        parent_columns
                    )
                    for rid, column in runtime.reference_columns.items():
                        np.testing.assert_array_equal(
                            column, parent_columns[rid][start:stop]
                        )
            finally:
                state.close()


@pytest.mark.process
class TestProcessMode:
    def test_process_pool_matches_serial_engine(self, workload):
        database, queries = workload
        with ShardedDatabase(
            database, 2, specs=["histogram,qgram"], mode="process"
        ) as engine:
            for query in queries[:2]:
                got, stats = engine.knn_search(
                    query, 5, spec="histogram,qgram", early_abandon=True
                )
                want, _ = knn_search(
                    database,
                    query,
                    5,
                    build_pruners(database, "histogram,qgram"),
                )
                assert _answers(got) == _answers(want)
            assert engine.start_method == mp_module.start_method_name("fork")
            assert stats.start_method == engine.start_method


class TestPrunerSpecOf:
    def test_maps_spec_built_chains_back(self, workload):
        database, _ = workload
        for spec in SPECS:
            assert pruner_spec_of(build_pruners(database, spec)) == spec

    def test_rejects_unmapped_pruners(self, workload):
        database, _ = workload
        with pytest.raises(ValueError):
            pruner_spec_of([QgramIndexPruner(database, q=1)])


class TestKnnBatchShards:
    @pytest.mark.process
    def test_shards_axis_matches_serial_batch(self, workload):
        database, queries = workload
        pruners = build_pruners(database, "histogram,qgram")
        sharded = knn_batch(
            database, queries, 5, pruners, shards=2
        )
        serial = knn_batch(
            database, queries, 5, pruners, executor="serial"
        )
        assert sharded.executor == "sharded"
        assert sharded.extra["shards"] == 2
        for got, want in zip(sharded.neighbors, serial.neighbors):
            assert _answers(got) == _answers(want)

    def test_prebuilt_engine_is_reused(self, workload, inline_engines):
        database, queries = workload
        pruners = build_pruners(database, "qgram")
        batch = knn_batch(
            database, queries, 5, pruners, sharded=inline_engines[3]
        )
        serial = knn_batch(
            database, queries, 5, pruners, executor="serial"
        )
        assert batch.extra["shard_mode"] == "inline"
        for got, want in zip(batch.neighbors, serial.neighbors):
            assert _answers(got) == _answers(want)

    def test_scan_engine_is_rejected(self, workload):
        database, queries = workload
        with pytest.raises(ValueError, match="scan"):
            knn_batch(database, queries, 5, shards=2)

    def test_prebuilt_engine_must_support_the_spec(self, workload):
        database, queries = workload
        with ShardedDatabase(
            database, 2, specs=["qgram"], mode="inline"
        ) as engine:
            with pytest.raises(ValueError, match="lacks artifacts"):
                knn_batch(
                    database,
                    queries,
                    5,
                    build_pruners(database, "histogram,qgram"),
                    sharded=engine,
                )


class TestStartMethodFallback:
    def test_process_context_warns_once_and_reports_method(self, monkeypatch):
        real_get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("fork unavailable (simulated)")
            return real_get_context(method)

        monkeypatch.setattr(mp_module.multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(mp_module, "_warned_fallback", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            context, method = mp_module.process_context("fork")
        # The fallback reports whatever the platform default is (which
        # may itself be named "fork" on Linux); what matters is that the
        # preference failure was surfaced exactly once.
        assert method == context.get_start_method()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second call must stay silent
            _, again = mp_module.process_context("fork")
        assert again == method

    def test_fork_platform_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, method = mp_module.process_context("fork")
        assert method == "fork"


@pytest.mark.process
class TestShardedService:
    def test_two_shard_service_matches_serial_answers(self, workload):
        database, _ = workload
        config = ServiceConfig(shards=2, max_batch=1, cache_size=0)
        service = TrajectoryService(database, config)
        report = service.warm()
        assert "sharding" in report
        assert service.engine.sharded is not None

        async def run():
            for index in (0, 19, 41):
                body = json.dumps({"query": index, "k": 5}).encode()
                status, payload, _ = await service.handle(
                    "POST", "/knn", body
                )
                assert status == 200, payload
                got = [
                    (n["index"], n["distance"])
                    for n in payload["neighbors"]
                ]
                want, _ = knn_search(
                    database,
                    database.trajectories[index],
                    5,
                    build_pruners(database, "histogram,qgram"),
                )
                assert got == [(n.index, float(n.distance)) for n in want]
            status, stats, _ = await service.handle("GET", "/stats", b"")
            assert status == 200
            sharding = stats["sharding"]
            assert sharding["enabled"]
            assert sharding["shards"] == 2
            assert sharding["queries"] == 3
            assert len(sharding["per_shard"]) == 2
            assert stats["multiprocessing"]["start_methods"]

        try:
            asyncio.run(run())
        finally:
            service.close()

    def test_config_rejects_bad_shard_counts(self):
        with pytest.raises(ValueError):
            ServiceConfig(shards=0).validated()
        with pytest.raises(ValueError):
            ServiceConfig(shard_workers=0).validated()

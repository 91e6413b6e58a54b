"""Tiered storage: out-of-core builds and mmap-attached search.

The contract of :mod:`repro.storage.tiered` is *byte identity*: every
artifact a store directory holds must equal what the in-memory
:class:`TrajectoryDatabase` builds for the same corpus, regardless of
the streaming chunk size, and every engine answer served off the store
— serial or sharded — must match the in-memory engines, counters
included.  The tests here enforce that contract and the failure modes
(missing / corrupt / stale stores fail loudly with actionable errors).
"""

import json

import numpy as np
import pytest

from repro import ShardedDatabase, Trajectory, TrajectoryDatabase, knn_search
from repro.core.rangequery import range_search
from repro.core.search import knn_sorted_search
from repro.core.sharding import _pack_shard
from repro.service.pruning import build_pruners
from repro.storage import StoreError, TieredDatabase, build_store
from repro.storage.tiered import STORE_VERSION

from .conftest import random_walk_trajectories
from .oracles import answers as _answers

VARIANTS = ((1.0, None), (1.0, 0), (1.0, 1))
ALL_PARTS = ("histogram", "histogram-1d", "qgram", "nti")
MAX_TRIANGLE = 12
EPSILON = 0.4


def _csr_bytes(store):
    counts = store._counts
    return [part.tobytes() for part in (counts.data, counts.indices, counts.indptr)]


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(7)
    trajectories = random_walk_trajectories(rng, 60, 15, 50)
    database = TrajectoryDatabase(trajectories, epsilon=EPSILON)
    queries = [trajectories[i] for i in (0, 23, 41)]
    return database, trajectories, queries


@pytest.fixture(scope="module")
def store_dir(corpus, tmp_path_factory):
    _, trajectories, _ = corpus
    directory = tmp_path_factory.mktemp("store") / "corpus"
    build_store(
        trajectories,
        directory,
        EPSILON,
        parts=ALL_PARTS,
        chunk_size=16,
        max_triangle=MAX_TRIANGLE,
    )
    return directory


@pytest.fixture(scope="module")
def tiered(store_dir):
    with TieredDatabase.open(store_dir) as database:
        yield database


class TestOutOfCoreByteIdentity:
    """Streamed artifacts == in-memory artifacts, for every chunk size."""

    @pytest.mark.parametrize("chunk_size", (3, 17, 200))
    def test_artifacts_match_in_memory_build(self, corpus, tmp_path, chunk_size):
        database, trajectories, _ = corpus
        directory = tmp_path / f"chunk{chunk_size}"
        build_store(
            iter(trajectories),  # a generator: consumed exactly once
            directory,
            EPSILON,
            parts=ALL_PARTS,
            chunk_size=chunk_size,
            max_triangle=MAX_TRIANGLE,
        )
        shard_arrays, shard_meta = _pack_shard(
            database, 0, len(database), ("histogram", "histogram-1d"), MAX_TRIANGLE
        )
        shard_tags = {
            (v["delta"], v["axis"]): v["tag"] for v in shard_meta["hist"]
        }
        with TieredDatabase.open(directory) as tiered:
            arrays = tiered._arrays
            stored_tags = {
                (v["delta"], v["axis"]): v["tag"] for v in tiered.manifest["hist"]
            }

            packed = np.concatenate([t.points for t in trajectories])
            np.testing.assert_array_equal(arrays["points"], packed)
            np.testing.assert_array_equal(
                arrays["lengths"], [len(t) for t in trajectories]
            )

            # Per-trajectory sorted Q-gram means and the pooled array.
            for mine, theirs in zip(
                database.sorted_qgram_means(1), tiered.database.sorted_qgram_means(1)
            ):
                np.testing.assert_array_equal(mine, theirs)
            pool_values, pool_owners = database.flat_qgram_means(1)
            got_values, got_owners = tiered.database.flat_qgram_means(1)
            assert got_values.tobytes() == pool_values.tobytes()
            assert got_owners.tobytes() == pool_owners.tobytes()

            for delta, axis in VARIANTS:
                space, rows = database.histograms(delta, axis)
                tiered_space, tiered_rows = tiered.database.histograms(delta, axis)
                np.testing.assert_array_equal(tiered_space.origin, space.origin)
                assert tiered_space.bin_size == space.bin_size
                assert list(tiered_rows) == list(rows)

                mine = database.histogram_arrays(delta, axis)
                theirs = tiered.database.histogram_arrays(delta, axis)
                np.testing.assert_array_equal(theirs._lo, mine._lo)
                np.testing.assert_array_equal(theirs._shape, mine._shape)
                np.testing.assert_array_equal(theirs.totals, mine.totals)
                # One canonical CSR triple: the resident build, the shard
                # pack and build_store's files agree byte for byte.
                assert _csr_bytes(theirs) == _csr_bytes(mine)
                stored, shard = stored_tags[(delta, axis)], shard_tags[(delta, axis)]
                for stored_name, shard_name in (
                    (f"{stored}_kcounts", f"{shard}_kcounts"),
                    (f"{stored}_indices", f"{shard}_indices"),
                    (f"{stored}_koffsets", f"{shard}_koffsets"),
                ):
                    got = shard_arrays[shard_name]
                    assert arrays[stored_name].dtype == got.dtype
                    assert arrays[stored_name].tobytes() == got.tobytes()

            columns = database.reference_columns(MAX_TRIANGLE)
            tiered_columns = tiered.database.reference_columns(MAX_TRIANGLE)
            assert set(tiered_columns) == set(columns)
            for reference, column in columns.items():
                np.testing.assert_array_equal(tiered_columns[reference], column)

    def test_manifest_records_layout(self, store_dir, corpus):
        _, trajectories, _ = corpus
        manifest = json.loads((store_dir / "manifest.json").read_text())
        assert manifest["format"] == "repro-tiered-store"
        assert manifest["count"] == len(trajectories)
        assert manifest["epsilon"] == EPSILON
        assert set(manifest["parts"]) == set(ALL_PARTS)
        assert manifest["nti"]["max_triangle"] == MAX_TRIANGLE
        for entry in manifest["arrays"].values():
            assert (store_dir / entry["file"]).exists()


class TestTieredExactness:
    """Tiered answers AND pruner counters == the serial in-memory engines."""

    @pytest.mark.parametrize(
        "spec", ("histogram,qgram", "histogram-1d,qgram", "qgram,nti", "")
    )
    def test_knn_matches_serial(self, corpus, tiered, spec):
        database, _, queries = corpus
        for query in queries:
            got, stats = tiered.knn_search(
                query, 5, build_pruners(tiered.database, spec)
            )
            want, serial_stats = knn_search(
                database, query, 5, build_pruners(database, spec)
            )
            assert _answers(got) == _answers(want)
            assert stats.pruned_by == serial_stats.pruned_by
            assert (
                stats.true_distance_computations
                == serial_stats.true_distance_computations
            )

    def test_sorted_search_matches_serial(self, corpus, tiered):
        database, _, queries = corpus
        for query in queries:
            primary, *secondary = build_pruners(tiered.database, "histogram,qgram")
            got, stats = tiered.knn_sorted_search(query, 5, primary, secondary)
            primary, *secondary = build_pruners(database, "histogram,qgram")
            want, serial_stats = knn_sorted_search(
                database, query, 5, primary, secondary
            )
            assert _answers(got) == _answers(want)
            assert stats.pruned_by == serial_stats.pruned_by

    def test_range_matches_serial(self, corpus, tiered):
        database, _, queries = corpus
        for query in queries:
            got, stats = tiered.range_search(
                query, 12.0, build_pruners(tiered.database, "histogram,qgram")
            )
            want, serial_stats = range_search(
                database, query, 12.0, build_pruners(database, "histogram,qgram")
            )
            assert _answers(got) == _answers(want)
            assert stats.pruned_by == serial_stats.pruned_by

    def test_search_stats_report_storage_counters(self, corpus, tiered):
        _, _, queries = corpus
        _, stats = tiered.knn_search(
            queries[0], 5, build_pruners(tiered.database, "histogram,qgram")
        )
        # Filter bytes are always touched; refine reads depend on the
        # pool's warmth, so only their accounting identity is asserted.
        assert stats.bytes_touched > 0
        assert stats.pages_read == stats.pool_misses
        assert (
            stats.bytes_touched
            >= stats.pages_read * tiered.page_size
        )
        snapshot = tiered.storage_stats()
        assert snapshot["count"] == len(tiered)
        assert snapshot["pool_hits"] >= stats.pool_hits
        assert 0.0 <= snapshot["pool_hit_rate"] <= 1.0

    def test_bytes_touched_sublinear_for_qgram_filter(self, tmp_path):
        """The merge-join filter's bytes shrink relative to corpus size."""
        rng = np.random.default_rng(11)
        small = random_walk_trajectories(rng, 40, 15, 40)
        large = small + random_walk_trajectories(rng, 360, 15, 40)
        query = small[3]
        touched = {}
        for name, trajectories in (("small", small), ("large", large)):
            directory = tmp_path / name
            build_store(trajectories, directory, EPSILON, parts=("qgram",))
            with TieredDatabase.open(directory) as tiered:
                _, stats = tiered.knn_search(
                    query, 5, build_pruners(tiered.database, "qgram")
                )
                touched[name] = stats.bytes_touched
        # 9x the corpus must cost well under 9x the filter bytes.
        assert touched["large"] < 9 * touched["small"]


class TestBlockSkipping:
    """Blocked sorted access == serial sorted access, bit for bit.

    The blocked engine must reproduce the serial stable-argsort visit
    order exactly — same answers, same ``pruned_by`` counters, same
    refinement count — at every summary block size (1 maximizes
    cross-block bound ties, 7 leaves a ragged tail block, 64 covers the
    single-block degenerate case), while the summary bounds must lower
    bound every member's quick bound (the soundness invariant skipping
    rests on).
    """

    SPECS = ("histogram,qgram", "histogram-1d,qgram", "histogram,qgram,nti")

    @pytest.fixture(scope="class", params=(1, 7, 64))
    def blocked_store(self, corpus, tmp_path_factory, request):
        _, trajectories, _ = corpus
        directory = (
            tmp_path_factory.mktemp("blocked") / f"b{request.param}"
        )
        build_store(
            trajectories,
            directory,
            EPSILON,
            parts=ALL_PARTS,
            chunk_size=16,
            max_triangle=MAX_TRIANGLE,
            summary_block=request.param,
        )
        with TieredDatabase.open(directory) as tiered:
            yield tiered, request.param

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_serial_sorted_search(self, corpus, blocked_store, spec):
        database, _, queries = corpus
        tiered, summary_block = blocked_store
        for query in queries:
            primary, *secondary = build_pruners(tiered.database, spec)
            got, stats = tiered.knn_sorted_search(
                query, 5, primary, secondary, early_abandon=True
            )
            assert stats.blocks_total == -(-len(database) // summary_block)
            assert 0 < stats.blocks_opened <= stats.blocks_total
            primary, *secondary = build_pruners(database, spec)
            want, serial_stats = knn_sorted_search(
                database, query, 5, primary, secondary, early_abandon=True
            )
            assert _answers(got) == _answers(want)
            assert stats.pruned_by == serial_stats.pruned_by
            assert (
                stats.true_distance_computations
                == serial_stats.true_distance_computations
            )

    def test_matches_unblocked_tiered_path(self, corpus, blocked_store, monkeypatch):
        from repro.core.search import _HistogramQuery

        _, _, queries = corpus
        tiered, _ = blocked_store
        exact_stage = []
        ceiling_rows = []
        exact_lower_bound = _HistogramQuery.exact_lower_bound
        exact_ceilings = _HistogramQuery.exact_ceilings

        def recorded(query_state, candidate_index):
            exact_stage.append(candidate_index)
            return exact_lower_bound(query_state, candidate_index)

        def recorded_ceilings(query_state, rows):
            ceiling_rows.extend(rows.tolist())
            return exact_ceilings(query_state, rows)

        monkeypatch.setattr(_HistogramQuery, "exact_lower_bound", recorded)
        monkeypatch.setattr(_HistogramQuery, "exact_ceilings", recorded_ceilings)
        for query in queries:
            primary, *secondary = build_pruners(tiered.database, "histogram,qgram")
            # Warm the pool so neither run pays for the other's pages.
            tiered.knn_sorted_search(query, 5, primary, secondary, block_skip=False)
            exact_stage.clear()
            got, stats = tiered.knn_sorted_search(query, 5, primary, secondary)
            blocked_exact = list(exact_stage)
            exact_stage.clear()
            ceiling_rows.clear()
            flat, flat_stats = tiered.knn_sorted_search(
                query, 5, primary, secondary, block_skip=False
            )
            assert _answers(got) == _answers(flat)
            assert stats.pruned_by == flat_stats.pruned_by
            assert flat_stats.blocks_total == 0  # full-scan path
            assert blocked_exact == exact_stage
            assert stats.pages_read == flat_stats.pages_read == 0
            # The blocked engine charges the exact stage per visited
            # candidate and each row its ceiling fills read; the flat one
            # does the same work but does not charge it, so charge it
            # here under the same model.
            cost, fixed = tiered._per_candidate_bytes(primary)
            flat_bytes = (
                flat_stats.bytes_touched
                + fixed
                + int(cost[exact_stage].sum())
                + int(cost[ceiling_rows].sum())
            )
            # Even when every block opens (this corpus has no ingest
            # locality), the summary premium stays bounded; real
            # skipping is asserted on the clustered corpus below.
            assert stats.bytes_touched <= 1.25 * flat_bytes

    def test_summary_bounds_lower_bound_every_member(
        self, corpus, blocked_store
    ):
        from repro.core.search import HistogramPruner
        from repro.storage.tiered import _summary_block_bounds

        _, _, queries = corpus
        tiered, summary_block = blocked_store
        for per_axis in (False, True):
            pruner = HistogramPruner(tiered.database, per_axis=per_axis)
            summaries = tiered._block_summaries_for(pruner)
            assert summaries is not None
            for query in queries:
                query_state = pruner.for_query(query)
                for store, query_histogram, summary in zip(
                    pruner._stores, query_state._query, summaries
                ):
                    # Attached, not loaded: queries fault only what they read.
                    assert isinstance(summary["smax"], np.memmap)
                    block_bounds, touched = _summary_block_bounds(
                        store, query_histogram, summary["smax"], summary["stmin"]
                    )
                    # Never more than the count matrix it stands in for.
                    counts = store._counts
                    assert touched <= summary["stmin"].nbytes + sum(
                        part.nbytes
                        for part in (counts.data, counts.indices, counts.indptr)
                    )
                    member_bounds = store.bulk_quick_bounds(query_histogram)
                    for block_id in range(len(block_bounds)):
                        lo = block_id * summary_block
                        hi = min(lo + summary_block, len(tiered))
                        assert (
                            block_bounds[block_id]
                            <= member_bounds[lo:hi].min()
                        )

    def test_clustered_corpus_skips_blocks(self, tmp_path):
        """Ingest locality => most blocks are never opened."""
        rng = np.random.default_rng(23)
        routes = [np.cumsum(rng.normal(size=(40, 2)), axis=0) for _ in range(8)]
        trajectories = [
            Trajectory(route + rng.normal(scale=0.05, size=route.shape))
            for route in routes
            for _ in range(16)
        ]
        directory = tmp_path / "clustered"
        build_store(
            trajectories,
            directory,
            0.25,
            parts=("histogram", "qgram"),
            summary_block=16,
        )
        query = Trajectory(routes[2] + rng.normal(scale=0.05, size=routes[2].shape))
        database = TrajectoryDatabase(trajectories, epsilon=0.25)
        with TieredDatabase.open(directory) as tiered:
            primary, *secondary = build_pruners(tiered.database, "histogram,qgram")
            got, stats = tiered.knn_sorted_search(query, 5, primary, secondary)
            assert stats.blocks_opened < stats.blocks_total
            primary, *secondary = build_pruners(database, "histogram,qgram")
            want, _ = knn_sorted_search(database, query, 5, primary, secondary)
            assert _answers(got) == _answers(want)


SHARD_COUNTS = (1, 2, 4)


class TestShardedAttach:
    """Mmap-attach sharding == the shared-memory packing, all shard counts."""

    @pytest.fixture(scope="class")
    def engines(self, corpus, tiered):
        database, _, _ = corpus
        spec = "histogram,qgram"
        tiered_engines = {
            shards: tiered.sharded(shards, specs=[spec], mode="inline")
            for shards in SHARD_COUNTS
        }
        shm_engines = {
            shards: ShardedDatabase(database, shards, specs=[spec], mode="inline")
            for shards in SHARD_COUNTS
        }
        yield tiered_engines, shm_engines
        for engine in (*tiered_engines.values(), *shm_engines.values()):
            engine.close()

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_serial_answers_and_shm_counters(
        self, corpus, engines, shards
    ):
        database, _, queries = corpus
        tiered_engines, shm_engines = engines
        for query in queries:
            got, stats = tiered_engines[shards].knn_search(
                query, 5, spec="histogram,qgram"
            )
            want, _ = knn_search(
                database, query, 5, build_pruners(database, "histogram,qgram")
            )
            assert _answers(got) == _answers(want)
            shm_got, shm_stats = shm_engines[shards].knn_search(
                query, 5, spec="histogram,qgram"
            )
            assert _answers(got) == _answers(shm_got)
            assert stats.pruned_by == shm_stats.pruned_by
            assert (
                stats.true_distance_computations
                == shm_stats.true_distance_computations
            )

    def test_counters_invariant_across_shard_counts(self, corpus, engines):
        _, _, queries = corpus
        tiered_engines, _ = engines
        for query in queries:
            results = [
                tiered_engines[shards].knn_search(query, 5, spec="histogram,qgram")
                for shards in SHARD_COUNTS
            ]
            baseline_answers = _answers(results[0][0])
            baseline_counts = results[0][1].pruned_by
            for neighbors, stats in results[1:]:
                assert _answers(neighbors) == baseline_answers
                assert stats.pruned_by == baseline_counts

    def test_process_mode_matches_inline(self, corpus, tiered):
        database, _, queries = corpus
        engine = tiered.sharded(
            2, specs=["histogram,qgram"], mode="process", workers=2
        )
        try:
            for query in queries[:2]:
                got, _ = engine.knn_search(query, 5, spec="histogram,qgram")
                want, _ = knn_search(
                    database, query, 5, build_pruners(database, "histogram,qgram")
                )
                assert _answers(got) == _answers(want)
        finally:
            engine.close()

    def test_missing_part_is_actionable(self, tmp_path, corpus):
        _, trajectories, _ = corpus
        directory = tmp_path / "qgram-only"
        build_store(trajectories[:20], directory, EPSILON, parts=("qgram",))
        with TieredDatabase.open(directory) as tiered:
            with pytest.raises(StoreError, match="rebuild with --pruners"):
                tiered.sharded(2, specs=["histogram,qgram"], mode="inline")


class TestStoreFailureModes:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            TieredDatabase.open(tmp_path / "nowhere")

    def test_directory_without_manifest(self, tmp_path):
        (tmp_path / "plain").mkdir()
        with pytest.raises(StoreError, match="build-store"):
            TieredDatabase.open(tmp_path / "plain")

    def test_corrupt_manifest(self, store_dir, tmp_path):
        clone = tmp_path / "corrupt"
        clone.mkdir()
        (clone / "manifest.json").write_text("{not json")
        with pytest.raises(StoreError, match="corrupt"):
            TieredDatabase.open(clone)

    def test_version_mismatch(self, store_dir, tmp_path):
        # Version 2 stores may hold dense count matrices this build no
        # longer reads; a future version is just as foreign.
        for version in (2, STORE_VERSION + 1):
            manifest = json.loads((store_dir / "manifest.json").read_text())
            manifest["version"] = version
            clone = tmp_path / f"stale{version}"
            clone.mkdir()
            (clone / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(StoreError, match="rebuild the store"):
                TieredDatabase.open(clone)

    def test_truncated_array_file(self, store_dir, tmp_path, corpus):
        _, trajectories, _ = corpus
        directory = tmp_path / "truncated"
        build_store(trajectories[:10], directory, EPSILON, parts=("qgram",))
        points = directory / "points.bin"
        points.write_bytes(points.read_bytes()[:64])
        with pytest.raises(StoreError, match="stale or foreign"):
            TieredDatabase.open(directory)

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="empty corpus"):
            build_store([], tmp_path / "empty", EPSILON)

    def test_mixed_arity_rejected(self, tmp_path):
        trajectories = [
            Trajectory(np.zeros((4, 2))),
            Trajectory(np.zeros((4, 3))),
        ]
        with pytest.raises(StoreError, match="mixed trajectory arities"):
            build_store(trajectories, tmp_path / "mixed", EPSILON)

    def test_unknown_part_rejected(self, tmp_path, corpus):
        _, trajectories, _ = corpus
        with pytest.raises(StoreError, match="unknown store parts"):
            build_store(
                trajectories[:5], tmp_path / "bad", EPSILON, parts=("wavelet",)
            )


class TestPagedAccess:
    def test_paged_list_matches_source(self, corpus, tiered):
        _, trajectories, _ = corpus
        paged = tiered.trajectories
        assert len(paged) == len(trajectories)
        for index in (0, 7, len(trajectories) - 1):
            np.testing.assert_array_equal(
                paged[index].points, trajectories[index].points
            )

    def test_fetch_many_matches_scalar_reads(self, corpus, tiered):
        _, trajectories, _ = corpus
        indices = [5, 2, 58, 2, 31]
        batch = tiered.trajectories.fetch_many(indices)
        assert len(batch) == len(indices)
        for index, trajectory in zip(indices, batch):
            np.testing.assert_array_equal(
                trajectory.points, trajectories[index].points
            )

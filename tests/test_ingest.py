"""Streaming ingest: WAL durability, incremental exactness, compaction.

The load-bearing property (ISSUE 8 acceptance): after ANY interleaving
of inserts, deletes, and compactions, every engine's answers AND
per-pruner counters over the mutable view are byte-for-byte equal to a
cold-built database over the same logical corpus — because the view
assembles byte-identical pruning artifacts incrementally.
"""

import gc
import json
import warnings

import numpy as np
import pytest

from repro import Trajectory, TrajectoryDatabase
from repro.core.faults import FaultPlan, FaultRule, WorkerCrash
from repro.core.rangequery import range_search
from repro.core.search import knn_search, knn_sorted_search
from repro.core.sharding import ShardedDatabase
from repro.ingest import (
    DeltaLog,
    IngestError,
    IngestRoot,
    MutableDatabase,
    WalError,
    compact,
)
from repro.service.pruning import build_pruners

EPSILON = 0.4


def _walk(rng, length, ndim=2, offset=0.0):
    points = offset + np.cumsum(rng.normal(size=(length, ndim)), axis=0)
    return Trajectory(points)


def _corpus(seed, count=24):
    rng = np.random.default_rng(seed)
    return [_walk(rng, int(rng.integers(12, 40))) for _ in range(count)]


def _cold_oracle(mutable):
    """A cold-built database over the mutable's logical corpus."""
    snapshot, _uids = mutable.snapshot()
    return TrajectoryDatabase(
        [
            Trajectory(np.array(t.points), trajectory_id=i)
            for i, t in enumerate(snapshot)
        ],
        mutable.epsilon,
    )


def _answers(neighbors):
    return [(int(n.index), float(n.distance)) for n in neighbors]


def _counters(stats):
    return (dict(stats.pruned_by), stats.true_distance_computations)


def assert_engines_match(view, cold, queries, spec):
    """Answers and counters byte-equal across every engine."""
    for query in queries:
        pruners_view = build_pruners(view, spec)
        pruners_cold = build_pruners(cold, spec)
        got, gstats = knn_search(view, query, 5, pruners_view)
        want, wstats = knn_search(cold, query, 5, pruners_cold)
        assert _answers(got) == _answers(want)
        assert _counters(gstats) == _counters(wstats)

        got, gstats = range_search(view, query, 6.0, pruners_view)
        want, wstats = range_search(cold, query, 6.0, pruners_cold)
        assert _answers(got) == _answers(want)
        assert _counters(gstats) == _counters(wstats)

        if pruners_view:
            got, gstats = knn_sorted_search(
                view, query, 5, pruners_view[0], pruners_view[1:]
            )
            want, wstats = knn_sorted_search(
                cold, query, 5, pruners_cold[0], pruners_cold[1:]
            )
            assert _answers(got) == _answers(want)
            assert _counters(gstats) == _counters(wstats)


def _assert_same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_artifacts_equal(view, cold):
    """The view's bulk pruning artifacts are byte-identical to ``cold``'s."""
    for axis in (None,) + tuple(range(view.ndim)):
        got = view.histogram_arrays(axis=axis)
        want = cold.histogram_arrays(axis=axis)
        assert (got.ndim, got.count, got.cells) == (want.ndim, want.count, want.cells)
        for name in ("_lo", "_shape", "totals"):
            _assert_same_array(getattr(got, name), getattr(want, name))
        for name in ("data", "indices", "indptr"):
            _assert_same_array(getattr(got._counts, name), getattr(want._counts, name))
        assert got._counts.shape == want._counts.shape
        assert view.histograms(axis=axis)[1] == cold.histograms(axis=axis)[1]
    pools = [(view.flat_qgram_means(1), cold.flat_qgram_means(1))] + [
        (view.flat_qgram_means_1d(1, axis), cold.flat_qgram_means_1d(1, axis))
        for axis in range(view.ndim)
    ]
    for got, want in pools:
        _assert_same_array(got[0], want[0])
        _assert_same_array(got[1], want[1])


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestDeltaLog:
    def test_round_trip_preserves_float64_bits(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeltaLog(path)
        points = np.array([[0.1 + 0.2, -1e-17], [np.pi, 1e300]])
        log.append({"op": "insert", "uid": 7, "points": points.tolist()})
        records, torn = DeltaLog.read(path)
        assert not torn
        assert np.array_equal(
            np.array(records[0]["points"], dtype=np.float64), points
        )

    def test_seq_strictly_increasing_and_resumes(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeltaLog(path)
        first = log.append({"op": "insert", "uid": 0, "points": [[0.0, 0.0]]})
        second = log.append({"op": "delete", "uid": 0})
        assert (first["seq"], second["seq"]) == (1, 2)
        assert DeltaLog(path).next_seq == 3

    def test_unknown_op_rejected(self, tmp_path):
        log = DeltaLog(tmp_path / "wal.jsonl")
        with pytest.raises(ValueError, match="unknown WAL op"):
            log.append({"op": "truncate", "uid": 0})

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeltaLog(path)
        log.append({"op": "insert", "uid": 0, "points": [[0.0, 0.0]]})
        log.append({"op": "insert", "uid": 1, "points": [[1.0, 1.0]]})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])  # tear the last record
        records, torn = DeltaLog.read(path)
        assert torn and [r["uid"] for r in records] == [0]
        with pytest.raises(WalError, match="torn tail"):
            DeltaLog(path)
        recovered, truncated = DeltaLog.recover(path)
        assert truncated and [r["uid"] for r in recovered] == [0]
        assert DeltaLog.read(path) == (recovered, False)

    def test_mid_log_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeltaLog(path)
        log.append({"op": "insert", "uid": 0, "points": [[0.0, 0.0]]})
        log.append({"op": "insert", "uid": 1, "points": [[1.0, 1.0]]})
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0][:-10] + b"corrupted\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(WalError, match="corrupt record"):
            DeltaLog.read(path)

    def test_checksum_mismatch_is_torn_only_at_tail(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeltaLog(path)
        body = log.append({"op": "insert", "uid": 0, "points": [[0.0, 0.0]]})
        envelope = json.loads(path.read_text())
        envelope["body"]["uid"] = 99  # body no longer matches crc
        path.write_text(json.dumps(envelope) + "\n")
        records, torn = DeltaLog.read(path)
        assert torn and records == []
        assert body["seq"] == 1

    def test_crash_at_wal_append_leaves_recoverable_prefix(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        plan = FaultPlan([FaultRule(point="wal:append", kind="crash", step=1)])
        log = DeltaLog(path, fault_plan=plan)
        log.append({"op": "insert", "uid": 0, "points": [[0.0, 0.0]]})
        with pytest.raises(WorkerCrash):
            log.append({"op": "insert", "uid": 1, "points": [[1.0, 1.0]]})
        records, torn = DeltaLog.read(path)
        assert torn and [r["uid"] for r in records] == [0]
        recovered, truncated = DeltaLog.recover(path)
        assert truncated and [r["uid"] for r in recovered] == [0]
        # the log is appendable again, and seq never reuses the torn slot
        clean = DeltaLog(path)
        assert clean.append({"op": "delete", "uid": 0})["seq"] == 2


# ----------------------------------------------------------------------
# Incremental exactness
# ----------------------------------------------------------------------
class TestMutableExactness:
    @pytest.mark.parametrize(
        "spec", ["histogram,qgram", "histogram-1d", "nti", "qgram,nti"]
    )
    def test_interleaved_mutations_match_cold_build(self, tmp_path, spec):
        root = IngestRoot.init(tmp_path / "root", _corpus(11), EPSILON)
        rng = np.random.default_rng(101)
        mutable = root.open_mutable()
        try:
            # Interleaving with the artifact-shifting cases: an insert
            # far below the corpus minimum (moves the histogram grid
            # origin), deletion of the minimum-holder (moves it back),
            # and deletion of uid 0 (an NTI reference under "first").
            mutable.insert(_walk(rng, 20))
            mutable.delete(3)
            far = mutable.insert(_walk(rng, 15, offset=-500.0))
            queries = [_walk(rng, 25), _walk(rng, 10)]
            assert_engines_match(
                mutable.view(), _cold_oracle(mutable), queries, spec
            )
            mutable.delete(far)  # origin shifts back
            mutable.delete(0)  # reference trajectory disappears
            mutable.insert(_walk(rng, 30))
            assert_engines_match(
                mutable.view(), _cold_oracle(mutable), queries, spec
            )
        finally:
            mutable.close()

    def test_random_interleavings_property(self, tmp_path):
        rng = np.random.default_rng(202)
        root = IngestRoot.init(tmp_path / "root", _corpus(12, count=16), EPSILON)
        mutable = root.open_mutable()
        try:
            for step in range(12):
                if rng.random() < 0.6 or len(mutable.view()) < 4:
                    mutable.insert(
                        _walk(
                            rng,
                            int(rng.integers(8, 30)),
                            offset=float(rng.normal(scale=50.0)),
                        )
                    )
                else:
                    live = mutable.live_uids()
                    mutable.delete(int(live[rng.integers(len(live))]))
                if step % 4 == 3:
                    assert_engines_match(
                        mutable.view(),
                        _cold_oracle(mutable),
                        [_walk(rng, 18)],
                        "histogram,qgram",
                    )
        finally:
            mutable.close()

    @pytest.mark.parametrize("kind", ["warm", "store"])
    def test_derived_artifacts_byte_equal_cold_build_every_step(
        self, tmp_path, kind, monkeypatch
    ):
        # Each view derives its histogram CSR stores and pooled Q-gram
        # means from the previous view's.  After every step of a seeded
        # interleaving they must be byte-identical, dtypes included, to
        # a cold build over the same logical corpus.
        from repro.core.histogram import HistogramArrayStore
        from repro.ingest import mutable as mutable_module

        derived = {"store": 0, "pool": 0}
        derive = HistogramArrayStore.derive
        extend = mutable_module.extend_sorted_means

        def counting_derive(store, *args):
            derived["store"] += 1
            return derive(store, *args)

        def counting_extend(*args):
            derived["pool"] += 1
            return extend(*args)

        monkeypatch.setattr(HistogramArrayStore, "derive", counting_derive)
        monkeypatch.setattr(mutable_module, "extend_sorted_means", counting_extend)

        rng = np.random.default_rng(505)
        corpus = _corpus(15, count=20)
        if kind == "warm":
            base = TrajectoryDatabase(corpus, EPSILON)
            base.warm(q=1, histogram_bins=1.0)
            mutable = MutableDatabase(base)
        else:
            root = IngestRoot.init(tmp_path / "root", corpus, EPSILON, kind="store")
            mutable = root.open_mutable()
        inserted = []
        grids = []  # (origin bytes, padded shape) of the 2-D store per step
        try:
            for step in range(30):
                live = mutable.live_uids()
                if step == 4:  # below the corpus minimum: the origin moves
                    low = mutable.insert(_walk(rng, 14, offset=-300.0))
                    inserted.append(low)
                elif step == 8:  # ... and moves back
                    mutable.delete(low)
                    inserted.remove(low)
                elif step == 11:  # above the maximum: the padded grid grows
                    high = mutable.insert(_walk(rng, 14, offset=300.0))
                    inserted.append(high)
                elif step == 15:  # the max-key holder leaves: it shrinks
                    mutable.delete(high)
                    inserted.remove(high)
                elif step == 17:  # the base's max-key holder leaves too
                    view = mutable.view()
                    tops = [t.points[:, 0].max() for t in view.trajectories]
                    mutable.delete(view._uids[int(np.argmax(tops))])
                elif step in (6, 22):  # an exact duplicate: pooled-key ties
                    twin = mutable.view().trajectories[int(rng.integers(len(live)))]
                    inserted.append(mutable.insert(Trajectory(twin.points.copy())))
                elif step in (20, 26) and inserted:
                    mutable.delete(inserted.pop(int(rng.integers(len(inserted)))))
                elif rng.random() < 0.6 or len(live) < 6:
                    inserted.append(
                        mutable.insert(
                            _walk(
                                rng,
                                int(rng.integers(6, 30)),
                                offset=float(rng.normal(scale=3.0)),
                            )
                        )
                    )
                else:
                    mutable.delete(int(live[rng.integers(len(live))]))
                view = mutable.view()
                cold = _cold_oracle(mutable)
                # Alternate which accessor builds first.
                if step % 2:
                    view.flat_qgram_means(1)
                    view.histogram_arrays()
                _assert_artifacts_equal(view, cold)
                store = view.histogram_arrays()
                grids.append((view.histograms()[0].origin.tobytes(), tuple(store._shape)))
        finally:
            mutable.close()
        moved = sum(a[0] != b[0] for a, b in zip(grids, grids[1:]))
        resized = [
            (np.prod(b[1]) > np.prod(a[1]))
            for a, b in zip(grids, grids[1:])
            if a[0] == b[0] and a[1] != b[1]
        ]
        assert moved >= 2
        assert True in resized and False in resized  # grown and shrunk
        assert derived["store"] > 0 and derived["pool"] > 0

    def test_origin_shifts_keep_one_histogram_cache(self, tmp_path):
        # Each insert below the corpus minimum moves the grid origin;
        # rows binned on an old origin must not pile up across views.
        rng = np.random.default_rng(404)
        root = IngestRoot.init(tmp_path / "root", _corpus(14, count=16), EPSILON)
        mutable = root.open_mutable()
        try:
            for step in range(4):
                mutable.insert(_walk(rng, 12, offset=-100.0 * (step + 1)))
                view = mutable.view()
                space, rows = view.histograms()
                assert list(mutable._hist_cache) == [(1.0, None)]
                state = mutable._hist_cache[(1.0, None)]
                # Only the current origin's rows and store are held, and
                # they cover exactly the view's uids.
                assert state.origin == space.origin.tobytes()
                assert state.uids.tolist() == view._uids
                assert state.rows is rows and len(rows) == len(view)
                assert state.store is view.histogram_arrays()
                assert state.store.count == len(view)
            assert_engines_match(
                mutable.view(), _cold_oracle(mutable), [_walk(rng, 18)],
                "histogram,qgram",
            )
        finally:
            mutable.close()

    def test_exactness_across_compaction_boundary(self, tmp_path):
        rng = np.random.default_rng(303)
        root = IngestRoot.init(tmp_path / "root", _corpus(13, count=18), EPSILON)
        mutable = root.open_mutable()
        mutable.insert(_walk(rng, 22))
        mutable.delete(2)
        mutable.close()
        assert compact(root) == "gen-000001"
        mutable = root.open_mutable()
        try:
            assert mutable.generation == "gen-000001"
            assert mutable.delta_size == 0
            mutable.insert(_walk(rng, 17))
            mutable.delete(5)
            queries = [_walk(rng, 20)]
            assert_engines_match(
                mutable.view(), _cold_oracle(mutable), queries, "histogram,qgram,nti"
            )
        finally:
            mutable.close()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_sharded_engine_over_view(self, tmp_path, shards):
        rng = np.random.default_rng(404)
        root = IngestRoot.init(tmp_path / "root", _corpus(14, count=20), EPSILON)
        mutable = root.open_mutable()
        try:
            for _ in range(3):
                mutable.insert(_walk(rng, int(rng.integers(10, 30))))
            mutable.delete(1)
            view, cold = mutable.view(), _cold_oracle(mutable)
            spec = "histogram,qgram"
            query = _walk(rng, 24)
            with_view = ShardedDatabase(
                view, shards=shards, specs=(spec,), mode="inline"
            )
            with_cold = ShardedDatabase(
                cold, shards=shards, specs=(spec,), mode="inline"
            )
            try:
                got, gstats = with_view.knn_search(query, 5, spec=spec)
                want, wstats = with_cold.knn_search(query, 5, spec=spec)
                assert _answers(got) == _answers(want)
                assert dict(gstats.pruned_by) == dict(wstats.pruned_by)
            finally:
                with_view.close()
                with_cold.close()
        finally:
            mutable.close()

    def test_replay_reproduces_in_memory_state(self, tmp_path):
        rng = np.random.default_rng(505)
        root = IngestRoot.init(tmp_path / "root", _corpus(15, count=10), EPSILON)
        mutable = root.open_mutable()
        mutable.insert(_walk(rng, 16))
        mutable.delete(4)
        expected = [
            np.array(t.points) for t in mutable.snapshot()[0]
        ]
        mutable.close()
        replayed = root.open_mutable()
        try:
            actual = [np.array(t.points) for t in replayed.snapshot()[0]]
            assert len(actual) == len(expected)
            for a, b in zip(actual, expected):
                assert np.array_equal(a, b)
        finally:
            replayed.close()

    def test_delete_requires_live_uid(self, tmp_path):
        root = IngestRoot.init(tmp_path / "root", _corpus(16, count=6), EPSILON)
        mutable = root.open_mutable()
        try:
            mutable.delete(2)
            with pytest.raises(KeyError):
                mutable.delete(2)
            with pytest.raises(KeyError):
                mutable.delete(999)
        finally:
            mutable.close()

    def test_empty_view_rejected(self, tmp_path):
        root = IngestRoot.init(tmp_path / "root", _corpus(17, count=2), EPSILON)
        mutable = root.open_mutable()
        try:
            mutable.delete(0)
            mutable.delete(1)
            with pytest.raises(ValueError, match="empty"):
                mutable.view()
        finally:
            mutable.close()

    def test_empty_insert_keeps_its_arity(self, tmp_path):
        # The WAL record of an empty trajectory is "points": [], which
        # once came back as shape (0, 1) on a 2-D corpus.
        base = TrajectoryDatabase(_corpus(18, count=5), EPSILON)
        base.warm(q=1, histogram_bins=1.0)
        path = tmp_path / "wal.jsonl"
        mutable = MutableDatabase(base, log=DeltaLog(path))
        uid = mutable.insert(Trajectory(np.empty((0, 2))))
        view = mutable.view()
        assert view.trajectories[len(view) - 1].points.shape == (0, 2)
        query = _walk(np.random.default_rng(19), 12)
        for spec in ("histogram,qgram", "histogram-1d"):
            assert_engines_match(view, _cold_oracle(mutable), [query], spec)

        records, torn = DeltaLog.read(path)
        assert not torn and [int(r["uid"]) for r in records] == [uid]
        replayed = MutableDatabase(base)
        assert replayed.apply_record(records[0])
        assert replayed.snapshot()[0][-1].points.shape == (0, 2)


# ----------------------------------------------------------------------
# Generations and compaction chaos
# ----------------------------------------------------------------------
class TestGenerationChaos:
    def _seeded_root(self, tmp_path, seed=21):
        rng = np.random.default_rng(seed)
        root = IngestRoot.init(tmp_path / "root", _corpus(seed, count=14), EPSILON)
        mutable = root.open_mutable()
        for _ in range(4):
            mutable.insert(_walk(rng, int(rng.integers(10, 25))))
        mutable.delete(3)
        mutable.close()
        return root, rng

    @pytest.mark.parametrize(
        "point", ["compact:fold", "compact:manifest", "compact:publish"]
    )
    def test_crash_at_every_compaction_point_recovers(self, tmp_path, point):
        root, rng = self._seeded_root(tmp_path)
        before = root.open_mutable()
        expected = [np.array(t.points) for t in before.snapshot()[0]]
        before.close()

        plan = FaultPlan([FaultRule(point=point, kind="crash")])
        with pytest.raises(WorkerCrash):
            compact(root, fault_plan=plan)
        assert plan.fired_by_kind() == {"crash": 1}

        # Recovery restores the exact pre-compaction logical corpus and
        # queries answer byte-equal to its cold oracle.
        recovered = root.open_mutable()
        try:
            actual = [np.array(t.points) for t in recovered.snapshot()[0]]
            assert len(actual) == len(expected)
            for a, b in zip(actual, expected):
                assert np.array_equal(a, b)
            assert_engines_match(
                recovered.view(),
                _cold_oracle(recovered),
                [_walk(rng, 20)],
                "histogram,qgram",
            )
        finally:
            recovered.close()

        # And a clean compaction afterwards succeeds and folds the WAL.
        name = compact(root)
        assert json.loads(
            (root.root / "CURRENT").read_text()
        )["generation"] == name
        assert DeltaLog.read(root.wal_path) == ([], False)

    def test_crash_before_manifest_leaves_removable_orphan(self, tmp_path):
        root, _rng = self._seeded_root(tmp_path, seed=22)
        plan = FaultPlan([FaultRule(point="compact:manifest", kind="crash")])
        with pytest.raises(WorkerCrash):
            compact(root, fault_plan=plan)
        orphans = [
            p.name
            for p in root.root.iterdir()
            if p.is_dir() and not (p / "meta.json").exists()
        ]
        assert orphans  # artifacts written, completeness marker absent
        report = root.recover()
        assert report["orphans_removed"] == orphans

    def test_published_generation_is_always_complete(self, tmp_path):
        root, _rng = self._seeded_root(tmp_path, seed=23)
        for point in ("compact:fold", "compact:manifest", "compact:publish"):
            plan = FaultPlan([FaultRule(point=point, kind="crash")])
            with pytest.raises(WorkerCrash):
                compact(root, fault_plan=plan)
            pointer = json.loads((root.root / "CURRENT").read_text())
            assert (
                root.root / pointer["generation"] / "meta.json"
            ).exists()

    def test_replay_is_idempotent_after_trim_crash(self, tmp_path):
        """A generation's last_seq fences replay even if the WAL trim
        never happened (crash between publish and trim)."""
        root, rng = self._seeded_root(tmp_path, seed=24)
        records_before, _ = DeltaLog.read(root.wal_path)
        name = compact(root)
        # Simulate the un-trimmed WAL a crash after publish would leave.
        DeltaLog.rewrite(root.wal_path, records_before)
        reopened = root.open_mutable()
        try:
            assert reopened.generation == name
            assert reopened.delta_size == 0  # all records fenced by last_seq
            assert_engines_match(
                reopened.view(),
                _cold_oracle(reopened),
                [_walk(rng, 15)],
                "histogram,qgram",
            )
        finally:
            reopened.close()

    def test_store_kind_generation_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        root = IngestRoot.init(
            tmp_path / "root", _corpus(31, count=12), EPSILON, kind="store"
        )
        mutable = root.open_mutable()
        mutable.insert(_walk(rng, 18))
        mutable.delete(0)
        assert_engines_match(
            mutable.view(), _cold_oracle(mutable), [_walk(rng, 14)], "histogram,qgram"
        )
        mutable.close()
        name = compact(root)
        generation = root.open_generation(name)
        try:
            assert generation.meta["kind"] == "store"
            assert generation.tiered is not None
        finally:
            generation.close()

    def test_compact_closes_the_generation_it_reads(self, tmp_path):
        root = IngestRoot.init(
            tmp_path / "root", _corpus(33, count=6), EPSILON, kind="store"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            compact(root)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_init_refuses_existing_root(self, tmp_path):
        IngestRoot.init(tmp_path / "root", _corpus(32, count=4), EPSILON)
        with pytest.raises(IngestError, match="already an ingest root"):
            IngestRoot.init(tmp_path / "root", _corpus(32, count=4), EPSILON)

    def test_open_requires_current_pointer(self, tmp_path):
        (tmp_path / "not-a-root").mkdir()
        with pytest.raises(IngestError, match="not an ingest root"):
            IngestRoot(tmp_path / "not-a-root")


class TestSingleWriterProtocol:
    """Seqs fence across trims; reader-role opens never write."""

    def test_post_compaction_mutations_survive_reopen(self, tmp_path):
        """Regression: compaction trims the WAL, but a fresh log must
        keep counting seqs *above* the generation's last_seq fence —
        restarting at 1 makes replay silently skip every
        post-compaction mutation as already applied."""
        rng = np.random.default_rng(404)
        root = IngestRoot.init(tmp_path / "root", _corpus(17, count=12), EPSILON)
        mutable = root.open_mutable()
        mutable.insert(_walk(rng, 20))
        mutable.close()
        compact(root)  # folds seq 1, trims the WAL to empty

        mutable = root.open_mutable()
        assert mutable.log.next_seq == 2  # resumes above the fence
        live_before = len(mutable.live_uids())
        uid = mutable.insert(_walk(rng, 18))
        assert mutable.applied_seq == 2
        mutable.close()

        reopened = root.open_mutable()
        try:
            assert uid in reopened.live_uids()
            assert len(reopened.live_uids()) == live_before + 1
        finally:
            reopened.close()

        name = compact(root)
        meta = json.loads((root.root / name / "meta.json").read_text())
        assert meta["last_seq"] == 2
        assert meta["count"] == live_before + 1

    def test_reader_open_never_repairs(self, tmp_path):
        """Regression: a reader-role open (the follow-mode service)
        must not truncate the WAL or remove orphan-looking directories
        — a live mutator's in-flight append and a compaction mid-build
        are indistinguishable from crash debris."""
        rng = np.random.default_rng(405)
        root = IngestRoot.init(tmp_path / "root", _corpus(18, count=10), EPSILON)
        mutable = root.open_mutable()
        mutable.insert(_walk(rng, 16))
        mutable.insert(_walk(rng, 21))
        mutable.close()
        # An in-flight append (torn tail) and a mid-build generation.
        with open(root.wal_path, "ab") as handle:
            handle.write(b'{"body": {"seq": 3, "op": "ins')
        mid_build = root.root / "gen-000007"
        mid_build.mkdir()
        (mid_build / "data.npz").write_bytes(b"partial")
        stat_before = root.wal_path.stat()

        reader = root.open_mutable(repair=False)
        try:
            assert reader.log is None  # reader role: mutations refused a log
            assert reader.delta_size == 2  # intact prefix replayed
        finally:
            reader.close()
        stat_after = root.wal_path.stat()
        assert stat_after.st_size == stat_before.st_size
        assert stat_after.st_ino == stat_before.st_ino
        assert mid_build.exists()

        # The writer role repairs both.
        report = root.recover()
        assert report["wal_truncated"] is True
        assert report["orphans_removed"] == ["gen-000007"]
        records, torn = DeltaLog.read(root.wal_path)
        assert not torn and len(records) == 2

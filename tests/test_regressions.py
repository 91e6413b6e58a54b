"""Regression tests for specific defects found while building this library.

Each test pins a bug class at the exact input that exposed it, so the
fix cannot silently rot.  The bug descriptions double as documentation
of the subtle corners of the paper's algorithms.
"""

import json

import numpy as np
import pytest

from repro import (
    HistogramSpace,
    QgramMergeJoinPruner,
    Trajectory,
    TrajectoryDatabase,
    dtw,
    edr,
    histogram_distance,
    knn_scan,
    knn_search,
    lcss,
    mean_value_qgrams,
)
from repro.core.edr import edr_reference
from repro.data import load_csv, save_csv
from repro.data.synthetic import make_class_curve
from repro.distances.dtw import dtw_reference
from repro.index.mergejoin import (
    count_common_sorted_1d,
    count_common_sorted_2d,
    sort_means_2d,
)


class TestEdrBandMasking:
    """The banded EDR row-update uses a running-minimum trick; without
    re-masking after the accumulate, values leaked through forbidden
    cells and under-estimated the banded distance."""

    def test_band_respects_forbidden_cells(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            a = rng.normal(size=(int(rng.integers(3, 12)), 2))
            b = rng.normal(size=(int(rng.integers(3, 12)), 2))
            for band in (0, 1, 2):
                banded = edr(a, b, 0.5, band=band)
                # brute force: full-matrix DP with the band applied
                m, n = len(a), len(b)
                table = np.full((m + 1, n + 1), np.inf)
                table[0, 0] = 0.0
                for j in range(1, n + 1):
                    if j <= band:
                        table[0, j] = j
                for i in range(1, m + 1):
                    if i <= band:
                        table[i, 0] = i
                    for j in range(1, n + 1):
                        if abs(i - j) > band:
                            continue
                        matched = np.all(np.abs(a[i - 1] - b[j - 1]) <= 0.5)
                        sub = 0.0 if matched else 1.0
                        table[i, j] = min(
                            table[i - 1, j - 1] + sub,
                            table[i - 1, j] + 1.0,
                            table[i, j - 1] + 1.0,
                        )
                expected = table[m, n]
                assert banded == expected or (
                    np.isinf(banded) and np.isinf(expected)
                )


class TestDtwDiagonalIndexing:
    """The anti-diagonal DTW once included j = 0 cells in a diagonal,
    wrap-indexing the cost matrix at column -1."""

    def test_long_first_trajectory(self):
        # m > n so diagonals hit the i = d boundary that caused the wrap.
        rng = np.random.default_rng(1)
        a = rng.normal(size=(9, 2))
        b = rng.normal(size=(3, 2))
        assert dtw(a, b) == pytest.approx(dtw_reference(a, b))

    def test_every_length_combination_up_to_six(self):
        rng = np.random.default_rng(2)
        for m in range(1, 7):
            for n in range(1, 7):
                a = rng.normal(size=(m, 2))
                b = rng.normal(size=(n, 2))
                assert dtw(a, b) == pytest.approx(dtw_reference(a, b))


class TestMergeJoinBoundaryRounding:
    """The merge join once compared against precomputed ``x ± eps``
    boundaries, disagreeing with the |a-b| <= eps predicate by one ULP
    at the window edge and under-counting common Q-grams."""

    def test_tiny_negative_candidate(self):
        # found by hypothesis: fl(1.0 - (-1e-68)) == 1.0 <= eps
        query = np.array([1.0])
        candidate = np.array([-1.0e-68])
        assert count_common_sorted_1d(query, candidate, 1.0) == 1

    def test_tiny_negative_candidate_2d(self):
        query = np.array([[1.0, 0.0]])
        candidate = np.array([[-1.5207e-186, 0.0]])
        assert count_common_sorted_2d(
            sort_means_2d(query), sort_means_2d(candidate), 1.0
        ) == 1

    def test_exact_epsilon_boundary(self):
        query = np.array([0.0])
        candidate = np.array([0.5])
        assert count_common_sorted_1d(query, candidate, 0.5) == 1


class TestQgramEpsilonBoundary:
    """q=1 means were once cumsum differences: 0.05 came back as
    0.050000000000000044, so a pair exactly ε apart stopped matching,
    the common-Q-gram bound overshot EDR and the served default chain
    (which uses q=1) dismissed the true nearest neighbour."""

    def _database(self):
        corpus = [
            Trajectory(np.array([[5.0, 5.0], [5.0, 5.0]])),
            Trajectory(np.array([[0.0, 1.0], [0.0, 0.05], [0.0, 0.05]])),
        ]
        return TrajectoryDatabase(corpus, epsilon=0.05)

    def test_q1_means_are_the_points(self):
        points = np.array([[0.0, 1.0], [0.0, 0.05], [0.0, 0.05]])
        means = mean_value_qgrams(points, 1)
        assert means.tobytes() == points.tobytes()
        means[0, 0] = 7.0
        assert points[0, 0] == 0.0

    def test_knn_keeps_the_boundary_match(self):
        database = self._database()
        query = Trajectory(np.array([[0.0, 0.0], [0.0, 0.0]]))
        expected, _ = knn_scan(database, query, 1)
        got, _ = knn_search(
            database, query, 1, [QgramMergeJoinPruner(database, q=1)]
        )
        assert [(n.index, n.distance) for n in expected] == [(1, 1.0)]
        assert [(n.index, n.distance) for n in got] == [(1, 1.0)]

    def test_archives_with_stale_means_rebuild_them(self, tmp_path):
        database = self._database()
        database.sorted_qgram_means(1)
        path = tmp_path / "db.npz"
        database.save(path)
        with np.load(path) as archive:
            arrays = dict(archive)
        manifest = json.loads(str(arrays["manifest"]))
        del manifest["means_format"]
        arrays["manifest"] = np.array(json.dumps(manifest))
        arrays["m2d_1_1"] = np.nextafter(arrays["m2d_1_1"], np.inf)  # drifted
        np.savez(path, **arrays)
        loaded = TrajectoryDatabase.load(path)
        assert loaded.sorted_qgram_means(1)[1].tobytes() == (
            database.sorted_qgram_means(1)[1].tobytes()
        )


class TestQgramMeanRounding:
    """For q>1 the means are running-sum differences, so two 2-grams
    whose elements all ε-match could have means 0.10000000000000002
    apart at ε=0.1: the Q-gram bound said 0.5 where EDR is 0, on the
    scalar and the bulk path alike.  Means are now compared at a
    threshold widened by their rounding budget."""

    QUERY = [(-0.1, -0.1), (-0.15000000000000002, -0.2)]
    CANDIDATE = [(-0.2, 0.0), (-0.15000000000000002, -0.1)]

    def test_q2_bound_never_exceeds_edr(self):
        database = TrajectoryDatabase(
            [Trajectory(np.array(self.CANDIDATE))], epsilon=0.1
        )
        query = Trajectory(np.array(self.QUERY))
        assert edr(query, database.trajectories[0], 0.1) == 0.0
        prepared = QgramMergeJoinPruner(database, q=2).for_query(query)
        assert prepared.lower_bound(0) == 0.0
        assert prepared.bulk_lower_bounds()[0] == 0.0
        assert prepared.window_lower_bound(0) == 0.0
        assert prepared.bulk_window_lower_bounds()[0] == 0.0

    def test_q1_compares_at_exactly_epsilon(self):
        from repro.core.qgram import qgram_match_tolerance

        assert qgram_match_tolerance(0.1, 1, 1e300) == 0.1
        assert qgram_match_tolerance(0.1, 2, 0.7) > 0.1


class TestHistogramChainSoundness:
    """The paper's net-first CompHisDist overshoots EDR on chained
    matches; the flow form must not (this was a real false-dismissal
    bug on the motif workloads)."""

    def test_two_element_chain(self):
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        r = np.array([[0.9], [1.9]])
        s = np.array([[1.1], [2.1]])
        assert edr(r, s, 1.0) == 0.0
        assert histogram_distance(space.histogram(r), space.histogram(s)) == 0

    def test_long_drifting_chain(self):
        """A long slow drift: every aligned pair matches, yet every
        element sits one bin further along — the worst case for the
        netted formulation."""
        n = 50
        r = np.arange(n, dtype=np.float64).reshape(-1, 1)
        s = r + 0.95
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        assert edr(r, s, 1.0) == 0.0
        assert histogram_distance(space.histogram(r), space.histogram(s)) == 0

    def test_2d_diagonal_drift(self):
        n = 30
        base = np.column_stack([np.arange(n), np.arange(n)]).astype(float)
        shifted = base + 0.9
        space = HistogramSpace(origin=[0.0, 0.0], bin_size=1.0)
        assert edr(base, shifted, 1.0) == 0.0
        assert histogram_distance(
            space.histogram(base), space.histogram(shifted)
        ) == 0


class TestCsvFloatSerialization:
    """numpy 2's scalar repr ('np.float64(...)') once leaked into CSV
    output, breaking the round trip."""

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        trajectories = [Trajectory(rng.normal(size=(4, 2)))]
        path = tmp_path / "t.csv"
        save_csv(path, trajectories)
        content = path.read_text()
        assert "np.float64" not in content
        loaded = load_csv(path)
        assert np.array_equal(loaded[0].points, trajectories[0].points)


class TestCurveCoefficientBroadcasting:
    """make_class_curve's 1/k harmonic decay once failed to broadcast
    against the (2, harmonics, 2) coefficient tensor."""

    def test_curve_evaluates(self):
        curve = make_class_curve(123, harmonics=4)
        points = curve(np.linspace(0.0, 1.0, 7))
        assert points.shape == (7, 2)
        assert np.all(np.isfinite(points))


class TestLcssForcedMatchSemantics:
    """Formula 4 forces the match branch when the heads match; a
    max-of-three variant is a different (if related) function, and the
    vectorized DP must agree with the forced-form reference."""

    def test_non_transitive_matching_case(self):
        # heads match but a skip could look attractive to a max-form DP
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.4], [10.0]])
        assert lcss(a, b, 0.5) == 1.0

    def test_edr_reference_cross_check(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=(int(rng.integers(1, 9)), 1))
            b = rng.normal(size=(int(rng.integers(1, 9)), 1))
            assert edr(a, b, 0.3) == edr_reference(a, b, 0.3)

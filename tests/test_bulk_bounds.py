"""Bulk lower-bound kernels must equal the scalar bounds, value for value.

The vectorized filter phase is only sound if every entry of a bulk
array is exactly the number the scalar path would have produced — not
approximately: the engines mix both paths freely, so any divergence
would silently change answers or break the no-false-dismissal
guarantee.  These tests pin the equality per pruner family and then
check the engines end to end against the sequential scan.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    HistogramPruner,
    NearTrianglePruning,
    QgramIndexPruner,
    QgramMergeJoinPruner,
    Trajectory,
    TrajectoryDatabase,
    knn_scan,
    knn_search,
    knn_sorted_scan,
    knn_sorted_search,
)
from repro.core.histogram import (
    HistogramArrayStore,
    HistogramMatcher,
    histogram_distance_quick,
    histogram_window_bound,
)
from repro.ingest.mutable import MutableDatabase
from repro.eval import same_answers
from repro.index.mergejoin import (
    bulk_count_common,
    count_common_sorted_1d,
    count_common_sorted_2d,
    flatten_sorted_means,
    sort_means_1d,
    sort_means_2d,
)
from repro.storage.tiered import _sliced_quick_bounds

from .oracles import dinic_max_cancellation


@st.composite
def databases(draw, ndim=2):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    count = draw(st.integers(min_value=3, max_value=12))
    epsilon = draw(st.floats(0.05, 1.5, allow_nan=False))
    rng = np.random.default_rng(seed)
    trajectories = [
        Trajectory(rng.normal(size=(int(rng.integers(1, 12)), ndim)))
        for _ in range(count)
    ]
    query = Trajectory(rng.normal(size=(int(rng.integers(1, 12)), ndim)))
    return TrajectoryDatabase(trajectories, epsilon), query


COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# The deterministic corpus variants come from the session-scoped
# ``bulk_workload`` factory in conftest.py (memoized per parameter set).


@st.composite
def grid_histograms(draw):
    """Histograms on a small 1-, 2- or 3-D grid, dense enough that bins
    meet their neighbours, a query histogram, and a shift that moves the
    query partly or wholly off the rows' padded grid."""
    ndim = draw(st.integers(1, 3))
    bins = st.tuples(*[st.integers(-2, 2)] * ndim)
    histogram = st.dictionaries(bins, st.integers(1, 4), max_size=10)
    rows = draw(st.lists(histogram, min_size=1, max_size=8))
    return ndim, rows, draw(histogram), draw(st.integers(-5, 5))


def _same_bin_ceiling(query_histogram, candidate):
    """The ceiling the greedy one replaced: HD's ``max(m, n)`` minus the
    elements paired within the same bin only."""
    paired = sum(
        min(count, candidate.get(bin_index, 0))
        for bin_index, count in query_histogram.items()
    )
    return max(sum(query_histogram.values()), sum(candidate.values())) - paired


def _store_variants(database, query):
    """``(store, query histogram, candidate histograms)`` for the 2-D
    store and each 1-D per-axis store."""
    for axis in (None, *range(database.ndim)):
        space, histograms = database.histograms(delta=1.0, axis=axis)
        projected = query if axis is None else query.projection(axis)
        store = database.histogram_arrays(delta=1.0, axis=axis)
        yield store, space.histogram(projected), histograms


# ----------------------------------------------------------------------
# Kernel-level equality
# ----------------------------------------------------------------------
class TestHistogramKernel:
    @COMMON_SETTINGS
    @given(databases())
    def test_array_store_matches_dict_quick_bound(self, case):
        database, query = case
        store = database.histogram_arrays(delta=1.0)
        space, histograms = database.histograms(delta=1.0)
        query_histogram = space.histogram(query)
        bulk = store.bulk_quick_bounds(query_histogram)
        for index, candidate in enumerate(histograms):
            assert bulk[index] == histogram_distance_quick(
                query_histogram, candidate
            )

    @COMMON_SETTINGS
    @given(databases())
    def test_per_axis_store_matches_dict_quick_bound(self, case):
        database, query = case
        for axis in range(database.ndim):
            store = database.histogram_arrays(delta=1.0, axis=axis)
            space, histograms = database.histograms(delta=1.0, axis=axis)
            query_histogram = space.histogram(query.projection(axis))
            bulk = store.bulk_quick_bounds(query_histogram)
            for index, candidate in enumerate(histograms):
                assert bulk[index] == histogram_distance_quick(
                    query_histogram, candidate
                )

    @COMMON_SETTINGS
    @given(databases())
    def test_csr_store_and_row_slices_match_dict_quick_bound(self, case):
        """Every row slice (shard stores, tiered blocks) of the 2-D and
        the per-axis stores equals the scalar bound too."""
        database, query = case
        for store, query_histogram, histograms in _store_variants(database, query):
            want = [
                histogram_distance_quick(query_histogram, candidate)
                for candidate in histograms
            ]
            for lo in range(len(histograms)):
                for hi in (lo, lo + 1, len(histograms)):
                    piece, _ = _sliced_quick_bounds(store, query_histogram, lo, hi)
                    assert piece.tolist() == want[lo:hi]

    @COMMON_SETTINGS
    @given(databases())
    def test_window_bounds_match_dict_window_bound(self, case):
        database, query = case
        for store, query_histogram, histograms in _store_variants(database, query):
            far = {tuple(key + 1000 for key in next(iter(query_histogram))): 2}
            for histogram in (query_histogram, {}, far):
                bulk = store.bulk_window_bounds(histogram)
                assert bulk.dtype == np.int64
                assert bulk.tolist() == [
                    histogram_window_bound(histogram, candidate)
                    for candidate in histograms
                ]
                assert store.bulk_quick_bounds(histogram).tolist() == [
                    histogram_distance_quick(histogram, candidate)
                    for candidate in histograms
                ]


class TestMergeJoinKernel:
    @COMMON_SETTINGS
    @given(databases())
    def test_bulk_count_matches_per_candidate_2d(self, case):
        database, query = case
        q = 1
        per_candidate = database.sorted_qgram_means(q)
        pool_values, pool_owners = flatten_sorted_means(
            [np.asarray(c) for c in per_candidate]
        )
        from repro.core.qgram import mean_value_qgrams

        query_sorted = sort_means_2d(mean_value_qgrams(query, q))
        bulk = bulk_count_common(
            query_sorted, pool_values, pool_owners, len(database), database.epsilon
        )
        for index, candidate in enumerate(per_candidate):
            assert bulk[index] == count_common_sorted_2d(
                query_sorted, candidate, database.epsilon
            )

    @COMMON_SETTINGS
    @given(databases())
    def test_bulk_count_matches_per_candidate_1d(self, case):
        database, query = case
        q = 2
        per_candidate = database.sorted_qgram_means_1d(q, 0)
        pool_values, pool_owners = flatten_sorted_means(
            [np.asarray(c) for c in per_candidate]
        )
        from repro.core.qgram import mean_value_qgrams

        query_sorted = sort_means_1d(mean_value_qgrams(query.projection(0), q))
        bulk = bulk_count_common(
            query_sorted, pool_values, pool_owners, len(database), database.epsilon
        )
        for index, candidate in enumerate(per_candidate):
            assert bulk[index] == count_common_sorted_1d(
                query_sorted, candidate, database.epsilon
            )

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_size_never_changes_counts(self, monkeypatch, chunk):
        from repro.core.qgram import mean_value_qgrams
        from repro.index import mergejoin

        rng = np.random.default_rng(chunk)
        per_candidate = [
            sort_means_2d(np.cumsum(rng.normal(size=(int(rng.integers(5, 30)), 2)), axis=0))
            for _ in range(40)
        ]
        pool_values, pool_owners = flatten_sorted_means(per_candidate)
        query = sort_means_2d(
            mean_value_qgrams(np.cumsum(rng.normal(size=(25, 2)), axis=0), 1)
        )
        whole = bulk_count_common(query, pool_values, pool_owners, 40, 0.8)
        monkeypatch.setattr(mergejoin, "_BULK_CHUNK", chunk)
        chunked = bulk_count_common(query, pool_values, pool_owners, 40, 0.8)
        assert chunked.tolist() == whole.tolist()
        assert whole.tolist() == [
            count_common_sorted_2d(query, candidate, 0.8) for candidate in per_candidate
        ]
        assert whole.any()

    def test_empty_query_and_empty_pool(self):
        empty_values, empty_owners = flatten_sorted_means([])
        counts = bulk_count_common(
            np.empty((0, 2)), empty_values, empty_owners, 0, 0.5
        )
        assert counts.shape == (0,)
        values, owners = flatten_sorted_means([np.zeros((3, 2))])
        counts = bulk_count_common(np.empty((0, 2)), values, owners, 1, 0.5)
        assert counts.tolist() == [0]


# ----------------------------------------------------------------------
# Row subsets and exact-stage ceilings (the on-demand filter stages)
# ----------------------------------------------------------------------
def _row_sets(data, size):
    """Empty, single, all and a random distinct subset, as index arrays."""
    indices = st.integers(0, size - 1)
    return [
        np.array(rows, dtype=np.int64)
        for rows in (
            [],
            [data.draw(indices)],
            list(range(size)),
            data.draw(st.lists(indices, unique=True)),
        )
    ]


class TestRowSubsets:
    @COMMON_SETTINGS
    @given(
        databases(),
        st.sampled_from([1, 2, 3]),
        st.booleans(),
        st.integers(0, 3),
        st.data(),
    )
    def test_subset_qgram_bounds_equal_full_rows(
        self, case, q, two_dimensional, edits, data
    ):
        """PS1 and PS2 at ``qgram_match_tolerance``, on the database and
        on a merged view whose pool is derived from it."""
        database, query = case
        QgramMergeJoinPruner(database, q=q, two_dimensional=two_dimensional)
        mutable = MutableDatabase(database)
        for edit in range(edits):
            mutable.insert(query if edit % 2 else database.trajectories[edit])
        if edits and len(database) > 1:
            mutable.delete(edits % len(database))
        for corpus in (database, mutable.view()):
            pruner = QgramMergeJoinPruner(
                corpus, q=q, two_dimensional=two_dimensional
            )
            query_pruner = pruner.for_query(query)
            assert query_pruner._epsilon == pruner.match_tolerance(query)
            full = query_pruner.bulk_quick_lower_bounds()
            for rows in _row_sets(data, len(corpus)):
                subset = query_pruner.bulk_quick_lower_bounds(rows)
                assert subset.dtype == full.dtype
                assert subset.tobytes() == full[rows].tobytes()
                for position, row in enumerate(rows):
                    assert subset[position] == query_pruner.quick_lower_bound(row)

    @COMMON_SETTINGS
    @given(databases(), st.data())
    def test_subset_histogram_bounds_equal_full_rows(self, case, data):
        database, query = case
        for per_axis in (False, True):
            query_pruner = HistogramPruner(database, per_axis=per_axis).for_query(query)
            full = query_pruner.bulk_quick_lower_bounds()
            ceilings = query_pruner.exact_ceilings(np.arange(len(database)))
            for rows in _row_sets(data, len(database)):
                fresh = HistogramPruner(database, per_axis=per_axis).for_query(query)
                assert fresh.bulk_quick_lower_bounds(rows).tobytes() == full[rows].tobytes()
                assert fresh.exact_ceilings(rows).tobytes() == ceilings[rows].tobytes()

    @COMMON_SETTINGS
    @given(databases(), st.integers(-3, 3))
    def test_ceiling_bounds_the_exact_histogram_distance(self, case, shift):
        """Every row, 2-D and per-axis stores, query bins partly or wholly
        off the store grid, empty query and empty candidate histograms."""
        database, query = case
        for store, query_histogram, histograms in _store_variants(database, query):
            histograms = list(histograms) + [{}]
            store = HistogramArrayStore(histograms, store.ndim)
            shifted = {
                tuple(key + shift * 4 for key in bin_index): count
                for bin_index, count in query_histogram.items()
            }
            far = {tuple(key + 1000 for key in next(iter(query_histogram))): 2}
            for histogram in (query_histogram, shifted, far, {}):
                matcher = HistogramMatcher(histogram)
                probe = store.query_probe(histogram)
                quick = store.probe_rows(probe)
                ceilings = store.probe_ceilings(probe, np.arange(len(histograms)))
                assert ceilings.dtype == np.int64
                for row, candidate in enumerate(histograms):
                    assert quick[row] == histogram_distance_quick(histogram, candidate)
                    assert ceilings[row] >= matcher.distance(candidate)

    @COMMON_SETTINGS
    @given(grid_histograms(), st.data())
    def test_greedy_ceiling_lies_between_exact_and_same_bin(self, case, data):
        """Every row's ceiling is >= HD from the Dinic oracle and <= the
        same-bin ceiling, in 1-D, 2-D and 3-D, for queries on, partly
        off and wholly off the padded grid and for empty query and
        candidate histograms; any row window gives the values of the
        pass over every row bit for bit."""
        ndim, histograms, query_histogram, shift = case
        histograms = histograms + [{}]
        store = HistogramArrayStore(histograms, ndim)
        shifted = {
            tuple(key + shift for key in bin_index): count
            for bin_index, count in query_histogram.items()
        }
        every_row = np.arange(len(histograms))
        for histogram in (query_histogram, shifted, {}):
            probe = store.query_probe(histogram)
            ceilings = store.probe_ceilings(probe, every_row)
            assert ceilings.dtype == np.int64
            longer = sum(histogram.values())
            for row, candidate in enumerate(histograms):
                exact = max(longer, sum(candidate.values())) - dinic_max_cancellation(
                    histogram, candidate
                )
                assert exact <= ceilings[row] <= _same_bin_ceiling(histogram, candidate)
            for rows in _row_sets(data, len(histograms)):
                window = store.probe_ceilings(probe, rows)
                assert window.tobytes() == ceilings[rows].tobytes()

    @COMMON_SETTINGS
    @given(st.integers(1, 3).flatmap(lambda ndim: databases(ndim=ndim)))
    def test_per_axis_ceiling_is_the_max_over_axes(self, case):
        """The per-axis pruner's ceiling is the max of its axes' ceilings,
        between the exact per-axis HD and the max of the same-bin ones."""
        database, query = case
        query_pruner = HistogramPruner(database, per_axis=True).for_query(query)
        every_row = np.arange(len(database))
        ceilings = query_pruner.exact_ceilings(every_row)
        axes = list(_store_variants(database, query))[1:]
        want = np.max(
            [
                store.probe_ceilings(store.query_probe(histogram), every_row)
                for store, histogram, _ in axes
            ],
            axis=0,
        )
        assert ceilings.tolist() == want.tolist()
        for row in every_row:
            same_bin = max(
                _same_bin_ceiling(histogram, histograms[row])
                for _, histogram, histograms in axes
            )
            assert query_pruner.exact_lower_bound(row) <= ceilings[row] <= same_bin

    @COMMON_SETTINGS
    @given(databases(), st.floats(0.0, 12.0, allow_nan=False))
    def test_ceiling_never_hides_an_exact_prune(self, case, threshold):
        """Per query pruner (the per-axis max included): the exact stage
        is only skipped where it could not have pruned."""
        database, query = case
        for per_axis in (False, True):
            query_pruner = HistogramPruner(database, per_axis=per_axis).for_query(query)
            ceilings = query_pruner.exact_ceilings(np.arange(len(database)))
            for row in range(len(database)):
                exact = query_pruner.exact_lower_bound(row)
                assert ceilings[row] >= exact
                if ceilings[row] <= threshold:
                    assert not exact > threshold


# ----------------------------------------------------------------------
# Query-pruner-level equality (bulk array entry == scalar method)
# ----------------------------------------------------------------------
def _pruner_families(database):
    families = [
        HistogramPruner(database),
        HistogramPruner(database, per_axis=True),
        HistogramPruner(database, delta=2.0),
        QgramMergeJoinPruner(database, q=1),
        QgramMergeJoinPruner(database, q=2),
        QgramMergeJoinPruner(database, q=1, two_dimensional=False),
        QgramIndexPruner(database, q=1, structure="rtree"),
        QgramIndexPruner(database, q=1, structure="bptree"),
    ]
    return families


@COMMON_SETTINGS
@given(databases())
def test_static_bulk_bounds_equal_scalar(case):
    database, query = case
    for pruner in _pruner_families(database):
        query_pruner = pruner.for_query(query)
        quick = query_pruner.bulk_quick_lower_bounds()
        exact = query_pruner.bulk_lower_bounds()
        assert len(quick) == len(database)
        assert len(exact) == len(database)
        for index in range(len(database)):
            assert quick[index] == query_pruner.quick_lower_bound(index), pruner.name
            assert exact[index] == query_pruner.exact_lower_bound(index), pruner.name


@COMMON_SETTINGS
@given(databases(), st.floats(0.0, 10.0, allow_nan=False))
def test_thresholded_bulk_prunes_exactly_like_scalar(case, threshold):
    """The engines only compare bounds against a threshold; the staged
    bulk array must make the same prune/keep decision as the staged
    scalar ``lower_bound`` for every candidate, and stay sound."""
    database, query = case
    for pruner in _pruner_families(database):
        query_pruner = pruner.for_query(query)
        bounds = query_pruner.bulk_lower_bounds(threshold)
        for index in range(len(database)):
            scalar = query_pruner.lower_bound(index, threshold)
            assert (bounds[index] > threshold) == (scalar > threshold), pruner.name
            assert bounds[index] <= query_pruner.exact_lower_bound(index), pruner.name


@COMMON_SETTINGS
@given(databases())
def test_near_triangle_bulk_tracks_recorded_state(case):
    from repro.core.edr import edr

    database, query = case
    pruner = NearTrianglePruning(database, max_triangle=6)
    query_pruner = pruner.for_query(query)
    # Before any recorded distance, the bound is identically zero.
    assert np.all(query_pruner.bulk_lower_bounds() == 0.0)
    for index in range(min(4, len(database))):
        distance = edr(query, database.trajectories[index], database.epsilon)
        query_pruner.record(index, distance)
        bulk = query_pruner.bulk_lower_bounds()
        for candidate in range(len(database)):
            assert bulk[candidate] == query_pruner.lower_bound(candidate)


def test_dynamic_pruner_is_marked_dynamic(bulk_workload):
    database, query = bulk_workload(count=10)
    assert NearTrianglePruning(database, max_triangle=3).for_query(query).dynamic
    assert not HistogramPruner(database).for_query(query).dynamic
    assert HistogramPruner(database).for_query(query).two_stage
    assert not QgramMergeJoinPruner(database).for_query(query).two_stage


def test_default_bulk_falls_back_to_scalar_loop():
    """Third-party pruners that only implement ``lower_bound`` still get
    working bulk kernels from the base class."""
    from repro.core.search import QueryPruner

    class Constant(QueryPruner):
        name = "constant"

        def __init__(self, size, value):
            self.database_size = size
            self._value = value

        def lower_bound(self, candidate_index, threshold=float("inf")):
            return self._value + candidate_index

    query_pruner = Constant(5, 1.5)
    assert query_pruner.bulk_quick_lower_bounds().tolist() == [
        1.5, 2.5, 3.5, 4.5, 5.5,
    ]
    assert query_pruner.bulk_lower_bounds(3.0).tolist() == [
        1.5, 2.5, 3.5, 4.5, 5.5,
    ]


# ----------------------------------------------------------------------
# Engine-level equality: every engine on top of the bulk kernels must
# still return exactly the sequential-scan answers.
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(databases(), st.integers(min_value=1, max_value=6))
def test_sorted_search_matches_scan_for_every_primary(case, k):
    database, query = case
    k = min(k, len(database))
    expected, _ = knn_scan(database, query, k)
    primaries = [
        HistogramPruner(database),
        QgramMergeJoinPruner(database, q=1),
        NearTrianglePruning(database, max_triangle=5),
    ]
    for position, primary in enumerate(primaries):
        secondary = [p for i, p in enumerate(primaries) if i != position]
        actual, _ = knn_sorted_search(database, query, k, primary, secondary)
        assert same_answers(expected, actual), primary.name


@COMMON_SETTINGS
@given(databases(), st.integers(min_value=1, max_value=6))
def test_sorted_scan_matches_scan_for_every_pruner(case, k):
    database, query = case
    k = min(k, len(database))
    expected, _ = knn_scan(database, query, k)
    for pruner in _pruner_families(database):
        actual, _ = knn_sorted_scan(database, query, k, pruner)
        assert same_answers(expected, actual), pruner.name


def test_search_with_all_families_matches_scan_deterministic(bulk_workload):
    database, query = bulk_workload()
    expected, _ = knn_scan(database, query, 7)
    pruners = _pruner_families(database) + [
        NearTrianglePruning(database, max_triangle=8)
    ]
    actual, stats = knn_search(database, query, 7, pruners)
    assert same_answers(expected, actual)
    assert stats.true_distance_computations + sum(
        stats.pruned_by.values()
    ) == len(database)

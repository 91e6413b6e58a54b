"""Ablation — early-abandoning EDR inside the k-NN loop.

Not in the paper (its EDR is always computed in full), but a natural
optimization this library adds: once a DP row's minimum exceeds the
current k-th best distance the true distance cannot win, so the
computation stops.  This ablation measures the wall-clock effect with
and without pruning filters in front.
"""

import pytest

from conftest import write_report
from _workloads import member_queries
from repro import HistogramPruner, knn_search
from _sweeps import run_sweep

K = 20


@pytest.fixture(scope="module")
def abandon_sweep(kungfu_database):
    database = kungfu_database
    queries = member_queries(database, count=3, seed=81)
    histogram = HistogramPruner(database)
    engines = {
        "full-edr": lambda db, q, k: knn_search(db, q, k, []),
        "abandon": lambda db, q, k: knn_search(db, q, k, [], early_abandon=True),
        "hist+full": lambda db, q, k: knn_search(db, q, k, [histogram], order="index"),
        "hist+abandon": lambda db, q, k: knn_search(
            db, q, k, [histogram], early_abandon=True, order="index"
        ),
    }
    return database, run_sweep(database, queries, K, engines)


@pytest.mark.benchmark(group="ablation-early-abandon")
def test_early_abandon_report(benchmark, abandon_sweep):
    database, reports = abandon_sweep
    write_report(
        "ablation_early_abandon",
        f"Ablation: early-abandoning EDR on Kungfu-like data (k={K})",
        [report.row() for report in reports.values()],
    )
    for report in reports.values():
        assert report.all_answers_match
    # Early abandon only skips work, it never changes pruning-power
    # accounting (abandoned candidates still count as computed).
    assert (
        reports["abandon"].mean_pruning_power
        == reports["full-edr"].mean_pruning_power
    )
    query = member_queries(database, count=1, seed=82)[0]
    benchmark.pedantic(
        lambda: knn_search(database, query, K, [], early_abandon=True),
        rounds=2,
        iterations=1,
    )

"""Ablation — near-triangle pruning vs the reference budget (maxTriangle).

The paper states "the larger maxTriangle is, the more pruning power can
be achieved" and fixes 400 references for its large databases.  This
ablation sweeps maxTriangle on the RandU workload (where NTI actually
fires, see Table 3) and verifies the monotone trend and the diminishing
returns that justify a bounded buffer.
"""

import pytest

from conftest import write_report
from _workloads import build_database, member_queries
from repro import NearTrianglePruning, knn_search
from repro.data import make_random_walk_set
from _sweeps import run_sweep

K = 20
BUDGETS = (5, 20, 50, 100)


@pytest.fixture(scope="module")
def maxtriangle_sweep():
    raw = make_random_walk_set(
        count=300, min_length=30, max_length=256,
        length_distribution="uniform", seed=8,
    )
    database = build_database(raw, epsilon=1.5)
    queries = member_queries(database, count=3, seed=31)
    engines = {}
    for budget in BUDGETS:
        pruner = NearTrianglePruning(database, max_triangle=budget, policy="short")
        engines[f"maxTriangle={budget}"] = (
            lambda db, query, k, p=pruner: knn_search(db, query, k, [p], order="index")
        )
    return database, run_sweep(database, queries, K, engines)


@pytest.mark.benchmark(group="ablation-maxtriangle")
def test_maxtriangle_report(benchmark, maxtriangle_sweep):
    database, reports = maxtriangle_sweep
    write_report(
        "ablation_maxtriangle",
        f"Ablation: NTI pruning power vs maxTriangle (RandU, k={K})",
        [report.row() for report in reports.values()],
    )
    for report in reports.values():
        assert report.all_answers_match
    powers = [reports[f"maxTriangle={b}"].mean_pruning_power for b in BUDGETS]
    # The paper's claim: more references never hurt pruning power.
    for smaller, larger in zip(powers, powers[1:]):
        assert larger >= smaller - 1e-9
    query = member_queries(database, count=1, seed=32)[0]
    pruner = NearTrianglePruning(database, max_triangle=50, policy="short")
    benchmark.pedantic(
        lambda: knn_search(database, query, K, [pruner], order="index"),
        rounds=2,
        iterations=1,
    )

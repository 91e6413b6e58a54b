"""Engine sweeps shared by the efficiency benchmarks (Figures 7-13).

``run_sweep`` evaluates a set of named engines against one database and
query batch, timing a sequential scan once per query and asserting that
every engine returns scan-identical answers (the no-false-dismissal
check), then reports pruning power and speedup ratio per engine — the
two series every efficiency figure in the paper plots.

The paper's sequential methods (HSE, the Q-gram scans, NTR and the
Figure 11 application orders) run :func:`repro.knn_search` with
``order="index"``; its default bound order is the paper's HSR.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro import (
    HistogramPruner,
    NearTrianglePruning,
    QgramMergeJoinPruner,
    Trajectory,
    TrajectoryDatabase,
    knn_qgram_index,
    knn_scan,
    knn_search,
    knn_sorted_scan,
    knn_sorted_search,
)
from repro.core.search import SearchResult
from repro.eval import EfficiencyReport, same_answers

Engine = Callable[[TrajectoryDatabase, Trajectory, int], SearchResult]


def run_sweep(
    database: TrajectoryDatabase,
    queries: Sequence[Trajectory],
    k: int,
    engines: Dict[str, Engine],
) -> Dict[str, EfficiencyReport]:
    """Evaluate every engine on every query; scan timed once per query."""
    scans = [knn_scan(database, query, k) for query in queries]
    scan_seconds = float(np.mean([stats.elapsed_seconds for _, stats in scans]))
    reports: Dict[str, EfficiencyReport] = {}
    for name, engine in engines.items():
        powers: List[float] = []
        seconds: List[float] = []
        all_match = True
        for query, (scan_neighbors, _) in zip(queries, scans):
            neighbors, stats = engine(database, query, k)
            powers.append(stats.pruning_power)
            seconds.append(stats.elapsed_seconds)
            if not same_answers(scan_neighbors, neighbors):
                all_match = False
        reports[name] = EfficiencyReport(
            method=name,
            query_count=len(queries),
            mean_pruning_power=float(np.mean(powers)),
            mean_scan_seconds=scan_seconds,
            mean_method_seconds=float(np.mean(seconds)),
            all_answers_match=all_match,
        )
    return reports


# ----------------------------------------------------------------------
# Engine families per figure
# ----------------------------------------------------------------------
def qgram_engines(database: TrajectoryDatabase, sizes=(1, 2, 3, 4)) -> Dict[str, Engine]:
    """Figures 7-8: PR / PB / PS2 / PS1 for each Q-gram size.

    Index builds (R-tree, B+-tree) and mean-value sorting happen here —
    they are offline artifacts, excluded from the per-query timing just
    as the paper excludes index construction.
    """
    engines: Dict[str, Engine] = {}
    for q in sizes:
        database.qgram_rtree(q)
        database.qgram_bptree(q)
        database.sorted_qgram_means(q)
        database.sorted_qgram_means_1d(q)
        engines[f"PR-q{q}"] = (
            lambda db, query, k, q=q: knn_qgram_index(db, query, k, q=q, structure="rtree")
        )
        engines[f"PB-q{q}"] = (
            lambda db, query, k, q=q: knn_qgram_index(db, query, k, q=q, structure="bptree")
        )
        engines[f"PS2-q{q}"] = (
            lambda db, query, k, q=q: knn_search(
                db, query, k, [QgramMergeJoinPruner(db, q=q)], order="index"
            )
        )
        engines[f"PS1-q{q}"] = (
            lambda db, query, k, q=q: knn_search(
                db, query, k, [QgramMergeJoinPruner(db, q=q, two_dimensional=False)],
                order="index",
            )
        )
    return engines


def histogram_engines(database: TrajectoryDatabase) -> Dict[str, Engine]:
    """Figures 9-10: 1HE and 2HE/2H2E/2H3E/2H4E, each via HSE and HSR."""
    variants = [("1HE", dict(per_axis=True, delta=1.0))] + [
        (f"2H{'' if delta == 1 else delta}E", dict(per_axis=False, delta=float(delta)))
        for delta in (1, 2, 3, 4)
    ]
    engines: Dict[str, Engine] = {}
    for label, kwargs in variants:
        pruner = HistogramPruner(database, **kwargs)
        engines[f"HSE-{label}"] = (
            lambda db, query, k, p=pruner: knn_search(db, query, k, [p], order="index")
        )
        engines[f"HSR-{label}"] = (
            lambda db, query, k, p=pruner: knn_sorted_scan(db, query, k, p)
        )
    return engines


def combination_engines(
    database: TrajectoryDatabase, max_triangle: int = 50
) -> Dict[str, Engine]:
    """Figure 11: all six application orders of the three pruning methods.

    H = trajectory histograms (bin size eps), P = mean-value Q-grams
    (PS2, size 1), N = near triangle inequality.  The paper's labels are
    e.g. 2HPN = histograms, then Q-grams, then NTI.
    """
    histogram = HistogramPruner(database)
    qgram = QgramMergeJoinPruner(database, q=1)
    nti = NearTrianglePruning(database, max_triangle=max_triangle)
    orders = {
        "2HPN": [histogram, qgram, nti],
        "2HNP": [histogram, nti, qgram],
        "P2HN": [qgram, histogram, nti],
        "PN2H": [qgram, nti, histogram],
        "N2HP": [nti, histogram, qgram],
        "NP2H": [nti, qgram, histogram],
    }
    return {
        name: (
            lambda db, query, k, ps=pruners: knn_search(db, query, k, ps, order="index")
        )
        for name, pruners in orders.items()
    }


def combined_vs_single_engines(
    database: TrajectoryDatabase, max_triangle: int = 50
) -> Dict[str, Engine]:
    """Figures 12-13: NTR alone, single filters, and the two combined
    methods (1HPN with per-axis histograms, 2HPN with trajectory
    histograms), all using the best settings found earlier (HSR order for
    the histogram stage, PS2 with Q-grams of size 1)."""
    histogram_2d = HistogramPruner(database)
    histogram_1d = HistogramPruner(database, per_axis=True)
    qgram = QgramMergeJoinPruner(database, q=1)
    nti = NearTrianglePruning(database, max_triangle=max_triangle)
    return {
        "NTR": lambda db, query, k: knn_search(db, query, k, [nti], order="index"),
        "PS2": lambda db, query, k: knn_search(db, query, k, [qgram], order="index"),
        "HSR-2HE": lambda db, query, k: knn_sorted_scan(db, query, k, histogram_2d),
        "1HPN": lambda db, query, k: knn_sorted_search(
            db, query, k, histogram_1d, [qgram, nti]
        ),
        "2HPN": lambda db, query, k: knn_sorted_search(
            db, query, k, histogram_2d, [qgram, nti]
        ),
    }


def format_report_rows(reports: Dict[str, EfficiencyReport]) -> List[str]:
    return [report.row() for report in reports.values()]

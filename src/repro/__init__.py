"""repro — Robust and fast similarity search for moving object trajectories.

A complete, from-scratch reproduction of Chen, Özsu & Oria (SIGMOD 2005):
the EDR distance function, the four baseline distances it is compared
against (Euclidean, DTW, ERP, LCSS), and the three no-false-dismissal
pruning techniques for exact k-NN retrieval (mean-value Q-grams, near
triangle inequality, trajectory histograms), plus the data generators
and evaluation protocols behind every table and figure in the paper.

Quick start::

    from repro import Trajectory, edr, TrajectoryDatabase, knn_search
    from repro import HistogramPruner

    database = TrajectoryDatabase(trajectories, epsilon=0.25)
    neighbors, stats = knn_search(
        database, query, k=5, pruners=[HistogramPruner(database)]
    )
"""

from .core.database import TrajectoryDatabase
from .core.edr import edr, edr_matrix
from .core.edr_batch import edr_many, edr_many_bucketed
from .core.edr_bitparallel import edr_bitparallel, edr_many_bitparallel
from .core.histogram import HistogramSpace, histogram_distance
from .core.kernels import KERNEL_CHOICES, kernel_report, run_kernel
from .core.matching import elements_match, match_bits, match_matrix, suggest_epsilon
from .core.search import (
    HistogramPruner,
    NearTrianglePruning,
    Neighbor,
    QgramIndexPruner,
    QgramMergeJoinPruner,
    SearchStats,
    knn_qgram_index,
    knn_scan,
    knn_search,
    knn_sorted_scan,
    knn_sorted_search,
)
from .core.alignment import edr_alignment, subtrajectory_edr
from .core.batch import BatchResult, knn_batch
from .core.join import similarity_join
from .core.lcss_search import knn_lcss_scan, knn_lcss_search
from .core.qgram import mean_value_qgrams
from .core.faults import FaultPlan, FaultRule
from .core.rangequery import range_scan, range_search
from .core.subtrajectory import (
    DEFAULT_WINDOW_ALPHA,
    WindowMatch,
    edr_windows,
    edr_windows_many,
    resolve_window_range,
    subknn_search,
)
from .ingest import DeltaLog, IngestRoot, MutableDatabase
from .ingest import compact as compact_ingest_root
from .core.sharding import ShardedDatabase, ShardedSearchStats
from .core.trajectory import Trajectory
from .distances.base import available_distances, get_distance
from .distances.dtw import dtw
from .distances.erp import erp
from .distances.euclidean import euclidean
from .distances.lcss import lcss, lcss_distance

__version__ = "1.0.0"

__all__ = [
    "Trajectory",
    "TrajectoryDatabase",
    "edr",
    "edr_bitparallel",
    "edr_many",
    "edr_many_bitparallel",
    "edr_many_bucketed",
    "edr_matrix",
    "KERNEL_CHOICES",
    "kernel_report",
    "run_kernel",
    "euclidean",
    "dtw",
    "erp",
    "lcss",
    "lcss_distance",
    "elements_match",
    "match_bits",
    "match_matrix",
    "suggest_epsilon",
    "mean_value_qgrams",
    "HistogramSpace",
    "histogram_distance",
    "Neighbor",
    "SearchStats",
    "HistogramPruner",
    "QgramMergeJoinPruner",
    "QgramIndexPruner",
    "NearTrianglePruning",
    "knn_scan",
    "knn_search",
    "knn_sorted_scan",
    "knn_sorted_search",
    "knn_qgram_index",
    "knn_batch",
    "BatchResult",
    "ShardedDatabase",
    "ShardedSearchStats",
    "FaultPlan",
    "FaultRule",
    "DeltaLog",
    "IngestRoot",
    "MutableDatabase",
    "compact_ingest_root",
    "knn_lcss_scan",
    "knn_lcss_search",
    "edr_alignment",
    "subtrajectory_edr",
    "DEFAULT_WINDOW_ALPHA",
    "WindowMatch",
    "edr_windows",
    "edr_windows_many",
    "resolve_window_range",
    "subknn_search",
    "similarity_join",
    "range_scan",
    "range_search",
    "available_distances",
    "get_distance",
]

"""Benchmark: bulk lower-bound kernels and the multi-query batch engine.

Measures, on a synthetic random-walk database (2000 trajectories by
default):

* the *filter phase* — computing every pruner's quick lower bound for
  the whole database — through the old scalar per-candidate path versus
  the vectorized bulk kernels, per pruner family;
* the *exact histogram stage* on the candidates a bound-order k-NN
  visits: the matcher (HD's max-flow) on every visit versus the greedy
  matching ceilings, in the engines' 64-row windows, plus the matcher
  only where a ceiling exceeds the threshold;
* a 4-query serving workload answered by four sequential
  :func:`repro.knn_search` calls versus one :func:`repro.knn_batch`
  call with 4 workers.

Run it directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_bulk_bounds.py

Results are printed as a table and written to ``BENCH_bulk_bounds.json``
in the repository root.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro import (
    HistogramPruner,
    QgramMergeJoinPruner,
    Trajectory,
    TrajectoryDatabase,
    knn_batch,
    knn_search,
)
from repro.core.search import CEILING_WINDOW

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_database(count: int, seed: int = 0) -> TrajectoryDatabase:
    rng = np.random.default_rng(seed)
    trajectories = [
        Trajectory(
            np.cumsum(rng.normal(size=(int(rng.integers(30, 120)), 2)), axis=0)
        )
        for _ in range(count)
    ]
    return TrajectoryDatabase(trajectories, epsilon=0.5)


def best_of(repeats: int, function) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def bench_filter_phase(database, query, repeats: int) -> dict:
    """Scalar vs bulk quick-bound computation over the whole database."""
    results = {}
    families = {
        "histogram-2d": HistogramPruner(database),
        "histogram-1d": HistogramPruner(database, per_axis=True),
        "qgram-ps2(q=1)": QgramMergeJoinPruner(database, q=1),
        "qgram-ps1(q=1)": QgramMergeJoinPruner(
            database, q=1, two_dimensional=False
        ),
    }
    size = len(database)
    for name, pruner in families.items():
        pruner.for_query(query)  # warm the database-side artifacts

        def scalar():
            query_pruner = pruner.for_query(query)
            return [query_pruner.quick_lower_bound(i) for i in range(size)]

        def bulk():
            # A fresh query pruner every repeat: no memoized bulk array.
            return pruner.for_query(query).bulk_quick_lower_bounds()

        scalar_seconds = best_of(repeats, scalar)
        bulk_seconds = best_of(repeats, bulk)
        # The two paths must agree exactly — a benchmark that compares
        # different answers measures nothing.
        assert np.array_equal(np.asarray(scalar()), np.asarray(bulk()))
        results[name] = {
            "scalar_seconds": scalar_seconds,
            "bulk_seconds": bulk_seconds,
            "speedup": scalar_seconds / bulk_seconds if bulk_seconds else float("inf"),
        }
    return results


def bench_exact_stage(database, queries, k: int, repeats: int) -> dict:
    """Matcher on every visit vs ceilings plus the remaining matcher calls.

    A query's visits are the candidates a bound-order k-NN reaches: in
    ascending quick bound, those whose quick bound is <= the k-th
    distance, which is the threshold here.  Both sides decide, per
    visit, whether the exact HD exceeds the threshold.
    """
    pruner = HistogramPruner(database)
    cases = []
    for query in queries:
        neighbors, _ = knn_search(database, query, k, [pruner])
        threshold = neighbors[-1].distance
        quick = pruner.for_query(query).bulk_quick_lower_bounds()
        order = np.argsort(quick, kind="stable")
        cases.append((query, threshold, order[quick[order] <= threshold]))

    def matcher_everywhere():
        decisions = []
        for query, threshold, visits in cases:
            query_pruner = pruner.for_query(query)
            decisions.append(
                [query_pruner.exact_lower_bound(int(c)) > threshold for c in visits]
            )
        return decisions

    matcher_calls = []

    def with_ceilings():
        decisions = []
        matcher_calls.clear()
        for query, threshold, visits in cases:
            query_pruner = pruner.for_query(query)
            ceilings = np.concatenate(
                [np.empty(0)]
                + [
                    query_pruner.exact_ceilings(visits[start : start + CEILING_WINDOW])
                    for start in range(0, len(visits), CEILING_WINDOW)
                ]
            )
            unsettled = ceilings > threshold
            matcher_calls.append(int(unsettled.sum()))
            decisions.append(
                [
                    bool(open_) and query_pruner.exact_lower_bound(int(c)) > threshold
                    for c, open_ in zip(visits, unsettled)
                ]
            )
        return decisions

    matcher_seconds = best_of(repeats, matcher_everywhere)
    ceiling_seconds = best_of(repeats, with_ceilings)
    # A ceiling <= the threshold proves the matcher could not prune.
    assert with_ceilings() == matcher_everywhere()
    visits = sum(len(case[2]) for case in cases)
    return {
        "queries": len(queries),
        "k": k,
        "visits": visits,
        "matcher_calls_with_ceilings": sum(matcher_calls),
        "matcher_seconds": matcher_seconds,
        "ceiling_seconds": ceiling_seconds,
        "speedup": matcher_seconds / ceiling_seconds
        if ceiling_seconds
        else float("inf"),
    }


def bench_batch(database, queries, k: int, workers: int, repeats: int) -> dict:
    """Sequential knn_search calls vs one knn_batch call."""
    pruners = [HistogramPruner(database), QgramMergeJoinPruner(database, q=1)]
    pruners[0].for_query(queries[0])  # warm outside the timed region

    def sequential():
        return [knn_search(database, query, k, pruners) for query in queries]

    def batched():
        return knn_batch(database, queries, k, pruners, workers=workers)

    sequential_seconds = best_of(repeats, sequential)
    batch_seconds = best_of(repeats, batched)
    sequential_answers = sequential()
    batch_answers = batched()
    for (expected, _), actual in zip(sequential_answers, batch_answers.neighbors):
        assert [n.distance for n in expected] == [n.distance for n in actual]
    return {
        "queries": len(queries),
        "k": k,
        "workers": workers,
        "sequential_knn_search_seconds": sequential_seconds,
        "knn_batch_seconds": batch_seconds,
        "speedup": sequential_seconds / batch_seconds
        if batch_seconds
        else float("inf"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=4)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_bulk_bounds.json")
    )
    args = parser.parse_args()

    database = make_database(args.count)
    rng = np.random.default_rng(999)
    queries = [
        Trajectory(np.cumsum(rng.normal(size=(80, 2)), axis=0))
        for _ in range(args.queries)
    ]

    print(f"database: {args.count} random-walk trajectories")
    filter_results = bench_filter_phase(database, queries[0], args.repeats)
    print(f"{'pruner':<18} {'scalar':>10} {'bulk':>10} {'speedup':>9}")
    for name, row in filter_results.items():
        print(
            f"{name:<18} {row['scalar_seconds'] * 1e3:>8.1f}ms "
            f"{row['bulk_seconds'] * 1e3:>8.1f}ms {row['speedup']:>8.1f}x"
        )

    exact_results = bench_exact_stage(database, queries, args.k, args.repeats)
    exact_line = (
        f"{'exact_stage':<18} {exact_results['matcher_seconds'] * 1e3:>8.1f}ms "
        f"{exact_results['ceiling_seconds'] * 1e3:>8.1f}ms "
        f"{exact_results['speedup']:>8.1f}x  (matcher on {exact_results['visits']} "
        f"visits vs ceilings + {exact_results['matcher_calls_with_ceilings']} calls)"
    )
    print(exact_line)

    batch_results = bench_batch(
        database, queries, args.k, args.workers, args.repeats
    )
    print(
        f"\n{batch_results['queries']} queries, k={batch_results['k']}: "
        f"sequential {batch_results['sequential_knn_search_seconds']:.3f}s, "
        f"knn_batch({batch_results['workers']} workers) "
        f"{batch_results['knn_batch_seconds']:.3f}s "
        f"({batch_results['speedup']:.2f}x)"
    )

    total_scalar = sum(row["scalar_seconds"] for row in filter_results.values())
    total_bulk = sum(row["bulk_seconds"] for row in filter_results.values())
    overall = total_scalar / total_bulk if total_bulk else float("inf")
    print(f"{'overall':<18} {total_scalar * 1e3:>8.1f}ms {total_bulk * 1e3:>8.1f}ms {overall:>8.1f}x")
    payload = {
        "database_size": args.count,
        "filter_phase": filter_results,
        "filter_phase_overall_speedup": overall,
        "exact_stage": exact_results,
        "batch": batch_results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    # Also emit the paper-style table that EXPERIMENTS.md embeds.
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    title = f"Bulk lower-bound kernels ({args.count} trajectories)"
    lines = [title, "=" * len(title)]
    lines.append(f"{'pruner':<18} {'scalar':>10} {'bulk':>10} {'speedup':>9}")
    for name, row in filter_results.items():
        lines.append(
            f"{name:<18} {row['scalar_seconds'] * 1e3:>8.1f}ms "
            f"{row['bulk_seconds'] * 1e3:>8.1f}ms {row['speedup']:>8.1f}x"
        )
    lines.append(exact_line)
    lines.append("")
    lines.append(
        f"{batch_results['queries']} queries, k={batch_results['k']}: "
        f"sequential knn_search "
        f"{batch_results['sequential_knn_search_seconds']:.3f}s, "
        f"knn_batch({batch_results['workers']} workers) "
        f"{batch_results['knn_batch_seconds']:.3f}s "
        f"({batch_results['speedup']:.2f}x)"
    )
    (results_dir / "bulk_bounds.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark: pruned subtrajectory search versus unpruned enumeration.

Measures single-query best-window k-NN latency of
:func:`repro.subknn_search` — with no pruner chain (its free-start
filter only) and with the ``histogram,qgram`` window-sound bound chain
(plus early abandoning) — against the full banded enumeration: every
window of every trajectory through one ``edr_windows_many`` pass per
length-bucketed batch, with no filter at all — on a **route-clustered**
corpus.  Clustering matters: window bounds
(like the whole-trajectory bounds before them) only engage when most of
the corpus is provably far from the query, which is exactly the
moving-object regime (many objects per road, few roads near any query).
On uniform random walks the bounds prune nothing and this benchmark
would measure overhead only.

Every timed configuration is oracle-asserted first: on a subsampled
database (the naive oracle runs one full EDR per window, so asserting
the whole corpus would dwarf the timed work) the engine's
``(index, start, end, distance)`` answers must equal the brute-force
enumerate-every-window oracle byte for byte, or the benchmark aborts.

Run it directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_subknn.py

Results are printed as a table and written to ``BENCH_subknn.json`` in
the repository root (plus ``benchmarks/results/subknn.txt`` for
EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import Trajectory, TrajectoryDatabase, edr, subknn_search
from repro.core.edr_batch import iter_length_buckets
from repro.core.search import _ResultList
from repro.core.subtrajectory import (
    WindowMatch,
    edr_windows_many,
    resolve_window_range,
    window_counts,
)
from repro.service.pruning import build_pruners

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC = "histogram,qgram"
N_ROUTES = 24
ALPHA = 0.25


def _route_bases() -> list:
    """Shared route shapes: many objects follow the same roads."""
    rng = np.random.default_rng(4242)
    return [
        np.cumsum(rng.normal(size=(int(rng.integers(40, 90)), 2)), axis=0)
        for _ in range(N_ROUTES)
    ]


def make_database(count: int, seed: int = 0) -> TrajectoryDatabase:
    bases = _route_bases()
    rng = np.random.default_rng(seed)
    trajectories = []
    for route in range(N_ROUTES):
        members = count // N_ROUTES + (1 if route < count % N_ROUTES else 0)
        base = bases[route]
        for _ in range(members):
            trajectories.append(
                Trajectory(base + rng.normal(scale=0.1, size=base.shape))
            )
    return TrajectoryDatabase(trajectories, epsilon=0.5)


def make_queries(count: int, m: int, seed: int = 999) -> list:
    """Route *segments* with jitter: each query matches windows, not wholes."""
    bases = _route_bases()
    rng = np.random.default_rng(seed)
    queries = []
    for position in range(count):
        base = bases[position % N_ROUTES]
        start = int(rng.integers(0, max(1, len(base) - m)))
        segment = base[start : start + m]
        queries.append(
            Trajectory(segment + rng.normal(scale=0.1, size=segment.shape))
        )
    return queries


def best_of(repeats: int, function) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _answers(matches) -> list:
    return [
        (int(m.index), int(m.start), int(m.end), float(m.distance))
        for m in matches
    ]


def enumerate_windows(database, query, k, batch_size=64):
    """The unpruned baseline: every banded window of every trajectory."""
    lo, hi = resolve_window_range(len(query), ALPHA)
    result = _ResultList(k)
    for bucket in iter_length_buckets(database.lengths, batch_size):
        members = [int(index) for index in bucket]
        distances, starts, ends, _, _ = edr_windows_many(
            query,
            [database.trajectories[index] for index in members],
            database.epsilon,
            lo,
            hi,
        )
        for slot, index in enumerate(members):
            distance = float(distances[slot])
            result.offer(
                index, distance, WindowMatch(index, starts[slot], ends[slot], distance)
            )
    return result.neighbors()


def brute_windows(database, query, k):
    """The naive oracle: one full EDR per window, plain Python ranking."""
    lo, hi = resolve_window_range(len(query), ALPHA)
    ranked = []
    for index, candidate in enumerate(database.trajectories):
        n = len(candidate)
        lo_e, hi_e = min(lo, n), min(hi, n)
        best = None
        for start in range(0, n - lo_e + 1):
            for end in range(start + lo_e, min(start + hi_e, n) + 1):
                window = Trajectory(candidate.points[start:end])
                key = (
                    float(edr(query, window, database.epsilon)),
                    start,
                    end,
                )
                if best is None or key < best:
                    best = key
        ranked.append((best[0], index, best[1], best[2]))
    ranked.sort(key=lambda entry: entry[:2])
    return [
        (index, start, end, distance)
        for distance, index, start, end in ranked[:k]
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=600)
    parser.add_argument("--queries", type=int, default=3)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--query-length", type=int, default=24)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--oracle-count",
        type=int,
        default=48,
        help="subsampled database size for the brute-force oracle assert",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=0.0,
        help="fail unless the pruned engine reaches this speedup over the "
        "unpruned banded enumeration (0 disables the gate)",
    )
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_subknn.json"))
    args = parser.parse_args()

    database = make_database(args.count)
    pruners = build_pruners(database, SPEC)
    queries = make_queries(args.queries, args.query_length)
    # Warm query-independent artifacts out of the timed region.
    pruners[0].for_query(queries[0])

    # ------------------------------------------------------------------
    # Oracle assert on a subsample (the oracle is O(windows) full DPs).
    # ------------------------------------------------------------------
    oracle_database = TrajectoryDatabase(
        list(database.trajectories[: args.oracle_count]), database.epsilon
    )
    oracle_pruners = build_pruners(oracle_database, SPEC)
    for query in queries:
        want = brute_windows(oracle_database, query, args.k)
        assert _answers(enumerate_windows(oracle_database, query, args.k)) == want, (
            "the enumeration baseline diverged from the brute-force window oracle"
        )
        for chain, abandon in (((), False), (oracle_pruners, False),
                               (oracle_pruners, True)):
            got, _ = subknn_search(
                oracle_database,
                query,
                args.k,
                chain,
                alpha=ALPHA,
                early_abandon=abandon,
            )
            assert _answers(got) == want, (
                "subknn diverged from the brute-force window oracle"
            )
    print(
        f"oracle OK: engine == brute force on {args.oracle_count} "
        f"trajectories x {len(queries)} queries (k={args.k})"
    )

    # ------------------------------------------------------------------
    # Timed rows on the full corpus.
    # ------------------------------------------------------------------
    def run_all(chain, abandon):
        return [
            subknn_search(
                database,
                query,
                args.k,
                chain,
                alpha=ALPHA,
                early_abandon=abandon,
            )
            for query in queries
        ]

    def enumerate_all():
        return [enumerate_windows(database, query, args.k) for query in queries]

    baseline_answers = [_answers(matches) for matches in enumerate_all()]
    baseline_seconds = best_of(args.repeats, enumerate_all)
    per_query_baseline = baseline_seconds / len(queries)
    lo, hi = resolve_window_range(args.query_length, ALPHA)
    windows_total = int(window_counts(database.lengths, lo, hi).sum())

    rows = {}
    header = (
        f"{'configuration':>22} {'per-query':>11} {'speedup':>9} "
        f"{'pruned%':>8} {'exact':>6}"
    )
    print(
        f"unpruned enumeration: {per_query_baseline * 1e3:.1f} ms/query "
        f"({args.count} trajectories, {windows_total} windows, "
        f"k={args.k}, alpha={ALPHA})"
    )
    print(header)
    table_lines = [
        f"unpruned: {per_query_baseline * 1e3:.1f} ms/query "
        f"({windows_total} windows)",
        header,
    ]
    for label, chain, abandon in (
        ("free-start only", (), False),
        (f"pruned[{SPEC}]", pruners, False),
        (f"pruned[{SPEC}]+ea", pruners, True),
    ):
        results = run_all(chain, abandon)
        answers = [_answers(matches) for matches, _ in results]
        exact = answers == baseline_answers
        assert exact, f"{label} diverged from the unpruned answers"
        seconds = best_of(args.repeats, lambda: run_all(chain, abandon))
        per_query = seconds / len(queries)
        speedup = per_query_baseline / per_query if per_query else float("inf")
        pruned_fraction = sum(
            (stats.windows_pruned + stats.windows_abandoned)
            / stats.windows_total
            for _, stats in results
        ) / len(results)
        rows[label] = {
            "per_query_seconds": per_query,
            "speedup": speedup,
            "windows_pruned_fraction": pruned_fraction,
            "early_abandon": abandon,
            "exact": exact,
        }
        line = (
            f"{label:>22} {per_query * 1e3:>9.1f}ms {speedup:>8.2f}x "
            f"{pruned_fraction * 100:>7.1f}% {'yes' if exact else 'NO':>6}"
        )
        print(line)
        table_lines.append(line)

    payload = {
        "dataset": {
            "trajectories": args.count,
            "routes": N_ROUTES,
            "epsilon": 0.5,
            "query_length": args.query_length,
            "queries": len(queries),
            "k": args.k,
            "alpha": ALPHA,
            "windows_total": int(windows_total),
        },
        "cpu_count": os.cpu_count(),
        "spec": SPEC,
        "oracle_trajectories": args.oracle_count,
        "baseline_per_query_seconds": per_query_baseline,
        "configurations": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    title = (
        f"Subtrajectory k-NN pruning ({args.count} clustered trajectories, "
        f"spec {SPEC}, {os.cpu_count()} CPU(s))"
    )
    lines = [title, "=" * len(title)]
    lines.extend(table_lines)
    (results_dir / "subknn.txt").write_text("\n".join(lines) + "\n")

    if args.require_speedup > 0.0:
        top = max(row["speedup"] for row in rows.values())
        if top < args.require_speedup:
            print(
                f"FAIL: best pruned speedup {top:.2f}x is below the "
                f"required {args.require_speedup:.2f}x"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

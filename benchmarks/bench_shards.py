"""Benchmark: intra-query shard parallelism versus the serial engine.

Measures single-query k-NN latency of the shared-memory
:class:`repro.ShardedDatabase` (process mode, cooperative bound
tightening on) at 1, 2, and 4 shards against serial
:func:`repro.knn_search` in index order (the paper's HSE) with the same
``histogram,qgram`` pruner chain, on a synthetic random-walk database.
The speedups and the ``--require-speedup`` gate are against that
comparator, as the committed baseline was recorded.  The serial
engine's default bound order is timed too and printed as an extra,
ungated line: the rounds refine a whole first round at an infinite
threshold, so serial bound order can beat the 1-shard engine.

Every timed configuration is oracle-asserted first: the sharded answers
must be byte-for-byte — same indices, same distances, same tie order —
the serial ``knn_search`` answers, or the benchmark aborts.  A benchmark
that compares different answers measures nothing.

Run it directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_shards.py

Results are printed as a table and written to ``BENCH_shards.json`` in
the repository root (plus ``benchmarks/results/shards.txt`` for
EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import ShardedDatabase, Trajectory, TrajectoryDatabase, knn_search
from repro.service.pruning import build_pruners

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC = "histogram,qgram"


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


def _answers(neighbors) -> list:
    return [(int(n.index), float(n.distance)) for n in neighbors]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=3)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--shard-counts", default="1,2,4", help="comma list of shard counts"
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=0.0,
        help="fail unless the largest shard count reaches this speedup "
        "over serial index-order knn_search (0 disables the gate)",
    )
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_shards.json"))
    args = parser.parse_args()

    shard_counts = [
        int(part) for part in args.shard_counts.split(",") if part.strip()
    ]
    database = make_database(args.count)
    pruners = build_pruners(database, SPEC)
    rng = np.random.default_rng(999)
    queries = [
        Trajectory(np.cumsum(rng.normal(size=(80, 2)), axis=0))
        for _ in range(args.queries)
    ]
    # Warm the database-side artifacts so every timed row measures the
    # query path, not index construction.
    pruners[0].for_query(queries[0])

    def serial_all(order="index"):
        return [
            knn_search(
                database, query, args.k, pruners, early_abandon=True,
                order=order,
            )[0]
            for query in queries
        ]

    oracle = [_answers(neighbors) for neighbors in serial_all()]
    assert [_answers(n) for n in serial_all("bound")] == oracle
    serial_seconds = best_of(args.repeats, serial_all)
    per_query_serial = serial_seconds / len(queries)
    per_query_bound = best_of(args.repeats, lambda: serial_all("bound")) / len(
        queries
    )

    header = (
        f"{'shards':>6} {'per-query':>11} {'speedup':>9} {'start':>7} "
        f"{'exact':>6}"
    )
    table_lines = [
        f"serial knn_search, index order (the comparator): "
        f"{per_query_serial * 1e3:.1f} ms/query",
        f"serial knn_search, bound order (not gated): "
        f"{per_query_bound * 1e3:.1f} ms/query",
        header,
    ]
    print(f"{args.count} trajectories, k={args.k}")
    print("\n".join(table_lines))

    rows = {}
    for shards in shard_counts:
        with ShardedDatabase(
            database, shards, specs=[SPEC], mode="process"
        ) as engine:

            def sharded_all():
                return [
                    engine.knn_search(
                        query, args.k, spec=SPEC, early_abandon=True
                    )[0]
                    for query in queries
                ]

            answers = [_answers(neighbors) for neighbors in sharded_all()]
            exact = answers == oracle
            assert exact, f"sharded answers diverged at {shards} shard(s)"
            sharded_seconds = best_of(args.repeats, sharded_all)
            per_query = sharded_seconds / len(queries)
            speedup = per_query_serial / per_query if per_query else float("inf")
            rows[str(shards)] = {
                "per_query_seconds": per_query,
                "speedup": speedup,
                "start_method": engine.start_method,
                "exact": exact,
            }
            line = (
                f"{shards:>6} {per_query * 1e3:>9.1f}ms {speedup:>8.2f}x "
                f"{engine.start_method:>7} {'yes' if exact else 'NO':>6}"
            )
            print(line)
            table_lines.append(line)

    payload = {
        "dataset": {
            "trajectories": args.count,
            "epsilon": 0.5,
            "lengths": [30, 120],
            "queries": len(queries),
            "k": args.k,
        },
        "cpu_count": os.cpu_count(),
        "spec": SPEC,
        "serial_order": "index",
        "serial_per_query_seconds": per_query_serial,
        "serial_bound_order_per_query_seconds": per_query_bound,
        "shards": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    title = (
        f"Sharded intra-query k-NN ({args.count} trajectories, "
        f"spec {SPEC}, {os.cpu_count()} CPU(s))"
    )
    lines = [title, "=" * len(title)]
    lines.extend(table_lines)
    (results_dir / "shards.txt").write_text("\n".join(lines) + "\n")

    if args.require_speedup > 0.0:
        top = rows[str(max(shard_counts))]["speedup"]
        if top < args.require_speedup:
            print(
                f"FAIL: {max(shard_counts)}-shard speedup {top:.2f}x is "
                f"below the required {args.require_speedup:.2f}x"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

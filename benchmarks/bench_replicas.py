"""Benchmark: the replicated serving tier versus the single-engine service.

Measures served k-NN throughput of the replica fleet (``replicas=4``)
against the single-process service (``replicas=1``) under the same
zipf-skewed closed-loop workload the service benchmark uses: real HTTP
over loopback, one keep-alive connection per simulated client, every
run serving the identical precomputed request stream.

What the fleet buys on this workload is **cache capacity**: requests
are consistent-hash routed on their full signature, so the per-replica
epoch-keyed LRU caches compose into one fleet-wide cache of aggregate
capacity ``replicas x cache_size`` with no entry duplicated.  With a
hot-query pool larger than one engine's cache, the single engine
thrashes — every eviction is a full filter-and-refine recomputation —
while the fleet holds the whole pool.  On multi-core hosts the fleet
additionally computes misses in parallel; the committed numbers are
from a single-core container, so they measure the cache effect alone
(the gate is conservative there).

Every configuration is oracle-asserted before *and after* timing:
served ``/knn`` answers must equal direct :func:`repro.knn_search`
byte-for-byte — ids, float distances, tie order — on both the compute
path (cold probe) and the cache path (post-run probe), or the benchmark
aborts.  A benchmark that compares different answers measures nothing.

Run it directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_replicas.py --require-speedup 2.5

Results are printed as a table and written to ``BENCH_replicas.json``
in the repository root (plus ``benchmarks/results/replicas.txt`` for
EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import Trajectory, TrajectoryDatabase, knn_search
from repro.core.batch import warm_pruners
from repro.service import ServerHandle, ServiceClient, ServiceConfig
from repro.service.pruning import build_pruners

REPO_ROOT = Path(__file__).resolve().parent.parent


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--min-length", type=int, default=20)
    parser.add_argument("--max-length", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--pruners", default="histogram,qgram")
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument(
        "--requests", type=int, default=32, help="requests per client per run"
    )
    parser.add_argument(
        "--pool", type=int, default=32, help="distinct queries in the zipf pool"
    )
    parser.add_argument(
        "--zipf", type=float, default=1.6, help="Zipf exponent of the workload"
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=8,
        help="per-engine LRU capacity (the fleet aggregates replicas x this)",
    )
    parser.add_argument(
        "--replicas",
        default="1,4",
        help="comma list of fleet sizes to run (first is the baseline)",
    )
    parser.add_argument(
        "--oracle-probes",
        type=int,
        default=3,
        help="served-vs-direct equality probes per configuration",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        help="exit non-zero unless the last fleet size beats the baseline "
        "by at least this factor",
    )
    parser.add_argument("--out", default="BENCH_replicas.json")
    parser.add_argument(
        "--results-table", default="benchmarks/results/replicas.txt"
    )


def make_database(args: argparse.Namespace) -> TrajectoryDatabase:
    rng = np.random.default_rng(args.seed)
    trajectories = [
        Trajectory(
            np.cumsum(
                rng.normal(
                    size=(int(rng.integers(args.min_length, args.max_length)), 2)
                ),
                axis=0,
            )
        )
        for _ in range(args.count)
    ]
    return TrajectoryDatabase(trajectories, epsilon=0.5)


def _zipf_weights(pool: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, pool + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _sequences(args: argparse.Namespace, database_size: int) -> List[List[int]]:
    """Per-client query-index streams, identical across compared runs."""
    rng = np.random.default_rng(args.seed + 1)
    total = args.clients * args.requests
    pool_size = min(args.pool, database_size)
    pool = rng.choice(database_size, size=pool_size, replace=False)
    weights = _zipf_weights(pool_size, args.zipf)
    draws = pool[rng.choice(pool_size, size=total, p=weights)]
    return [
        [int(index) for index in draws[client :: args.clients]]
        for client in range(args.clients)
    ]


def _direct_knn(database, chain, query, k):
    neighbors, _ = knn_search(database, query, k, chain)
    return [
        {"index": int(n.index), "distance": float(n.distance)}
        for n in neighbors
    ]


def _assert_oracle(handle, database, chain, args, probe_indices, phase):
    with ServiceClient(handle.host, handle.port, timeout=600.0) as client:
        for index in probe_indices:
            query = database.trajectories[index]
            served = client.knn(query.points.tolist(), k=args.k)["neighbors"]
            direct = _direct_knn(database, chain, query, args.k)
            if served != direct:
                raise AssertionError(
                    f"served /knn diverged from knn_search ({phase}, "
                    f"query {index}): {served} != {direct}"
                )


def _run_config(
    database: TrajectoryDatabase,
    chain,
    args: argparse.Namespace,
    sequences: List[List[int]],
    replicas: int,
    probe_indices: Sequence[int],
) -> dict:
    config = ServiceConfig(
        port=0,
        pruners=args.pruners,
        k_default=args.k,
        cache_size=args.cache_size,
        replicas=replicas,
        # Closed-loop comparison: neither side may shed or spill — a
        # rejected or affinity-broken request would make the runs serve
        # different work.  Depths sized to the client count.
        replica_queue_depth=4 * args.clients + 8,
        replica_spillover_depth=4 * args.clients + 8,
        queue_limit=4 * args.clients + 8,
        request_timeout_s=600.0,
    )
    handle = ServerHandle.start(database, config)
    try:
        _assert_oracle(handle, database, chain, args, probe_indices, "cold")
        barrier = threading.Barrier(args.clients + 1)
        latencies: List[List[float]] = [[] for _ in range(args.clients)]
        errors: List[BaseException] = []

        def client_loop(position: int) -> None:
            sequence = sequences[position]
            try:
                with ServiceClient(
                    handle.host, handle.port, timeout=600.0
                ) as client:
                    barrier.wait()
                    for index in sequence:
                        points = database.trajectories[index].points.tolist()
                        begin = time.perf_counter()
                        client.knn(points, k=args.k)
                        latencies[position].append(
                            time.perf_counter() - begin
                        )
            except BaseException as error:  # surfaced after join
                errors.append(error)

        threads = [
            threading.Thread(target=client_loop, args=(position,), daemon=True)
            for position in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if errors:
            raise errors[0]
        # The cache path must be as exact as the compute path.
        _assert_oracle(handle, database, chain, args, probe_indices, "warm")
        with ServiceClient(handle.host, handle.port) as client:
            stats = client.stats()
    finally:
        handle.stop()

    flat = sorted(value for per_client in latencies for value in per_client)
    requests = len(flat)

    def percentile(fraction: float) -> float:
        rank = min(len(flat) - 1, max(0, int(fraction * len(flat))))
        return round(flat[rank] * 1000.0, 2)

    record = {
        "replicas": replicas,
        "requests": requests,
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(requests / wall, 3)
        if wall > 0
        else float("inf"),
        "latency_ms": {
            "mean": round(sum(flat) / requests * 1000.0, 2),
            "p50": percentile(0.50),
            "p90": percentile(0.90),
            "p99": percentile(0.99),
        },
    }
    if replicas > 1:
        fleet = stats["replicas"]
        record["cache"] = fleet["fleet"]["cache"]
        record["router"] = fleet["router"]
        record["resilience"] = fleet["resilience"]
        record["search_queries"] = fleet["fleet"]["search"]["queries"]
    else:
        record["cache"] = stats["cache"]
        record["search_queries"] = stats["search"]["queries"]
    return record


def _table(results: dict) -> str:
    lines = [
        f"{'replicas':>8} {'reqs':>5} {'wall_s':>8} {'rps':>8} "
        f"{'p50_ms':>8} {'p99_ms':>9} {'hit_rate':>9} {'computed':>8}"
    ]
    for run in results["runs"]:
        lines.append(
            f"{run['replicas']:>8} {run['requests']:>5} "
            f"{run['wall_seconds']:>8.2f} {run['throughput_rps']:>8.2f} "
            f"{run['latency_ms']['p50']:>8.1f} "
            f"{run['latency_ms']['p99']:>9.1f} "
            f"{run['cache']['hit_rate']:>9.3f} {run['search_queries']:>8}"
        )
    lines.append(
        f"replicated-tier speedup: {results['speedup']:.2f}x served "
        f"throughput ({results['runs'][-1]['replicas']} replicas vs "
        f"{results['runs'][0]['replicas']}) on "
        f"{results['host']['cpus']} cpu(s); answers oracle-asserted "
        "against knn_search on cold and warm paths"
    )
    return "\n".join(lines)


def run(args: argparse.Namespace) -> dict:
    fleet_sizes = [
        int(part) for part in args.replicas.split(",") if part.strip()
    ]
    if len(fleet_sizes) < 2:
        raise SystemExit("--replicas needs at least a baseline and one fleet")
    database = make_database(args)
    # Warm the shared artifacts once; replicas inherit them through fork.
    database.warm(q=1, histogram_bins=1.0, per_axis=False)
    chain = build_pruners(database, args.pruners)
    warm_pruners(chain, database.trajectories[0])
    sequences = _sequences(args, len(database))
    distinct = len({index for row in sequences for index in row})
    print(
        f"database: {len(database)} trajectories; clients={args.clients}, "
        f"requests/client={args.requests}, pool={min(args.pool, len(database))} "
        f"({distinct} drawn), zipf={args.zipf}, cache_size={args.cache_size}"
    )
    probe_indices = sorted(
        {row[0] for row in sequences[: max(1, args.oracle_probes)]}
    )

    results: Dict[str, object] = {
        "benchmark": "service_replicas",
        "host": {"cpus": os.cpu_count() or 1},
        "dataset": {
            "source": "random-walk",
            "count": len(database),
            "min_length": args.min_length,
            "max_length": args.max_length,
            "epsilon": database.epsilon,
            "seed": args.seed,
        },
        "serving": {
            "pruners": args.pruners,
            "k": args.k,
            "cache_size": args.cache_size,
            "clients": args.clients,
            "requests_per_client": args.requests,
            "pool": min(args.pool, len(database)),
            "zipf_exponent": args.zipf,
        },
        "runs": [],
        "oracle": (
            "served /knn equals direct knn_search (ids, distances, tie "
            f"order) on {len(probe_indices)} probe(s) per configuration, "
            "asserted before (compute path) and after (cache path) timing"
        ),
    }
    for replicas in fleet_sizes:
        print(f"[replicas={replicas}] ...", flush=True)
        outcome = _run_config(
            database, chain, args, sequences, replicas, probe_indices
        )
        results["runs"].append(outcome)
        print(
            f"[replicas={replicas}] {outcome['throughput_rps']:.2f} rps, "
            f"p50={outcome['latency_ms']['p50']:.0f}ms, "
            f"hit_rate={outcome['cache']['hit_rate']:.3f}"
        )
    baseline = results["runs"][0]["throughput_rps"]
    results["speedup"] = round(
        results["runs"][-1]["throughput_rps"] / baseline, 3
    )

    table = _table(results)
    print(table)

    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    table_path = Path(args.results_table)
    table_path.parent.mkdir(parents=True, exist_ok=True)
    table_path.write_text(table + "\n")
    print(f"wrote {table_path}")

    if (
        args.require_speedup is not None
        and results["speedup"] < args.require_speedup
    ):
        raise SystemExit(
            f"replicated-tier speedup {results['speedup']:.2f}x is below "
            f"the required {args.require_speedup:.2f}x"
        )
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop benchmark of the replicated serving tier"
    )
    add_arguments(parser)
    run(parser.parse_args(argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

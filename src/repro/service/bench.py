"""Closed-loop load generator for the query service (``bench-serve``).

Measures served k-NN throughput with micro-batching on versus off, on
one in-process server per run (real HTTP over loopback, keep-alive
connections, one closed-loop client thread per simulated client).

Methodology
-----------
* Two request mixes, both precomputed so every run serves the identical
  request stream:

  - ``skewed`` — clients draw from a pool of distinct queries under a
    Zipf law, the classic hot-query traffic shape.  This is where the
    micro-batcher's duplicate coalescing pays: one computation answers
    every copy of a hot query that arrives while it is queued or
    computing.
  - ``distinct`` — every request is a different query (no duplicates
    anywhere), isolating the pure batch-dispatch effect (amortized
    dispatch and, on multi-core hosts, ``knn_batch``'s thread-parallel
    fan-out; on a single core this leg is expected to be near 1x).

* The result cache is disabled by default (``--cache-size 0``) so the
  comparison isolates the batcher; caching helps both modes equally and
  repeats after an answer lands would otherwise mask it.
* Before timing, served ``/knn`` responses are asserted equal — ids,
  distances, tie order — to direct :func:`repro.knn_search` calls on
  the same database and parameters (a benchmark that compares different
  answers measures nothing).

Results are printed as a table, written to ``BENCH_service.json``, and
mirrored to ``benchmarks/results/service.txt`` for EXPERIMENTS.md.
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

from ..core.batch import warm_pruners
from ..core.database import TrajectoryDatabase
from ..core.matching import suggest_epsilon
from ..core.search import knn_search
from ..core.trajectory import Trajectory
from .client import ServiceClient
from .config import ServiceConfig
from .pruning import build_pruners
from .server import ServerHandle

__all__ = ["add_arguments", "run", "main"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--file", default=None, help="trajectory .npz/.csv (default: generate)"
    )
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--min-length", type=int, default=20)
    parser.add_argument("--max-length", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--pruners", default="histogram,qgram")
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument(
        "--requests", type=int, default=8, help="requests per client per run"
    )
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--cache-size", type=int, default=0)
    parser.add_argument(
        "--pool", type=int, default=48, help="distinct queries in the skewed pool"
    )
    parser.add_argument(
        "--zipf", type=float, default=1.6, help="Zipf exponent of the skewed mix"
    )
    parser.add_argument(
        "--workloads",
        default="skewed,distinct",
        help="comma list from: skewed, distinct",
    )
    parser.add_argument(
        "--oracle-probes", type=int, default=3,
        help="served-vs-direct equality probes before timing",
    )
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument(
        "--results-table", default="benchmarks/results/service.txt"
    )


def _make_database(args: argparse.Namespace) -> TrajectoryDatabase:
    if args.file:
        from ..data import load_csv, load_npz

        trajectories = (
            load_csv(args.file) if args.file.endswith(".csv") else load_npz(args.file)
        )
    else:
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
    epsilon = args.epsilon if args.epsilon is not None else suggest_epsilon(trajectories)
    return TrajectoryDatabase(trajectories, epsilon)


def _zipf_weights(pool: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, pool + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _sequences(
    workload: str, args: argparse.Namespace, database_size: int
) -> List[List[int]]:
    """Per-client query-index sequences, identical across compared runs."""
    rng = np.random.default_rng(args.seed + 1)
    total = args.clients * args.requests
    if workload == "skewed":
        pool_size = min(args.pool, database_size)
        pool = rng.choice(database_size, size=pool_size, replace=False)
        weights = _zipf_weights(pool_size, args.zipf)
        draws = pool[rng.choice(pool_size, size=total, p=weights)]
    elif workload == "distinct":
        draws = rng.choice(
            database_size, size=min(total, database_size), replace=False
        )
        draws = np.resize(draws, total)  # repeats only if db < total
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return [
        [int(index) for index in draws[client :: args.clients]]
        for client in range(args.clients)
    ]


def _assert_oracle(
    handle: ServerHandle,
    database: TrajectoryDatabase,
    args: argparse.Namespace,
    probe_indices: Sequence[int],
) -> None:
    """Served /knn must equal direct knn_search byte-for-byte."""
    pruners = build_pruners(database, args.pruners)
    warm_pruners(pruners, database.trajectories[0])
    with ServiceClient(handle.host, handle.port, timeout=600.0) as client:
        for index in probe_indices:
            query = database.trajectories[index]
            served = client.knn(query, k=args.k)["neighbors"]
            expected, _ = knn_search(database, query, args.k, pruners)
            direct = [
                {"index": int(n.index), "distance": float(n.distance)}
                for n in expected
            ]
            if served != direct:
                raise AssertionError(
                    f"served /knn diverged from knn_search for query {index}: "
                    f"{served} != {direct}"
                )


def _run_mode(
    database: TrajectoryDatabase,
    args: argparse.Namespace,
    sequences: List[List[int]],
    max_batch: int,
    oracle_probes: Sequence[int],
) -> dict:
    config = ServiceConfig(
        port=0,
        pruners=args.pruners,
        k_default=args.k,
        max_batch=max_batch,
        cache_size=args.cache_size,
        queue_limit=4 * args.clients + 8,
        request_timeout_s=600.0,
    )
    handle = ServerHandle.start(database, config)
    try:
        if oracle_probes:
            _assert_oracle(handle, database, args, oracle_probes)
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
                        latencies[position].append(time.perf_counter() - begin)
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
        with ServiceClient(handle.host, handle.port) as client:
            stats = client.stats()
    finally:
        handle.stop()

    flat = sorted(value for per_client in latencies for value in per_client)
    requests = len(flat)

    def percentile(fraction: float) -> float:
        rank = min(len(flat) - 1, max(0, int(fraction * len(flat))))
        return round(flat[rank] * 1000.0, 2)

    batcher = stats["batcher"]
    search = stats["search"]
    return {
        "max_batch": max_batch,
        "requests": requests,
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(requests / wall, 3) if wall > 0 else float("inf"),
        "latency_ms": {
            "mean": round(sum(flat) / requests * 1000.0, 2),
            "p50": percentile(0.50),
            "p90": percentile(0.90),
            "p99": percentile(0.99),
        },
        "batches": batcher["batches"],
        "mean_batch_size": batcher["mean_batch_size"],
        "coalesced": batcher["coalesced"],
        "unique_computed": batcher["unique_computed"],
        "true_distance_computations": search["true_distance_computations"],
        "pruning_power": search["pruning_power"],
    }


def _table(results: dict) -> str:
    lines = [
        f"{'workload':<10} {'max_batch':>9} {'reqs':>5} {'wall_s':>8} "
        f"{'rps':>8} {'p50_ms':>8} {'p99_ms':>9} {'mean_batch':>10} "
        f"{'coalesced':>9} {'computed':>8}"
    ]
    for workload, record in results["workloads"].items():
        for run in record["runs"]:
            lines.append(
                f"{workload:<10} {run['max_batch']:>9} {run['requests']:>5} "
                f"{run['wall_seconds']:>8.2f} {run['throughput_rps']:>8.2f} "
                f"{run['latency_ms']['p50']:>8.1f} "
                f"{run['latency_ms']['p99']:>9.1f} "
                f"{run['mean_batch_size']:>10.2f} {run['coalesced']:>9} "
                f"{run['unique_computed']:>8}"
            )
        lines.append(
            f"{workload:<10} micro-batching speedup: "
            f"{record['speedup']:.2f}x (throughput, max_batch="
            f"{record['runs'][-1]['max_batch']} vs 1)"
        )
    lines.append(
        f"headline speedup ({results['headline_workload']}): "
        f"{results['speedup']:.2f}x on {results['host']['cpus']} cpu(s); "
        "answers oracle-asserted against knn_search"
    )
    return "\n".join(lines)


def run(args: argparse.Namespace) -> dict:
    database = _make_database(args)
    print(
        f"database: {len(database)} trajectories, epsilon={database.epsilon:.4f}; "
        f"clients={args.clients}, requests/client={args.requests}, k={args.k}"
    )
    # Warm the shared artifacts once so both modes start from warm indexes.
    database.warm(q=1, histogram_bins=1.0, per_axis=False)

    workloads = [
        name.strip() for name in args.workloads.split(",") if name.strip()
    ]
    probe_indices = list(range(min(args.oracle_probes, len(database))))
    results: Dict[str, object] = {
        "benchmark": "service_microbatching",
        "host": {"cpus": os.cpu_count() or 1},
        "dataset": {
            "source": args.file or "random-walk",
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
        },
        "workloads": {},
        "oracle": (
            f"served /knn equals direct knn_search (ids, distances, tie "
            f"order) on {len(probe_indices)} probe(s) per run"
        ),
    }
    for workload in workloads:
        sequences = _sequences(workload, args, len(database))
        record: Dict[str, object] = {"runs": []}
        if workload == "skewed":
            record["pool"] = min(args.pool, len(database))
            record["zipf_exponent"] = args.zipf
        for max_batch in (1, args.max_batch):
            print(f"[{workload}] max_batch={max_batch} ...", flush=True)
            outcome = _run_mode(
                database, args, sequences, max_batch, probe_indices
            )
            record["runs"].append(outcome)
            print(
                f"[{workload}] max_batch={max_batch}: "
                f"{outcome['throughput_rps']:.2f} rps, "
                f"p50={outcome['latency_ms']['p50']:.0f}ms, "
                f"coalesced={outcome['coalesced']}"
            )
        baseline, batched = record["runs"]
        record["speedup"] = round(
            batched["throughput_rps"] / baseline["throughput_rps"], 3
        )
        results["workloads"][workload] = record

    headline = "skewed" if "skewed" in results["workloads"] else workloads[0]
    results["headline_workload"] = headline
    results["speedup"] = results["workloads"][headline]["speedup"]

    table = _table(results)
    print(table)

    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    table_path = Path(args.results_table)
    table_path.parent.mkdir(parents=True, exist_ok=True)
    table_path.write_text(table + "\n")
    print(f"wrote {table_path}")
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop load benchmark of the trajectory query service"
    )
    add_arguments(parser)
    run(parser.parse_args(argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark: bit-parallel EDR kernel versus the batched row-DP kernel.

Measures, on a synthetic random-walk database:

* the *refine phase* of exact k-NN — every candidate verified through
  true EDR with early abandoning — under ``edr_kernel="batched"``
  (:func:`repro.edr_many`, the legacy kernel) versus
  ``edr_kernel="bitparallel"``
  (:func:`repro.edr_many_bitparallel`, 64 DP cells per machine word);
* the raw kernels head to head over the whole database with no bounds,
  reported as DP cell throughput.

Before anything is timed, every kernel's k-NN answer is asserted
*byte-equal* — same indices, bit-identical distances — to the scalar
``edr`` linear scan: a benchmark that compares different answers
measures nothing.

Run it directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_edr_bitparallel.py

Results are printed as a table and written to
``BENCH_edr_bitparallel.json`` in the repository root.  With
``--require-speedup X`` the script exits non-zero unless the refine
phase speedup reaches ``X`` — the CI regression gate.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro import (
    Trajectory,
    TrajectoryDatabase,
    edr_many,
    edr_many_bitparallel,
    knn_scan,
    knn_search,
)

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


def assert_byte_equal_answers(database, queries, k: int, batch_size: int) -> None:
    """Every kernel must reproduce the scalar-edr scan bit for bit."""
    for query in queries:
        oracle, _ = knn_scan(database, query, k)  # legacy scalar ``edr`` path
        want = [(n.index, n.distance) for n in oracle]
        for kernel in ("scalar", "batched", "bitparallel"):
            got, _ = knn_search(
                database, query, k, [], early_abandon=True,
                refine_batch_size=batch_size, edr_kernel=kernel,
            )
            answer = [(n.index, n.distance) for n in got]
            assert answer == want, (
                f"kernel {kernel!r} diverged from the scalar-edr oracle"
            )


def bench_refine(database, queries, k: int, repeats: int, batch_size: int) -> dict:
    """The pruner-free refine phase: the exact load the kernel replaces."""

    def run(kernel):
        for query in queries:
            knn_search(
                database, query, k, [], early_abandon=True,
                refine_batch_size=batch_size, edr_kernel=kernel,
            )

    batched = best_of(repeats, lambda: run("batched"))
    bitparallel = best_of(repeats, lambda: run("bitparallel"))
    return {
        "batched_seconds": batched,
        "bitparallel_seconds": bitparallel,
        "speedup": batched / bitparallel if bitparallel else float("inf"),
    }


def bench_raw_kernels(database, query, repeats: int) -> dict:
    """Both kernels over the full database, no bounds: pure throughput."""
    candidates = list(database.trajectories)
    want = edr_many(query, candidates, database.epsilon)
    got = edr_many_bitparallel(query, candidates, database.epsilon)
    assert np.array_equal(want, got), "raw kernels disagree"
    cells = len(query) * int(np.sum(database.lengths))
    batched = best_of(
        repeats, lambda: edr_many(query, candidates, database.epsilon)
    )
    bitparallel = best_of(
        repeats,
        lambda: edr_many_bitparallel(query, candidates, database.epsilon),
    )
    return {
        "cells": cells,
        "batched_seconds": batched,
        "bitparallel_seconds": bitparallel,
        "batched_throughput_cells_per_s": cells / batched if batched else 0.0,
        "bitparallel_throughput_cells_per_s": cells / bitparallel
        if bitparallel
        else 0.0,
        "kernel_speedup": batched / bitparallel if bitparallel else float("inf"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=3)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--refine-batch-size", type=int, default=512)
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        help="fail unless the refine-phase speedup reaches this factor",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_edr_bitparallel.json")
    )
    args = parser.parse_args()

    database = make_database(args.count)
    rng = np.random.default_rng(999)
    queries = [
        Trajectory(np.cumsum(rng.normal(size=(80, 2)), axis=0))
        for _ in range(args.queries)
    ]

    assert_byte_equal_answers(database, queries, args.k, args.refine_batch_size)
    print(
        f"oracle: all kernels byte-equal to the scalar edr scan "
        f"({args.count} trajectories, {args.queries} queries, k={args.k})"
    )

    refine = bench_refine(
        database, queries, args.k, args.repeats, args.refine_batch_size
    )
    raw = bench_raw_kernels(database, queries[0], args.repeats)

    lines = [
        f"refine phase ({args.queries} queries, batch {args.refine_batch_size}): "
        f"batched {refine['batched_seconds'] * 1e3:.1f}ms, "
        f"bit-parallel {refine['bitparallel_seconds'] * 1e3:.1f}ms "
        f"({refine['speedup']:.2f}x)",
        f"raw kernel ({raw['cells'] / 1e6:.1f}M cells): "
        f"batched {raw['batched_throughput_cells_per_s'] / 1e6:.0f}M cells/s, "
        f"bit-parallel {raw['bitparallel_throughput_cells_per_s'] / 1e6:.0f}M "
        f"cells/s ({raw['kernel_speedup']:.2f}x)",
    ]
    print("\n".join(lines))

    payload = {
        "count": args.count,
        "queries": args.queries,
        "k": args.k,
        "refine_batch_size": args.refine_batch_size,
        "refine_phase": refine,
        "raw_kernel": raw,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    title = (
        f"Bit-parallel EDR kernel ({args.count} trajectories, "
        f"batch size {args.refine_batch_size}, k={args.k})"
    )
    (results_dir / "edr_bitparallel.txt").write_text(
        "\n".join([title, "=" * len(title), *lines]) + "\n"
    )

    if args.require_speedup is not None and refine["speedup"] < args.require_speedup:
        print(
            f"FAIL: refine speedup {refine['speedup']:.2f}x is below the "
            f"required {args.require_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark: batched EDR refinement and the parallel matrix precompute.

Measures, on synthetic random-walk databases:

* the *refine phase* — verifying every unpruned candidate with a true
  EDR computation — through the scalar per-candidate kernel versus the
  batched many-candidate kernel (:func:`repro.edr_many`), at several
  database sizes, both as a pure linear refine (no pruners, the
  worst-case refinement load) and inside the full pruned engine;
* the near-triangle reference-matrix precompute
  (:func:`repro.core.edr.edr_matrix`) serial versus process-pool
  parallel.

Every timed comparison asserts identical answers against the
linear-scan oracle first — a benchmark that compares different answers
measures nothing.

Run it directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_edr_refine.py

Results are printed as a table and written to ``BENCH_edr_refine.json``
in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import (
    HistogramPruner,
    Trajectory,
    TrajectoryDatabase,
    edr_matrix,
    knn_scan,
    knn_search,
)
from repro.eval import same_answers

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


def bench_refine(database, query, k: int, repeats: int, batch_size: int) -> dict:
    """Scalar vs batched refinement, pure and inside the pruned engine.

    With ``pruners=[]`` every candidate reaches the refine phase, so the
    pure rows time nothing but candidate verification — the exact code
    path the batched kernel replaces.
    """
    oracle, _ = knn_scan(database, query, k)

    def run(pruners, refine_batch_size):
        # Pinned to the batched kernel: this bench times ``edr_many``
        # against the scalar path, whatever ``edr_kernel=None`` runs.
        return knn_search(
            database,
            query,
            k,
            pruners,
            early_abandon=True,
            refine_batch_size=refine_batch_size,
            edr_kernel="batched",
        )

    pruned = [HistogramPruner(database)]
    pruned[0].for_query(query)  # warm the database-side artifacts

    rows = {}
    for name, pruners in (("pure-refine", []), ("histogram+refine", pruned)):
        scalar_answer, _ = run(pruners, None)
        batched_answer, _ = run(pruners, batch_size)
        assert same_answers(oracle, scalar_answer)
        assert same_answers(oracle, batched_answer)
        scalar_seconds = best_of(repeats, lambda p=pruners: run(p, None))
        batched_seconds = best_of(repeats, lambda p=pruners: run(p, batch_size))
        rows[name] = {
            "scalar_seconds": scalar_seconds,
            "batched_seconds": batched_seconds,
            "speedup": scalar_seconds / batched_seconds
            if batched_seconds
            else float("inf"),
        }
    return rows


def bench_matrix(count: int, workers: int, repeats: int, seed: int = 3) -> dict:
    """Serial vs process-pool reference-matrix precompute."""
    rng = np.random.default_rng(seed)
    trajectories = [
        Trajectory(
            np.cumsum(rng.normal(size=(int(rng.integers(30, 120)), 2)), axis=0)
        )
        for _ in range(count)
    ]
    serial = edr_matrix(trajectories, 0.5)
    parallel = edr_matrix(trajectories, 0.5, workers=workers)
    assert np.array_equal(serial, parallel)
    serial_seconds = best_of(repeats, lambda: edr_matrix(trajectories, 0.5))
    parallel_seconds = best_of(
        repeats, lambda: edr_matrix(trajectories, 0.5, workers=workers)
    )
    return {
        "trajectories": count,
        "workers": workers,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds
        if parallel_seconds
        else float("inf"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--counts",
        default="500,1000,2000",
        help="comma list of database sizes for the refine-phase rows",
    )
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--refine-batch-size", type=int, default=64)
    parser.add_argument(
        "--matrix-count",
        type=int,
        default=120,
        help="trajectories in the serial-vs-parallel matrix precompute",
    )
    parser.add_argument(
        "--matrix-workers",
        type=int,
        default=min(4, os.cpu_count() or 1),
    )
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_edr_refine.json"))
    args = parser.parse_args()

    counts = [int(part) for part in args.counts.split(",") if part.strip()]
    rng = np.random.default_rng(999)
    query = Trajectory(np.cumsum(rng.normal(size=(80, 2)), axis=0))

    refine_results = {}
    header = f"{'N':>6} {'mode':<18} {'scalar':>10} {'batched':>10} {'speedup':>9}"
    print(header)
    table_lines = [header]
    for count in counts:
        database = make_database(count)
        rows = bench_refine(
            database, query, args.k, args.repeats, args.refine_batch_size
        )
        refine_results[str(count)] = rows
        for name, row in rows.items():
            line = (
                f"{count:>6} {name:<18} {row['scalar_seconds'] * 1e3:>8.1f}ms "
                f"{row['batched_seconds'] * 1e3:>8.1f}ms {row['speedup']:>8.1f}x"
            )
            print(line)
            table_lines.append(line)

    matrix_results = bench_matrix(
        args.matrix_count, args.matrix_workers, args.repeats
    )
    matrix_line = (
        f"edr_matrix({matrix_results['trajectories']} trajectories): "
        f"serial {matrix_results['serial_seconds']:.3f}s, "
        f"{matrix_results['workers']} workers "
        f"{matrix_results['parallel_seconds']:.3f}s "
        f"({matrix_results['speedup']:.2f}x)"
    )
    print("\n" + matrix_line)

    payload = {
        "k": args.k,
        "refine_batch_size": args.refine_batch_size,
        "refine_phase": refine_results,
        "matrix_precompute": matrix_results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    # Also emit the paper-style table that EXPERIMENTS.md embeds.
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    title = (
        f"Batched EDR refinement (batch size {args.refine_batch_size}, "
        f"k={args.k})"
    )
    lines = [title, "=" * len(title)]
    lines.extend(table_lines)
    lines.append("")
    lines.append(matrix_line)
    (results_dir / "edr_refine.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

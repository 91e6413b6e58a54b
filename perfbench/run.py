"""The repository's benchmark: four workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-distinct --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times half
the run untraced and half with every layer entry point wrapped, and
prints the per-layer metrics.  Provenance goes to standard output
before the result, which is always the last line::

    {"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}

The command exits non-zero when an output check fails, and without a
result when the program's sources are missing.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-distinct", "serve-hot", "ingest-fresh", "store-knn")


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: float
    root: Path
    src: Path
    work: Path

    def size(self, count: int) -> int:
        return max(80, int(count * self.scale))


def execute(run: Run) -> dict:
    if run.workload in ("serve-distinct", "serve-hot"):
        from serve import run_serve

        return run_serve(run, hot=run.workload == "serve-hot")
    if run.workload == "ingest-fresh":
        from library import run_ingest

        return run_ingest(run)
    from library import run_store

    return run_store(run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every corpus size (the benchmark's own tests shrink it)",
    )
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import measure

    work = ROOT / ".perfbench_work" / f"{args.workload}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    run = Run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
        ROOT, src, work,
    )
    load_before = measure.load_average()
    try:
        result = execute(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    provenance = measure.provenance(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), scale=args.scale,
        load_before=load_before, load_after=measure.load_average(),
        **result["provenance"],
    )
    print(json.dumps({"provenance": provenance}))
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>15} {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface for trajectory similarity search.

Usage (also available as ``python -m repro``):

    repro-trajectory generate --kind random-walk --count 500 --out db.npz
    repro-trajectory info db.npz
    repro-trajectory distance db.npz 3 17 --function edr --epsilon 0.25
    repro-trajectory knn db.npz --query-index 0 --k 10 --pruners histogram,qgram
    repro-trajectory range db.npz --query-index 0 --radius 20
    repro-trajectory join db.npz --radius 10
    repro-trajectory find-pattern db.npz --pattern-index 0 --pattern-end 20
    repro-trajectory align db.npz 0 6
    repro-trajectory classify db.npz --functions euclidean,dtw,erp,lcss,edr

Files are the NPZ/CSV formats of :mod:`repro.data.io`; labelled
generators attach class labels that ``classify`` and ``cluster`` use.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import List, Optional

import numpy as np

from . import __version__
from .core.alignment import edr_alignment, subtrajectory_edr
from .core.batch import BATCH_ENGINES, knn_batch
from .core.database import TrajectoryDatabase
from .core.edr_batch import DEFAULT_REFINE_BATCH_SIZE
from .core.join import similarity_join
from .core.kernels import DEFAULT_KERNEL
from .core.rangequery import range_search
from .core.search import Pruner, knn_scan, knn_sorted_search
from .core.subtrajectory import DEFAULT_WINDOW_ALPHA, subknn_search
from .core.matching import suggest_epsilon
from .core.trajectory import Trajectory
from .data import (
    load_csv,
    load_npz,
    make_asl_like,
    make_cameramouse_like,
    make_mixed_set,
    make_nhl_like,
    make_random_walk_set,
    save_csv,
    save_npz,
)
from .distances.base import EPSILON_FUNCTIONS, available_distances, get_distance
from .eval.classification import leave_one_out_error
from .eval.clustering import clustering_score
from .service import PortInUseError, ServiceConfig, run_server
from .service import bench as service_bench
from .service.pruning import PRUNER_CHOICES, build_pruners
from .storage.pagefile import DEFAULT_PAGE_SIZE

__all__ = ["main", "build_parser"]

GENERATORS = {
    "random-walk": lambda count, seed: make_random_walk_set(count=count, seed=seed),
    "asl": lambda count, seed: make_asl_like(seed=seed),
    "cameramouse": lambda count, seed: make_cameramouse_like(seed=seed),
    "nhl": lambda count, seed: make_nhl_like(count=count, seed=seed),
    "mixed": lambda count, seed: make_mixed_set(count=count, seed=seed),
}

def _load(path: str) -> List[Trajectory]:
    if path.endswith(".csv"):
        return load_csv(path)
    return load_npz(path)


def _save(path: str, trajectories: List[Trajectory]) -> None:
    if path.endswith(".csv"):
        save_csv(path, trajectories)
    else:
        save_npz(path, trajectories)


def _epsilon(argument: Optional[float], trajectories: List[Trajectory]) -> float:
    if argument is not None:
        return argument
    return suggest_epsilon(trajectories)


def _distance_callable(name: str, epsilon: float):
    function = get_distance(name)
    if name.lower() in EPSILON_FUNCTIONS:
        return lambda a, b: function(a, b, epsilon)
    return lambda a, b: function(a, b)


def _build_pruners(
    names: str,
    database: TrajectoryDatabase,
    matrix_workers: Optional[int] = None,
) -> List[Pruner]:
    try:
        return build_pruners(database, names, matrix_workers=matrix_workers)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _open_store(path: str):
    """Attach a tiered store directory, turning store faults into exits."""
    from .storage.tiered import StoreError, TieredDatabase

    try:
        return TieredDatabase.open(path)
    except StoreError as error:
        raise SystemExit(str(error)) from None


def _require_source(args: argparse.Namespace) -> None:
    sources = [
        name
        for name, value in (
            ("a trajectory file", args.file),
            ("--store", getattr(args, "store", None)),
            ("--ingest-root", getattr(args, "ingest_root", None)),
        )
        if value
    ]
    if len(sources) > 1:
        raise SystemExit(f"provide only one of: {', '.join(sources)}")
    if not sources:
        raise SystemExit("provide a trajectory file, --store, or --ingest-root")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    generator = GENERATORS[args.kind]
    trajectories = generator(args.count, args.seed)
    if args.normalize:
        trajectories = [t.normalized() for t in trajectories]
    _save(args.out, trajectories)
    print(f"wrote {len(trajectories)} trajectories to {args.out}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    trajectories = _load(args.file)
    lengths = np.array([len(t) for t in trajectories])
    labels = {t.label for t in trajectories if t.label is not None}
    print(f"trajectories: {len(trajectories)}")
    print(f"arity: {trajectories[0].ndim if trajectories else '-'}")
    print(
        "lengths: "
        f"min={lengths.min()} median={int(np.median(lengths))} max={lengths.max()}"
    )
    print(f"labelled classes: {len(labels) if labels else 'none'}")
    print(f"suggested epsilon: {suggest_epsilon(trajectories):.4f}")
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    trajectories = _load(args.file)
    epsilon = _epsilon(args.epsilon, trajectories)
    function = _distance_callable(args.function, epsilon)
    first = trajectories[args.first]
    second = trajectories[args.second]
    value = function(first, second)
    print(f"{args.function}({args.first}, {args.second}) = {value}")
    return 0


def cmd_knn(args: argparse.Namespace) -> int:
    _require_source(args)
    tiered = _open_store(args.store) if args.store else None
    if tiered is not None:
        database = tiered.database
        trajectories = database.trajectories
        epsilon = database.epsilon
    else:
        trajectories = _load(args.file)
        epsilon = _epsilon(args.epsilon, trajectories)
        database = TrajectoryDatabase(trajectories, epsilon)
    query = trajectories[args.query_index]
    pruners = _build_pruners(args.pruners, database, args.matrix_workers)
    if args.sub:
        engine = tiered.subknn_search if tiered is not None else (
            lambda *a, **kw: subknn_search(database, *a, **kw)
        )
        matches, stats = engine(
            query,
            args.k,
            pruners,
            alpha=args.sub_alpha,
            refine_batch_size=args.refine_batch_size,
        )
        print(
            f"epsilon = {epsilon:.4f}; kernel = {stats.kernel}; "
            f"pruning power = {stats.pruning_power:.3f}"
        )
        print(
            f"windows: {stats.windows_total} total, "
            f"{stats.windows_evaluated} evaluated, "
            f"{stats.windows_pruned} pruned, "
            f"{stats.windows_abandoned} abandoned"
        )
        if tiered is not None:
            print(
                f"bytes touched = {stats.bytes_touched}; "
                f"pages read = {stats.pages_read}; "
                f"pool hit rate = {stats.pool_hit_rate:.3f}"
            )
        for match in matches:
            label = trajectories[match.index].label or ""
            print(
                f"  {match.index:>6}  [{match.start:>4}, {match.end:>4})  "
                f"EDR = {match.distance:<8.1f} {label}"
            )
        if tiered is not None:
            tiered.close()
        return 0
    # The bound-ordered engine, as ``knn-batch`` and the service run it;
    # with no pruner to order by, the plain scan.
    if not pruners:
        scan = tiered.knn_scan if tiered is not None else partial(knn_scan, database)
        neighbors, stats = scan(query, args.k)
    else:
        search = (
            tiered.knn_sorted_search
            if tiered is not None
            else partial(knn_sorted_search, database)
        )
        neighbors, stats = search(
            query,
            args.k,
            pruners[0],
            pruners[1:],
            refine_batch_size=args.refine_batch_size,
        )
    print(
        f"epsilon = {epsilon:.4f}; kernel = {stats.kernel}; "
        f"pruning power = {stats.pruning_power:.3f}"
    )
    if tiered is not None:
        print(
            f"bytes touched = {stats.bytes_touched}; "
            f"pages read = {stats.pages_read}; "
            f"pool hit rate = {stats.pool_hit_rate:.3f}"
        )
    for neighbor in neighbors:
        label = trajectories[neighbor.index].label or ""
        print(f"  {neighbor.index:>6}  EDR = {neighbor.distance:<8.1f} {label}")
    if tiered is not None:
        tiered.close()
    return 0


def cmd_knn_batch(args: argparse.Namespace) -> int:
    _require_source(args)
    tiered = _open_store(args.store) if args.store else None
    if tiered is not None:
        database = tiered.database
        trajectories = database.trajectories
        epsilon = database.epsilon
    else:
        trajectories = _load(args.file)
        epsilon = _epsilon(args.epsilon, trajectories)
        database = TrajectoryDatabase(trajectories, epsilon)
    if args.query_indices:
        indices = [
            int(part)
            for part in filter(None, (p.strip() for p in args.query_indices.split(",")))
        ]
    else:
        indices = list(range(min(args.queries, len(trajectories))))
    queries = [trajectories[index] for index in indices]
    pruners = _build_pruners(args.pruners, database, args.matrix_workers)
    sharded_engine = None
    executor = args.executor
    if tiered is not None:
        if args.shards and args.shards > 1:
            # Mmap-attach sharding: workers map the store's files.
            sharded_engine = tiered.sharded(
                args.shards, workers=args.shard_workers
            )
        elif executor not in ("serial", "thread"):
            # A paged database holds open file handles and cannot be
            # pickled into a process pool.
            executor = "serial"
    batch = knn_batch(
        database,
        queries,
        args.k,
        pruners,
        engine=args.engine,
        workers=args.workers,
        executor=executor,
        refine_batch_size=args.refine_batch_size,
        shards=None if sharded_engine is not None else args.shards,
        shard_workers=args.shard_workers,
        sharded=sharded_engine,
        sub=args.sub,
        alpha=args.sub_alpha,
    )
    if sharded_engine is not None:
        sharded_engine.close()
    total_computed = sum(s.true_distance_computations for s in batch.stats)
    total_candidates = sum(s.database_size for s in batch.stats)
    shard_note = (
        f", {batch.extra['shards']} shard(s)" if "shards" in batch.extra else ""
    )
    print(
        f"epsilon = {epsilon:.4f}; {len(queries)} queries in "
        f"{batch.elapsed_seconds:.3f}s "
        f"({batch.executor}, {batch.workers} worker(s), "
        f"engine={args.engine}, kernel={DEFAULT_KERNEL}{shard_note})"
    )
    print(
        f"true distance computations: {total_computed}/{total_candidates} "
        f"(pruning power {1.0 - total_computed / max(total_candidates, 1):.3f})"
    )
    if args.sub:
        total_windows = sum(s.windows_total for s in batch.stats)
        evaluated_windows = sum(s.windows_evaluated for s in batch.stats)
        print(
            f"windows evaluated: {evaluated_windows}/{total_windows} "
            f"(alpha {args.sub_alpha})"
        )
    for query_index, neighbors in zip(indices, batch.neighbors):
        if args.sub:
            summary = ", ".join(
                f"{m.index}[{m.start}:{m.end}]:{m.distance:.0f}"
                for m in neighbors[: args.limit]
            )
        else:
            summary = ", ".join(
                f"{n.index}:{n.distance:.0f}" for n in neighbors[: args.limit]
            )
        print(f"  query {query_index:>6} -> {summary}")
    if tiered is not None:
        tiered.close()
    return 0


def cmd_range(args: argparse.Namespace) -> int:
    _require_source(args)
    tiered = _open_store(args.store) if args.store else None
    if tiered is not None:
        database = tiered.database
        trajectories = database.trajectories
        epsilon = database.epsilon
    else:
        trajectories = _load(args.file)
        epsilon = _epsilon(args.epsilon, trajectories)
        database = TrajectoryDatabase(trajectories, epsilon)
    query = trajectories[args.query_index]
    pruners = _build_pruners(args.pruners, database, args.matrix_workers)
    if tiered is not None:
        results, stats = tiered.range_search(
            query,
            args.radius,
            pruners,
            refine_batch_size=args.refine_batch_size,
        )
    else:
        results, stats = range_search(
            database,
            query,
            args.radius,
            pruners,
            refine_batch_size=args.refine_batch_size,
        )
    print(
        f"epsilon = {epsilon:.4f}; kernel = {stats.kernel}; "
        f"{len(results)} trajectories within "
        f"EDR {args.radius} (pruning power {stats.pruning_power:.3f})"
    )
    if tiered is not None:
        print(
            f"bytes touched = {stats.bytes_touched}; "
            f"pages read = {stats.pages_read}; "
            f"pool hit rate = {stats.pool_hit_rate:.3f}"
        )
    for neighbor in sorted(results, key=lambda n: n.distance):
        print(f"  {neighbor.index:>6}  EDR = {neighbor.distance:.1f}")
    if tiered is not None:
        tiered.close()
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    trajectories = _load(args.file)
    epsilon = _epsilon(args.epsilon, trajectories)
    database = TrajectoryDatabase(trajectories, epsilon)
    pruners = _build_pruners(args.pruners, database)
    pairs, stats = similarity_join(database, None, args.radius, pruners)
    print(
        f"epsilon = {epsilon:.4f}; {len(pairs)} pairs within EDR "
        f"{args.radius} (pruning power {stats.pruning_power:.3f})"
    )
    for pair in sorted(pairs, key=lambda p: p.distance)[: args.limit]:
        print(
            f"  ({pair.first_index:>5}, {pair.second_index:>5})  "
            f"EDR = {pair.distance:.1f}"
        )
    if len(pairs) > args.limit:
        print(f"  ... and {len(pairs) - args.limit} more")
    return 0


def cmd_find_pattern(args: argparse.Namespace) -> int:
    trajectories = _load(args.file)
    epsilon = _epsilon(args.epsilon, trajectories)
    pattern_source = trajectories[args.pattern_index]
    end = args.pattern_end if args.pattern_end is not None else len(pattern_source)
    pattern = pattern_source.points[args.pattern_start : end]
    print(
        f"pattern: trajectory {args.pattern_index}"
        f"[{args.pattern_start}:{end}] ({len(pattern)} samples), "
        f"epsilon = {epsilon:.4f}"
    )
    hits = []
    for index, trajectory in enumerate(trajectories):
        distance, window = subtrajectory_edr(pattern, trajectory, epsilon)
        hits.append((distance, index, window))
    hits.sort()
    for distance, index, (start, stop) in hits[: args.limit]:
        print(
            f"  trajectory {index:>5}  window [{start:>4}, {stop:>4})  "
            f"EDR = {distance:.0f}"
        )
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    trajectories = _load(args.file)
    epsilon = _epsilon(args.epsilon, trajectories)
    first = trajectories[args.first]
    second = trajectories[args.second]
    distance, operations = edr_alignment(first, second, epsilon)
    matched = sum(op.kind == "match" for op in operations)
    print(
        f"EDR({args.first}, {args.second}) = {distance:.0f} "
        f"({matched} free matches, {len(operations) - matched} edits)"
    )
    runs = []
    for op in operations:
        if not runs or runs[-1][0] != op.kind:
            runs.append([op.kind, 0])
        runs[-1][1] += 1
    print("script:", ", ".join(f"{count}x{kind}" for kind, count in runs))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    trajectories = _load(args.file)
    if not any(t.label for t in trajectories):
        raise SystemExit("classify needs a labelled data set")
    epsilon = _epsilon(args.epsilon, trajectories)
    print(f"epsilon = {epsilon:.4f}")
    for name in args.functions.split(","):
        name = name.strip()
        function = _distance_callable(name, epsilon)
        error = leave_one_out_error(trajectories, function)
        print(f"  {name:<14} leave-one-out error = {error:.3f}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    trajectories = _load(args.file)
    if not any(t.label for t in trajectories):
        raise SystemExit("cluster needs a labelled data set")
    epsilon = _epsilon(args.epsilon, trajectories)
    print(f"epsilon = {epsilon:.4f}")
    for name in args.functions.split(","):
        name = name.strip()
        function = _distance_callable(name, epsilon)
        correct, total = clustering_score(trajectories, function)
        print(f"  {name:<14} correct class-pair partitions = {correct}/{total}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    _require_source(args)
    if args.store or args.ingest_root:
        database = None
    else:
        trajectories = _load(args.file)
        epsilon = _epsilon(args.epsilon, trajectories)
        database = TrajectoryDatabase(trajectories, epsilon)
    try:
        config = ServiceConfig(
            **{field: getattr(args, dest) for dest, field in SERVE_CONFIG_FIELDS.items()}
        ).validated()
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if args.store:
        print(
            f"store = {args.store}; pruners = {config.pruners or 'none'}; "
            f"engine = {config.engine}; kernel = {DEFAULT_KERNEL}"
        )
    elif args.ingest_root:
        print(
            f"ingest root = {args.ingest_root}; "
            f"follow = {'on' if config.follow else 'off'}; "
            f"pruners = {config.pruners or 'none'}"
        )
    else:
        print(
            f"epsilon = {epsilon:.4f}; pruners = {config.pruners or 'none'}; "
            f"engine = {config.engine}; kernel = {DEFAULT_KERNEL}"
        )
    from .storage.tiered import StoreError

    try:
        run_server(database, config)
    except PortInUseError as error:
        raise SystemExit(str(error)) from None
    except StoreError as error:
        raise SystemExit(str(error)) from None
    return 0


def cmd_build_store(args: argparse.Namespace) -> int:
    import resource

    from .storage.tiered import StoreError, build_store

    trajectories = _load(args.file)
    epsilon = _epsilon(args.epsilon, trajectories)
    parts = tuple(
        part for part in (p.strip() for p in args.parts.split(",")) if part
    )
    state = {"stage": None, "t0": 0.0, "last": 0.0}

    def progress(stage: str, done: int, total: int) -> None:
        now = time.perf_counter()
        if stage != state["stage"]:
            state["stage"] = stage
            state["t0"] = now
            state["last"] = 0.0
        if now - state["last"] < 1.0 and done != total:
            return
        state["last"] = now
        total_note = f"/{total}" if total else ""
        rate_note = ""
        if now - state["t0"] > 0.01:
            rate_note = f" ({done / (now - state['t0']):.0f}/s)"
        print(f"  {stage}: {done}{total_note}{rate_note}", flush=True)

    start = time.perf_counter()
    try:
        report = build_store(
            trajectories,
            args.out,
            epsilon,
            parts=parts,
            chunk_size=args.chunk_size,
            page_size=args.page_size,
            max_triangle=args.max_triangle,
            matrix_workers=args.matrix_workers,
            progress=progress,
        )
    except StoreError as error:
        raise SystemExit(str(error)) from None
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"wrote {report['count']} trajectories "
        f"({report['bytes'] / 1e6:.1f} MB, parts: {','.join(report['parts'])}) "
        f"to {report['directory']}"
    )
    print(
        f"  {elapsed:.1f}s total ({report['count'] / max(elapsed, 1e-9):.0f} "
        f"trajectories/s), peak RSS {peak_mb:.0f} MB"
    )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from .ingest import IngestError, IngestRoot

    try:
        if args.init:
            trajectories = _load(args.init)
            epsilon = _epsilon(args.epsilon, trajectories)
            kind = "store" if args.tiered else "memory"
            IngestRoot.init(args.root, trajectories, epsilon, kind=kind)
            print(
                f"initialised {args.root} with {len(trajectories)} "
                f"trajectories (epsilon {epsilon:.4f}, kind {kind})"
            )
            return 0
        root = IngestRoot(args.root)
        if args.add:
            mutable = root.open_mutable()
            try:
                added = [mutable.insert(t) for t in _load(args.add)]
            finally:
                mutable.close()
            print(f"inserted {len(added)} trajectories (uids {added[0]}..{added[-1]})")
            return 0
        if args.delete is not None:
            mutable = root.open_mutable()
            try:
                mutable.delete(args.delete)
            except KeyError as error:
                raise SystemExit(str(error.args[0])) from None
            finally:
                mutable.close()
            print(f"deleted trajectory {args.delete}")
            return 0
        # --status (the default): read-only, never repairs
        pointer = root.current()
        mutable = root.open_mutable(repair=False)
        try:
            print(f"generation: {pointer['generation']} (epoch {pointer.get('epoch', 0)})")
            print(f"live trajectories: {len(mutable.view())}")
            print(f"delta (WAL) mutations: {mutable.delta_size}")
            print(f"applied seq: {mutable.applied_seq}")
        finally:
            mutable.close()
        return 0
    except IngestError as error:
        raise SystemExit(str(error)) from None


def cmd_compact(args: argparse.Namespace) -> int:
    from .ingest import IngestError, IngestRoot, compact

    try:
        root = IngestRoot(args.root)
        start = time.perf_counter()
        kind = "store" if args.tiered else None
        name = compact(root, kind=kind)
        elapsed = time.perf_counter() - start
        print(f"compacted {args.root} -> {name} in {elapsed:.2f}s")
        return 0
    except IngestError as error:
        raise SystemExit(str(error)) from None


def cmd_bench_serve(args: argparse.Namespace) -> int:
    results = service_bench.run(args)
    return 0 if results else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
#: ``serve`` argument -> the ServiceConfig field it sets (and takes its
#: default from).
SERVE_CONFIG_FIELDS = {
    "host": "host",
    "port": "port",
    "pruners": "pruners",
    "engine": "engine",
    "k": "k_default",
    "max_batch": "max_batch",
    "cache_size": "cache_size",
    "queue_limit": "queue_limit",
    "request_timeout": "request_timeout_s",
    "matrix_workers": "matrix_workers",
    "refine_batch_size": "refine_batch_size",
    "shards": "shards",
    "shard_workers": "shard_workers",
    "replicas": "replicas",
    "replica_queue_depth": "replica_queue_depth",
    "replica_spillover_depth": "replica_spillover_depth",
    "replica_rpc_timeout": "replica_rpc_timeout_s",
    "replica_retries": "replica_retries",
    "store": "store",
    "ingest_root": "ingest_root",
    "follow": "follow",
    "follow_poll_s": "follow_poll_s",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trajectory",
        description="EDR trajectory similarity search (SIGMOD 2005 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic data set")
    generate.add_argument("--kind", choices=sorted(GENERATORS), default="random-walk")
    generate.add_argument("--count", type=int, default=100)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--normalize", action="store_true")
    generate.add_argument("--out", required=True, help="output .npz or .csv path")
    generate.set_defaults(handler=cmd_generate)

    info = commands.add_parser("info", help="summarize a trajectory file")
    info.add_argument("file")
    info.set_defaults(handler=cmd_info)

    distance = commands.add_parser("distance", help="distance between two members")
    distance.add_argument("file")
    distance.add_argument("first", type=int)
    distance.add_argument("second", type=int)
    distance.add_argument(
        "--function", default="edr", choices=available_distances()
    )
    distance.add_argument("--epsilon", type=float, default=None)
    distance.set_defaults(handler=cmd_distance)

    knn = commands.add_parser("knn", help="k-NN search under EDR")
    knn.add_argument("file", nargs="?", default=None)
    knn.add_argument(
        "--store",
        default=None,
        help="serve a tiered store directory (built with build-store) "
        "instead of loading a trajectory file into memory",
    )
    knn.add_argument("--query-index", type=int, default=0)
    knn.add_argument("--k", type=int, default=10)
    knn.add_argument("--epsilon", type=float, default=None)
    knn.add_argument(
        "--pruners",
        default="histogram,qgram",
        help="comma list: histogram, histogram-1d, qgram, nti, none",
    )
    knn.add_argument(
        "--refine-batch-size",
        type=int,
        default=DEFAULT_REFINE_BATCH_SIZE,
        help="candidates per batched EDR verification bucket (0 = scalar path)",
    )
    knn.add_argument(
        "--matrix-workers",
        type=int,
        default=None,
        help="process-pool workers for the near-triangle reference-matrix precompute",
    )
    knn.add_argument(
        "--sub",
        action="store_true",
        help="subtrajectory mode: return each trajectory's best-matching "
        "window (banded by --sub-alpha) instead of whole-trajectory EDR",
    )
    knn.add_argument(
        "--sub-alpha",
        type=float,
        default=DEFAULT_WINDOW_ALPHA,
        help="window length band around the query length m: "
        "[m*(1-alpha), m*(1+alpha)]",
    )
    knn.set_defaults(handler=cmd_knn)

    knn_batch_command = commands.add_parser(
        "knn-batch", help="answer many k-NN queries with shared pruners"
    )
    knn_batch_command.add_argument("file", nargs="?", default=None)
    knn_batch_command.add_argument(
        "--store",
        default=None,
        help="serve a tiered store directory instead of an in-memory file",
    )
    knn_batch_command.add_argument(
        "--query-indices",
        default=None,
        help="comma list of query trajectory indices (default: first --queries)",
    )
    knn_batch_command.add_argument(
        "--queries", type=int, default=10, help="number of leading queries"
    )
    knn_batch_command.add_argument("--k", type=int, default=10)
    knn_batch_command.add_argument("--epsilon", type=float, default=None)
    knn_batch_command.add_argument("--pruners", default="histogram,qgram")
    knn_batch_command.add_argument(
        "--engine", choices=BATCH_ENGINES, default="sorted"
    )
    knn_batch_command.add_argument("--workers", type=int, default=None)
    knn_batch_command.add_argument(
        "--executor",
        choices=("auto", "serial", "thread", "process"),
        default="auto",
    )
    knn_batch_command.add_argument("--limit", type=int, default=5)
    knn_batch_command.add_argument(
        "--refine-batch-size",
        type=int,
        default=DEFAULT_REFINE_BATCH_SIZE,
        help="candidates per batched EDR verification bucket (0 = scalar path)",
    )
    knn_batch_command.add_argument(
        "--matrix-workers",
        type=int,
        default=None,
        help="process-pool workers for the near-triangle reference-matrix precompute",
    )
    knn_batch_command.add_argument(
        "--shards",
        type=int,
        default=None,
        help="answer each query with N-way intra-query shard parallelism "
        "(>1 enables the shared-memory sharded engine)",
    )
    knn_batch_command.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        help="shard worker pool size (default: one per shard)",
    )
    knn_batch_command.add_argument(
        "--sub",
        action="store_true",
        help="subtrajectory mode: every query returns its top-k "
        "best-matching windows instead of whole-trajectory neighbors",
    )
    knn_batch_command.add_argument(
        "--sub-alpha",
        type=float,
        default=DEFAULT_WINDOW_ALPHA,
        help="window length band around the query length m: "
        "[m*(1-alpha), m*(1+alpha)]",
    )
    knn_batch_command.set_defaults(handler=cmd_knn_batch)

    range_command = commands.add_parser("range", help="range query under EDR")
    range_command.add_argument("file", nargs="?", default=None)
    range_command.add_argument(
        "--store",
        default=None,
        help="serve a tiered store directory instead of an in-memory file",
    )
    range_command.add_argument("--query-index", type=int, default=0)
    range_command.add_argument("--radius", type=float, required=True)
    range_command.add_argument("--epsilon", type=float, default=None)
    range_command.add_argument("--pruners", default="histogram,qgram")
    range_command.add_argument(
        "--refine-batch-size",
        type=int,
        default=DEFAULT_REFINE_BATCH_SIZE,
        help="candidates per batched EDR verification bucket (0 = scalar path)",
    )
    range_command.add_argument(
        "--matrix-workers",
        type=int,
        default=None,
        help="process-pool workers for the near-triangle reference-matrix precompute",
    )
    range_command.set_defaults(handler=cmd_range)

    join = commands.add_parser("join", help="similarity self-join under EDR")
    join.add_argument("file")
    join.add_argument("--radius", type=float, required=True)
    join.add_argument("--epsilon", type=float, default=None)
    join.add_argument("--pruners", default="histogram,qgram")
    join.add_argument("--limit", type=int, default=20)
    join.set_defaults(handler=cmd_join)

    find_pattern = commands.add_parser(
        "find-pattern", help="locate a sub-trajectory pattern in every member"
    )
    find_pattern.add_argument("file")
    find_pattern.add_argument("--pattern-index", type=int, required=True)
    find_pattern.add_argument("--pattern-start", type=int, default=0)
    find_pattern.add_argument("--pattern-end", type=int, default=None)
    find_pattern.add_argument("--epsilon", type=float, default=None)
    find_pattern.add_argument("--limit", type=int, default=10)
    find_pattern.set_defaults(handler=cmd_find_pattern)

    align = commands.add_parser(
        "align", help="show the EDR edit script between two members"
    )
    align.add_argument("file")
    align.add_argument("first", type=int)
    align.add_argument("second", type=int)
    align.add_argument("--epsilon", type=float, default=None)
    align.set_defaults(handler=cmd_align)

    classify = commands.add_parser(
        "classify", help="leave-one-out 1-NN evaluation of distance functions"
    )
    classify.add_argument("file")
    classify.add_argument("--functions", default="euclidean,dtw,erp,lcss_distance,edr")
    classify.add_argument("--epsilon", type=float, default=None)
    classify.set_defaults(handler=cmd_classify)

    cluster = commands.add_parser(
        "cluster", help="complete-linkage class-pair clustering evaluation"
    )
    cluster.add_argument("file")
    cluster.add_argument("--functions", default="euclidean,dtw,erp,lcss_distance,edr")
    cluster.add_argument("--epsilon", type=float, default=None)
    cluster.set_defaults(handler=cmd_cluster)

    serve = commands.add_parser(
        "serve", help="run the HTTP query service over a trajectory file"
    )
    serve.add_argument("file", nargs="?", default=None)
    serve.add_argument(
        "--store",
        help="serve a tiered store directory (mmap-resident corpus) "
        "instead of loading a trajectory file into memory",
    )
    serve.add_argument("--host")
    serve.add_argument("--port", type=int)
    serve.add_argument("--epsilon", type=float, default=None)
    serve.add_argument(
        "--pruners", help=f"comma list: {', '.join(PRUNER_CHOICES)}"
    )
    serve.add_argument("--engine", choices=BATCH_ENGINES)
    serve.add_argument("--k", type=int, help="default k for /knn")
    serve.add_argument("--max-batch", type=int)
    serve.add_argument("--cache-size", type=int)
    serve.add_argument("--queue-limit", type=int)
    serve.add_argument("--request-timeout", type=float)
    serve.add_argument("--refine-batch-size", type=int)
    serve.add_argument("--matrix-workers", type=int)
    serve.add_argument(
        "--shards",
        type=int,
        help="partition the database across N shared-memory shards and "
        "answer each k-NN query with intra-query parallelism (>1 enables)",
    )
    serve.add_argument(
        "--shard-workers",
        type=int,
        help="shard worker pool size (default: one per shard)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        help="run N resident engine replica processes behind a "
        "consistent-hash router (>1 enables; answers are unchanged, the "
        "per-replica caches compose into one fleet-wide cache)",
    )
    serve.add_argument(
        "--replica-queue-depth",
        type=int,
        help="max outstanding RPCs per replica before the router sheds "
        "with 503 + Retry-After",
    )
    serve.add_argument(
        "--replica-spillover-depth",
        type=int,
        help="queue depth at which the router abandons hash affinity "
        "and spills to the least-loaded replica",
    )
    serve.add_argument(
        "--replica-rpc-timeout",
        type=float,
        help="per-RPC timeout before a replica is condemned and the "
        "query retried on a sibling",
    )
    serve.add_argument(
        "--replica-retries",
        type=int,
        help="sibling retries a failed replica RPC gets before the "
        "request errors out",
    )
    serve.add_argument(
        "--ingest-root",
        help="serve a live ingest root (current generation merged with "
        "the WAL delta) instead of a static corpus",
    )
    serve.add_argument(
        "--follow",
        action="store_true",
        help="poll the ingest root and hot-swap to newly compacted "
        "generations without dropping in-flight queries",
    )
    serve.add_argument(
        "--follow-poll-s", type=float, help="ingest-root poll interval for --follow"
    )
    # Every default comes from the ServiceConfig field the flag sets.
    served = ServiceConfig()
    serve.set_defaults(
        handler=cmd_serve,
        **{dest: getattr(served, field) for dest, field in SERVE_CONFIG_FIELDS.items()},
    )

    ingest = commands.add_parser(
        "ingest",
        help="initialise or mutate a live ingest root "
        "(write-ahead delta log over immutable generations)",
    )
    ingest.add_argument("root", help="ingest root directory")
    ingest.add_argument(
        "--init",
        default=None,
        metavar="FILE",
        help="create the root with generation 0 from a trajectory file",
    )
    ingest.add_argument(
        "--add",
        default=None,
        metavar="FILE",
        help="append every trajectory in FILE to the delta log",
    )
    ingest.add_argument(
        "--delete", type=int, default=None, metavar="UID",
        help="log the deletion of one live trajectory id",
    )
    ingest.add_argument("--epsilon", type=float, default=None)
    ingest.add_argument(
        "--tiered",
        action="store_true",
        help="with --init: back generation 0 with a tiered mmap store "
        "instead of an in-memory archive",
    )
    ingest.set_defaults(handler=cmd_ingest)

    compact_command = commands.add_parser(
        "compact",
        help="fold an ingest root's delta log into a new immutable "
        "generation and publish it atomically",
    )
    compact_command.add_argument("root", help="ingest root directory")
    compact_command.add_argument(
        "--tiered",
        action="store_true",
        help="write the new generation as a tiered mmap store",
    )
    compact_command.set_defaults(handler=cmd_compact)

    build_store_command = commands.add_parser(
        "build-store",
        help="build a tiered mmap store directory from a trajectory file "
        "(out-of-core, bounded peak memory)",
    )
    build_store_command.add_argument("file")
    build_store_command.add_argument(
        "--out", required=True, help="store directory to create"
    )
    build_store_command.add_argument("--epsilon", type=float, default=None)
    build_store_command.add_argument(
        "--parts",
        default="histogram,qgram",
        help="comma list of filter artifacts to materialize: "
        "histogram, histogram-1d, qgram, nti",
    )
    build_store_command.add_argument(
        "--chunk-size",
        type=int,
        default=2048,
        help="trajectories per streaming build chunk (bounds peak memory)",
    )
    build_store_command.add_argument(
        "--page-size", type=int, default=DEFAULT_PAGE_SIZE
    )
    build_store_command.add_argument(
        "--max-triangle",
        type=int,
        default=50,
        help="reference columns for the nti part",
    )
    build_store_command.add_argument("--matrix-workers", type=int, default=None)
    build_store_command.set_defaults(handler=cmd_build_store)

    bench_serve = commands.add_parser(
        "bench-serve",
        help="closed-loop load benchmark of the query service "
        "(writes BENCH_service.json)",
    )
    service_bench.add_arguments(bench_serve)
    bench_serve.set_defaults(handler=cmd_bench_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

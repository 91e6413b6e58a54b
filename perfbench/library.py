"""The in-library workloads: live ingest and out-of-core k-NN.

Both run in the benchmark's own process, which is then the process
under test (its CPU time and peak RSS are reported).
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import time
from typing import Callable, List, Optional

import measure
from corpus import EPSILON, make_corpus, make_routes, members
from layers import Op, layer_metrics, overhead, stats_fields
from spans import Recorder, install

SPEC = "histogram,qgram"
K = 10
INGEST_BASE = 1200
INSERTS_PER_OP = 4
STORE_COUNT = 10000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setups(setup: Callable[[int], object], recorder: Optional[Recorder]):
    """Run ``setup`` ``measure.SETUP_REPEATS`` times; keep the last state.

    In a traced run only the last set-up is traced, so set-up spans
    describe one set-up.
    """
    seconds, state, speed = [], None, measure.HostSpeed()
    for index in range(measure.SETUP_REPEATS):
        undo = install(recorder) if recorder is not None and index == measure.SETUP_REPEATS - 1 else None
        speed.samples_of(measure.SETUP_SAMPLES)
        start = time.perf_counter()
        state = setup(index)
        seconds.append(time.perf_counter() - start)
        if undo is not None:
            undo()
    return seconds, speed, state


def _timed(run, recorder: Optional[Recorder], op: Callable[[int], Op]):
    """The closed loop; a traced run times half untraced, half traced."""
    phases, done, speed = [], [], measure.HostSpeed()
    budget = run.seconds / 2.0 if recorder is not None else float(run.seconds)
    cpu0 = time.process_time()
    rid = 0
    for phase in range(2 if recorder is not None else 1):
        undo = install(recorder) if phase == 1 else None
        ops: List[Op] = []
        paused = 0.0
        began = time.perf_counter()
        deadline = began + budget
        try:
            while True:
                rid += 1
                if undo is not None:
                    recorder.request = rid
                ops.append(op(rid))
                done.append(time.perf_counter())
                paused += speed.tick()
                if time.perf_counter() >= deadline:
                    break
        finally:
            if undo is not None:
                undo()
            if recorder is not None:
                recorder.request = None
        phases.append((ops, time.perf_counter() - began - paused))
    cpu_s = time.process_time() - cpu0 - speed.spent_s
    return phases, done, cpu_s, _peak_rss_mb(), speed


def _finish(timed, setup, failures, provenance, recorder, **layer_extra):
    phases, done, cpu_s, peak_rss, run_speed = timed
    setups, setup_speed = setup
    ops = [op for phase_ops, _ in phases for op in phase_ops]
    failed = len(failures)
    result = {
        "correct": not failures,
        "failures": failures,
        "attempted": len(ops),
        "failed": failed,
        "provenance": {
            **provenance,
            "ops": len(ops),
            "tail_percentile": measure.tail_label(len(ops)),
            "setup_s_each": setups,
        },
    }
    if recorder is None:
        result["metrics"], result["provenance"]["raw"] = measure.end_to_end(
            [op.seconds for op in ops], done, sum(s for _, s in phases), cpu_s, peak_rss,
            measure.median(setups), len(ops), failed, run_speed, setup_speed,
        )
    else:
        untraced, traced = phases[0][0], phases[1][0]
        result["metrics"] = layer_metrics(
            recorder.spans, traced,
            overhead_ratio=overhead([op.seconds for op in untraced], [op.seconds for op in traced]),
            **layer_extra,
        )
    return result


def _answers(neighbors) -> list:
    return [(n.index, n.distance) for n in neighbors]


# ----------------------------------------------------------------------
# ingest-fresh
# ----------------------------------------------------------------------
def run_ingest(run) -> dict:
    import repro.core.search as search
    from repro import DeltaLog, MutableDatabase, Trajectory, TrajectoryDatabase
    from repro.service.pruning import build_pruners

    recorder = Recorder() if run.trace else None
    count = run.size(INGEST_BASE)

    def setup(index: int):
        routes = make_routes(count, run.seed)
        base = make_corpus(routes, count)
        database = TrajectoryDatabase(base, EPSILON)
        database.warm()
        directory = run.work / f"ingest-{index}"
        directory.mkdir()
        log = DeltaLog(directory / "delta.wal")
        return routes, base, MutableDatabase(database, log=log), log

    setups, setup_speed, (routes, base, mutable, log) = _setups(setup, recorder)
    queries = routes.queries()
    order = routes.balanced_order()
    deletes = [int(uid) for uid in routes.rng.permutation(count)]
    history = []  # (inserted trajectories, deleted uid, query, answer)

    def span(name: str):
        traced = recorder is not None and recorder.request is not None
        return recorder.span(name) if traced else contextlib.nullcontext()

    def op(rid: int) -> Op:
        step = len(history)
        inserts = [
            routes.member(order[(step * INSERTS_PER_OP + j) % len(order)])
            for j in range(INSERTS_PER_OP)
        ]
        query = next(queries)
        start = time.perf_counter()
        for trajectory in inserts:
            mutable.insert(trajectory)
        mutable.delete(deletes[step])
        with span("ingest.view"):
            view = mutable.view()
        with span("ingest.pruner_build"):
            pruners = build_pruners(view, SPEC)
        neighbors, stats = search.knn_search(view, query, K, pruners)
        seconds = time.perf_counter() - start
        history.append((inserts, deletes[step], query, _answers(neighbors)))
        return Op(rid, "knn", seconds, stats_fields(stats), len(neighbors))

    timed = _timed(run, recorder, op)
    phases = timed[0]

    # Oracle: the merged view's answers against a cold database built
    # from (a) the program's own snapshot after the last op and (b) the
    # corpus rebuilt independently from the op log at a seeded earlier op.
    failures = []
    trajectories, _ = mutable.snapshot()
    checks = [(len(history) - 1, trajectories)]
    step = int(routes.rng.integers(len(history)))
    deleted = {uid for _, uid, _, _ in history[: step + 1]}
    rebuilt = [t for uid, t in enumerate(base) if uid not in deleted] + [
        t for inserts, _, _, _ in history[: step + 1] for t in inserts
    ]
    checks.append((step, rebuilt))
    for step, corpus in checks:
        cold = TrajectoryDatabase([Trajectory(t.points) for t in corpus], EPSILON)
        want, _ = search.knn_search(cold, history[step][2], K, build_pruners(cold, SPEC))
        if _answers(want) != history[step][3]:
            failures.append(f"merged-view answer of op {step} differs from a cold database")
    ops = sum(len(phase_ops) for phase_ops, _ in phases)
    return _finish(
        timed, (setups, setup_speed), failures,
        {
            "base_size": count,
            "routes": len(routes.bases),
            "inserts_per_op": INSERTS_PER_OP,
            "deletes_per_op": 1,
            "wal_flush_policy": f"sync={log.sync}",
            "kernel": "library default (edr_kernel=None)",
        },
        recorder,
        wal_bytes_per_op=log.path.stat().st_size / ops,
    )


# ----------------------------------------------------------------------
# store-knn
# ----------------------------------------------------------------------
def run_store(run) -> dict:
    from repro import TrajectoryDatabase, knn_search
    from repro.core.batch import warm_pruners
    from repro.service.pruning import build_pruners
    from repro.storage import TieredDatabase, build_store

    recorder = Recorder() if run.trace else None
    count = run.size(STORE_COUNT)
    input_bytes = [0]

    def stream(routes):
        input_bytes[0] = 0
        for trajectory in members(routes, count):
            input_bytes[0] += trajectory.points.nbytes
            yield trajectory

    def setup(index: int):
        previous = run.work / f"store-{index - 1}"
        if previous.exists():
            shutil.rmtree(previous)
        routes = make_routes(count, run.seed)
        directory = run.work / f"store-{index}"
        if recorder is not None and index == measure.SETUP_REPEATS - 1:
            with recorder.span("storage.build"):
                build_store(stream(routes), directory, EPSILON)
        else:
            build_store(stream(routes), directory, EPSILON)
        tiered = TieredDatabase.open(directory)
        pruners = build_pruners(tiered.database, SPEC)
        warm_pruners(pruners, routes.member(0))
        return routes, tiered, pruners, directory

    setups, setup_speed, (routes, tiered, pruners, directory) = _setups(setup, recorder)
    store_bytes = sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())
    queries = routes.queries()
    history = []

    def op(rid: int) -> Op:
        query = next(queries)
        start = time.perf_counter()
        neighbors, stats = tiered.knn_sorted_search(query, K, pruners[0], pruners[1:])
        seconds = time.perf_counter() - start
        history.append((query, _answers(neighbors)))
        return Op(rid, "knn", seconds, stats_fields(stats), len(neighbors))

    try:
        timed = _timed(run, recorder, op)
    finally:
        tiered.close()

    # Oracle: store answers against the resident serial engine over the
    # same corpus, regenerated from the seed.
    failures = []
    resident = TrajectoryDatabase(list(members(make_routes(count, run.seed), count)), EPSILON)
    resident_pruners = build_pruners(resident, SPEC)
    for step in sorted({int(i) for i in routes.rng.choice(len(history), min(2, len(history)), replace=False)}):
        want, _ = knn_search(resident, history[step][0], K, resident_pruners)
        if _answers(want) != history[step][1]:
            failures.append(f"store answer of op {step} differs from resident knn_search")
    return _finish(
        timed, (setups, setup_speed), failures,
        {
            "corpus_size": count,
            "routes": len(routes.bases),
            "ingest_order": "grouped by route",
            "store_bytes": store_bytes,
            "pool_pages": tiered.pool.capacity,
            "kernel": "library default (edr_kernel=None)",
        },
        recorder,
        bytes_per_input_byte=store_bytes / input_bytes[0],
    )

"""The benchmark's tracer finds every entry point it wraps.

``perfbench/spans.install`` looks each hooked attribute up by name
(``vars(owner)[attr]``), so renaming or moving one of those names
breaks every ``--trace 1`` benchmark run with a ``KeyError``.  This
installs the full hook set, including the service layer, runs one
blocked sorted k-NN on a tiered store under it, and undoes it.  A
second test serves one ``/knn`` under the hooks, so the benchmark's
``service.batch_wait_ms`` (engine span start minus batch-submit span
start, per request id) stays measurable.  A third checks that both
window engines, serial and sharded, price windows through the hooked
``subtrajectory.edr_windows_many``.
"""

import json
import sys
import urllib.request
from pathlib import Path

import numpy as np

from repro import ShardedDatabase, Trajectory, TrajectoryDatabase, subknn_search
from repro.core import search
from repro.service import ServerHandle, ServiceConfig
from repro.service.pruning import build_pruners
from repro.storage.tiered import TieredDatabase, build_store

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import Recorder, install  # noqa: E402


def test_hooks_install_record_and_undo(tmp_path):
    rng = np.random.default_rng(5)
    trajectories = [
        Trajectory(np.cumsum(rng.normal(size=(int(rng.integers(10, 30)), 2)), axis=0))
        for _ in range(60)
    ]
    build_store(trajectories, tmp_path / "store", 0.5, summary_block=8)
    original = vars(search)["knn_search"]
    recorder = Recorder()
    undo = install(recorder, service=True)
    try:
        assert vars(search)["knn_search"] is not original
        with TieredDatabase.open(tmp_path / "store") as tiered:
            pruners = build_pruners(tiered.database, "histogram,qgram")
            neighbors, stats = tiered.knn_sorted_search(
                trajectories[3], 3, pruners[0], pruners[1:]
            )
    finally:
        undo()
    assert vars(search)["knn_search"] is original
    assert stats.blocks_total > 0  # the blocked source ran
    assert neighbors[0].index == 3
    names = {span.name for span in recorder.spans}
    assert {"histogram.bound", "search.knn"} <= names


def test_served_knn_records_submit_then_engine_spans():
    rng = np.random.default_rng(6)
    database = TrajectoryDatabase(
        [
            Trajectory(np.cumsum(rng.normal(size=(int(rng.integers(10, 30)), 2)), axis=0))
            for _ in range(40)
        ],
        epsilon=0.5,
    )
    recorder = Recorder()
    undo = install(recorder, service=True)
    try:
        with ServerHandle.start(database, ServiceConfig(port=0)) as handle:
            request = urllib.request.Request(
                f"{handle.base_url}/knn?rid=7",
                data=json.dumps({"query": 3, "k": 3}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.loads(response.read())
    finally:
        undo()
    assert body["neighbors"][0]["index"] == 3
    spans = [span for span in recorder.spans if span.request == 7]
    submits = [span for span in spans if span.name == "service.batch_submit"]
    engines = [span for span in spans if span.name == "search.knn"]
    assert len(submits) == 1 and engines
    assert submits[0].start <= engines[0].start <= submits[0].end


def test_both_window_engines_record_window_dp_spans():
    rng = np.random.default_rng(8)
    database = TrajectoryDatabase(
        [
            Trajectory(np.cumsum(rng.normal(size=(int(rng.integers(10, 30)), 2)), axis=0))
            for _ in range(40)
        ],
        epsilon=0.5,
    )
    query = database.trajectories[3]
    pruners = build_pruners(database, "histogram,qgram")
    recorder = Recorder()
    undo = install(recorder)

    def window_dp_spans() -> int:
        return sum(span.name == "subtrajectory.window_dp" for span in recorder.spans)

    try:
        subknn_search(database, query, 3, pruners)
        serial = window_dp_spans()
        with ShardedDatabase(database, 2, mode="inline") as sharded:
            sharded.subknn_search(query, 3)
        sharded_spans = window_dp_spans() - serial
    finally:
        undo()
    assert serial > 0
    assert sharded_spans > 0

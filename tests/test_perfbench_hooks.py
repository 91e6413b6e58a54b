"""The benchmark's tracer finds every entry point it wraps.

``perfbench/spans.install`` looks each hooked attribute up by name
(``vars(owner)[attr]``), so renaming or moving one of those names
breaks every ``--trace 1`` benchmark run with a ``KeyError``.  This
installs the full hook set, including the service layer, runs one
blocked sorted k-NN on a tiered store under it, and undoes it.
"""

import sys
from pathlib import Path

import numpy as np

from repro import Trajectory
from repro.core import search
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

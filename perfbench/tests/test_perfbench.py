"""Tests of the benchmark itself, at tiny corpus sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import measure  # noqa: E402
import run as bench  # noqa: E402
from spans import Recorder, Span, covered, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "1", "--scale", "0.04"]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--trace", trace, *TINY)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    provenance = json.loads(done.stdout.splitlines()[0])["provenance"]
    for key in ("nproc", "load_before", "load_after", "python", "numpy", "seed", "ops", "tail_percentile"):
        assert key in provenance


def test_the_oracle_fails_on_a_corrupted_answer(monkeypatch, capsys):
    from repro.storage.tiered import TieredDatabase

    original = TieredDatabase.knn_sorted_search

    def corrupted(self, *args, **kwargs):
        neighbors, stats = original(self, *args, **kwargs)
        neighbors[0] = type(neighbors[0])(neighbors[0].index, neighbors[0].distance + 1.0)
        return neighbors, stats

    monkeypatch.setattr(TieredDatabase, "knn_sorted_search", corrupted)
    code = bench.main(["--workload", "store-knn", "--seed", "5", *TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_served_answers_are_checked_against_the_library(monkeypatch, capsys):
    import serve

    def wrong(corpus, samples):
        return [[(-1, -1.0)] for _ in samples]

    monkeypatch.setattr(serve, "_direct_answers", wrong)
    code = bench.main(["--workload", "serve-distinct", "--seed", "5", *TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and result["correct"] is False and result["failed"] >= 1


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("engine", 0.0, 10.0),
        Span("bound", 1.0, 3.0, parent=0),
        Span("kernel", 2.0, 5.0, parent=0),  # overlaps the bound span
        Span("fetch", 9.0, 12.0, parent=0),  # runs past the parent's end
        Span("inner", 2.5, 4.5, parent=2),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 1.0, 3.0, 2.0])
    assert covered([(0, 1), (0.5, 2), (3, 4)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 1) == 0.0


def test_recorder_nests_spans_and_tags_the_request():
    recorder = Recorder()
    recorder.request = 7
    inner = recorder.wrap(lambda: None, "inner")
    with recorder.span("outer"):
        inner()
    outer, child = recorder.spans
    assert child.parent == 0 and outer.parent is None
    assert outer.request == child.request == 7
    assert outer.start <= child.start <= child.end <= outer.end


def test_layer_metrics_attribute_engine_and_service_time():
    spans = [
        Span("service.batch_submit", 0.001, 0.090, request=1),
        Span("search.knn", 0.006, 0.086, request=1),
        Span("histogram.bound", 0.010, 0.020, parent=1, request=1),
        Span("kernels.refine", 0.030, 0.050, parent=1, request=1, attrs={"cells": 2000.0}),
    ]
    ops = [layers.Op(1, "knn", 0.100, {"database_size": 100, "true_distance_computations": 20,
                                        "pruned_by": {"histogram-2d(delta=1)": 80}},
                     answers=10, served=True)]
    metrics = layers.layer_metrics(spans, ops, overhead_ratio=1.0)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["search.knn_ms"] == pytest.approx(80.0)
    assert value["search.self_ms"] == pytest.approx(50.0)
    assert value["service.self_ms"] == pytest.approx(20.0)
    assert value["service.batch_wait_ms"] == pytest.approx(5.0)
    assert value["histogram.bound_ms"] == pytest.approx(10.0)
    assert value["kernels.cells_per_s"] == pytest.approx(100000.0)
    assert value["search.pruning_power"] == pytest.approx(0.8)
    assert value["search.useful_ratio"] == pytest.approx(0.5)
    assert value["histogram.pruned_share"] == pytest.approx(0.8)
    assert value["share.service"] == pytest.approx(0.2)
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in layers.PER_LAYER]


def test_windowed_tail_ignores_one_stalled_window():
    speed = measure.HostSpeed()
    speed.samples.clear()  # factor 1: no host-speed samples
    ms = [1.0] * 5000
    ms[2000:3000] = [50.0] * 1000
    done = [i * 0.001 for i in range(5000)]
    assert measure.percentile(ms, 99) == pytest.approx(50.0)
    assert measure.tail_ms(ms, done, speed) == pytest.approx(1.0)
    assert measure.tail_ms(ms[:100], done[:100], speed) == pytest.approx(1.0)


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert measure.tail_percentile(20) == 50
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(1000) == 99
    assert measure.tail_percentile(100000) == 99
    assert measure.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import SERVE_CONFIG_FIELDS, build_parser, main
from repro.service import ServiceConfig
from repro.data import load_npz, save_npz
from repro import Trajectory


@pytest.fixture()
def labelled_file(tmp_path):
    rng = np.random.default_rng(0)
    trajectories = []
    for label in ("a", "b"):
        base = rng.normal(scale=5.0, size=(10, 2))
        for _ in range(3):
            trajectories.append(
                Trajectory(base + rng.normal(scale=0.05, size=base.shape), label=label)
            )
    path = tmp_path / "set.npz"
    save_npz(path, trajectories)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])

    def test_unknown_pruner_fails(self, labelled_file):
        with pytest.raises(SystemExit):
            main(["knn", labelled_file, "--pruners", "bogus"])

    def test_serve_defaults_are_the_service_config(self):
        args = build_parser().parse_args(["serve", "x.npz"])
        defaults = ServiceConfig()
        for dest, field in SERVE_CONFIG_FIELDS.items():
            assert getattr(args, dest) == getattr(defaults, field), dest
        # Every serve flag but the corpus source and epsilon sets a field.
        assert set(vars(args)) - set(SERVE_CONFIG_FIELDS) == {
            "command", "handler", "file", "epsilon"
        }


class TestGenerate:
    @pytest.mark.parametrize("kind", ["random-walk", "asl", "cameramouse"])
    def test_generate_writes_npz(self, tmp_path, kind):
        out = tmp_path / "out.npz"
        assert main(["generate", "--kind", kind, "--count", "10",
                     "--out", str(out)]) == 0
        assert load_npz(out)

    def test_generate_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["generate", "--kind", "random-walk", "--count", "5",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_generate_normalized(self, tmp_path, capsys):
        out = tmp_path / "out.npz"
        main(["generate", "--kind", "random-walk", "--count", "5",
              "--normalize", "--out", str(out)])
        loaded = load_npz(out)
        assert np.allclose(loaded[0].points.mean(axis=0), 0.0, atol=1e-9)


class TestQueries:
    def test_info(self, labelled_file, capsys):
        assert main(["info", labelled_file]) == 0
        output = capsys.readouterr().out
        assert "trajectories: 6" in output
        assert "labelled classes: 2" in output

    def test_distance(self, labelled_file, capsys):
        assert main(["distance", labelled_file, "0", "1"]) == 0
        assert "edr(0, 1)" in capsys.readouterr().out

    def test_distance_named_function(self, labelled_file, capsys):
        assert main(["distance", labelled_file, "0", "1",
                     "--function", "dtw"]) == 0
        assert "dtw(0, 1)" in capsys.readouterr().out

    def test_knn_finds_same_class(self, labelled_file, capsys):
        assert main(["knn", labelled_file, "--query-index", "0",
                     "--k", "3", "--epsilon", "0.5"]) == 0
        output = capsys.readouterr().out
        lines = [l for l in output.splitlines() if "EDR" in l]
        assert len(lines) == 3
        assert all("a" in line for line in lines)

    def test_knn_runs_the_sorted_engine(self, tmp_path, capsys):
        from repro import TrajectoryDatabase, knn_sorted_search
        from repro.service.pruning import build_pruners

        path = str(tmp_path / "walks.npz")
        store = str(tmp_path / "store")
        main(["generate", "--count", "60", "--seed", "3", "--out", path])
        main(["build-store", path, "--out", store, "--epsilon", "0.5"])
        database = TrajectoryDatabase(load_npz(path), 0.5)
        chain = build_pruners(database, "histogram,qgram")
        _, stats = knn_sorted_search(
            database, database.trajectories[3], 4, chain[0], chain[1:]
        )
        capsys.readouterr()
        runs = {}
        for source in ([path, "--epsilon", "0.5"], ["--store", store]):
            for spec in ("histogram,qgram", "none"):
                assert main(["knn", *source, "--query-index", "3", "--k", "4",
                             "--pruners", spec]) == 0
                runs[source[0], spec] = capsys.readouterr().out
        answers = {
            tuple(line for line in output.splitlines() if "EDR" in line)
            for output in runs.values()
        }
        assert len(answers) == 1 and len(answers.pop()) == 4
        # The default chain runs the bound-ordered engine (its pruning
        # differs from knn_search's here); no pruner runs the scan.
        for source in (path, "--store"):
            assert f"pruning power = {stats.pruning_power:.3f}" in runs[
                source, "histogram,qgram"
            ]
            assert "pruning power = 0.000" in runs[source, "none"]

    def test_knn_all_pruners(self, labelled_file):
        assert main(["knn", labelled_file, "--k", "2",
                     "--pruners", "histogram,histogram-1d,qgram,nti"]) == 0

    def test_range(self, labelled_file, capsys):
        assert main(["range", labelled_file, "--query-index", "0",
                     "--radius", "1", "--epsilon", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "within" in output

    def test_classify(self, labelled_file, capsys):
        assert main(["classify", labelled_file, "--functions", "edr",
                     "--epsilon", "0.5"]) == 0
        assert "error = 0.000" in capsys.readouterr().out

    def test_cluster(self, labelled_file, capsys):
        assert main(["cluster", labelled_file, "--functions", "edr",
                     "--epsilon", "0.5"]) == 0
        assert "1/1" in capsys.readouterr().out

    def test_classify_unlabelled_fails(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "plain.npz"
        save_npz(path, [Trajectory(rng.normal(size=(5, 2))) for _ in range(4)])
        with pytest.raises(SystemExit):
            main(["classify", str(path)])


class TestPatternCommands:
    def test_join(self, labelled_file, capsys):
        assert main(["join", labelled_file, "--radius", "5",
                     "--epsilon", "0.5"]) == 0
        assert "pairs within EDR" in capsys.readouterr().out

    def test_find_pattern(self, labelled_file, capsys):
        assert main(["find-pattern", labelled_file, "--pattern-index", "0",
                     "--pattern-start", "2", "--pattern-end", "8",
                     "--epsilon", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "window [" in output
        # the source trajectory contains its own pattern exactly
        assert "EDR = 0" in output

    def test_align(self, labelled_file, capsys):
        assert main(["align", labelled_file, "0", "1", "--epsilon", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "free matches" in output
        assert "script:" in output

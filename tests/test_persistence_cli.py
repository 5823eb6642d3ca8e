"""Tests for model/dataset persistence and the command-line interface."""

import numpy as np
import pytest

from repro.generators import generate_rmat
from repro.graph import GraphStore, write_edge_list
from repro.partitioning import ALL_PARTITIONER_NAMES
from repro.ease import EASE, GraphProfiler, OptimizationGoal, ProfileDataset
from repro.ease.persistence import (
    load_dataset,
    load_ease,
    save_dataset,
    save_ease,
)
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def small_profile():
    profiler = GraphProfiler(partitioner_names=("2d", "dbh", "ne"),
                             partition_counts=(2,),
                             processing_partition_count=2,
                             algorithms=("pagerank",))
    graphs = [generate_rmat(96, 500 + 150 * s, seed=s, graph_type="rmat")
              for s in range(4)]
    return profiler.profile(graphs, graphs)


@pytest.fixture(scope="module")
def trained_system(small_profile):
    return EASE(partitioner_names=("2d", "dbh", "ne")).train(small_profile)


class TestPersistence:
    def test_dataset_roundtrip(self, tmp_path, small_profile):
        path = str(tmp_path / "profile.pkl")
        save_dataset(small_profile, path)
        loaded = load_dataset(path)
        assert loaded.summary() == small_profile.summary()

    def test_ease_roundtrip_preserves_predictions(self, tmp_path,
                                                  trained_system,
                                                  small_profile):
        path = str(tmp_path / "ease.pkl")
        save_ease(trained_system, path)
        loaded = load_ease(path)
        record = small_profile.quality[0]
        original = trained_system.quality_predictor.predict_metric_columns(
            [record.properties], ["ne"], [2])
        restored = loaded.quality_predictor.predict_metric_columns(
            [record.properties], ["ne"], [2])
        for key in original:
            assert original[key][0] == pytest.approx(restored[key][0])

    def test_kind_mismatch_is_rejected(self, tmp_path, trained_system):
        path = str(tmp_path / "ease.pkl")
        save_ease(trained_system, path)
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_type_validation(self, tmp_path, small_profile):
        with pytest.raises(TypeError):
            save_ease(small_profile, str(tmp_path / "x.pkl"))
        with pytest.raises(TypeError):
            save_dataset(object(), str(tmp_path / "y.pkl"))

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        import pickle

        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_ease(str(path))

    def test_bundle_of_another_version_fails_loud_and_named(self, tmp_path):
        # What a pre-"a tree is its arrays" bundle looks like to pickle: a
        # global reference to a class repro.ml.tree no longer defines.
        path = tmp_path / "old.pkl"
        path.write_bytes(b"crepro.ml.tree\n_Node\n.")
        with pytest.raises(ValueError) as raised:
            load_ease(str(path))
        message = str(raised.value)
        assert str(path) in message and "_Node" in message
        assert "incompatible version" in message and "re-train" in message
        path.write_bytes(b"crepro.ml.no_such_module\nTree\n.")
        with pytest.raises(ValueError, match="no_such_module"):
            load_ease(str(path))


class TestCLI:
    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_select_goal_choices_are_the_optimisation_goals(self):
        # The parser spells the goals out so that parsing loads no selector.
        parser = build_parser()
        for goal in OptimizationGoal._ALL:
            args = parser.parse_args(["select", "--algorithm", "pagerank",
                                      "--goal", goal])
            assert args.goal == goal
        with pytest.raises(SystemExit):
            parser.parse_args(["select", "--algorithm", "pagerank",
                               "--goal", "fastest"])
        assert parser.parse_args(["select", "--algorithm", "pagerank"]).goal \
            == OptimizationGoal.END_TO_END

    def test_generate_command(self, tmp_path):
        output = str(tmp_path / "graphs")
        exit_code = main(["generate", "--output", output, "--max-graphs", "3",
                          "--scale", "0.000002"])
        assert exit_code == 0
        assert len(GraphStore(output).list()) == 3

    def test_full_cli_workflow(self, tmp_path, capsys):
        store = GraphStore(str(tmp_path / "graphs"))
        for seed in range(3):
            store.save(generate_rmat(96, 600 + 100 * seed, seed=seed))

        profile_path = str(tmp_path / "profile.pkl")
        assert main(["profile", "--graph-store", store.root,
                     "--output", profile_path,
                     "--partitioners", "2d", "dbh", "ne",
                     "--algorithms", "pagerank",
                     "--partition-counts", "2",
                     "--processing-partitions", "2"]) == 0

        model_path = str(tmp_path / "ease.pkl")
        assert main(["train", "--profile", profile_path,
                     "--output", model_path]) == 0

        query_graph = generate_rmat(128, 900, seed=9)
        query_path = str(tmp_path / "query.txt")
        write_edge_list(query_graph, query_path)
        assert main(["select", "--model", model_path, "--graph", query_path,
                     "--algorithm", "pagerank", "--partitions", "2",
                     "--goal", "processing"]) == 0
        output = capsys.readouterr().out
        assert "selected partitioner:" in output
        assert "end-to-end (s)" in output

        # A stored graph's directory is a --graph too, opened mapped.
        stored = store.path_for(store.save(query_graph))
        assert main(["select", "--model", model_path, "--graph", stored,
                     "--algorithm", "pagerank", "--partitions", "2",
                     "--goal", "processing"]) == 0
        from_store = capsys.readouterr().out
        # Same content, same answer: only the graph's label line differs.
        assert (from_store.split("algorithm:", 1)[1]
                == output.split("algorithm:", 1)[1])

    def test_profile_rejects_empty_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["profile", "--graph-store", str(empty),
                  "--output", str(tmp_path / "p.pkl")])

    def test_documented_session_selects_a_profiled_partitioner(self, tmp_path,
                                                               capsys):
        # The session of the cli.py docstring and CI: a trained system
        # ranks only the partitioners its profile holds.
        graphs = str(tmp_path / "graphs")
        assert main(["generate", "--output", graphs, "--max-graphs", "4",
                     "--scale", "0.000002"]) == 0
        profile_path = str(tmp_path / "profile.pkl")
        profiled = ["2d", "dbh", "hdrf", "ne"]
        assert main(["profile", "--graph-store", graphs,
                     "--output", profile_path,
                     "--partitioners", *profiled,
                     "--algorithms", "pagerank", "connected_components",
                     "--partition-counts", "2", "4",
                     "--processing-partitions", "2"]) == 0
        model_path = str(tmp_path / "ease.pkl")
        assert main(["train", "--profile", profile_path,
                     "--output", model_path]) == 0
        assert load_ease(model_path).partitioner_names == profiled
        entry = GraphStore(graphs).list()[0].path
        capsys.readouterr()
        assert main(["select", "--model", model_path, "--graph", entry,
                     "--algorithm", "pagerank", "--partitions", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        selected = next(line for line in lines
                        if line.startswith("selected partitioner:"))
        assert selected.split(":")[1].strip() in profiled
        header = next(index for index, line in enumerate(lines)
                      if line.startswith("partitioner"))
        assert sorted(line.split()[0] for line in lines[header + 1:]) \
            == sorted(profiled)


class TestTrainedCandidates:
    def test_unprofiled_partitioner_is_refused_by_name(self, small_profile):
        with pytest.raises(ValueError, match="hdrf"):
            EASE(partitioner_names=("2d", "hdrf")).train(small_profile)

    def test_default_candidates_are_the_profiled_ones(self, small_profile):
        # ALL_PARTITIONER_NAMES order, not the profiler's ("2d", "dbh", "ne").
        system = EASE().train(small_profile)
        assert system.partitioner_names == [
            name for name in ALL_PARTITIONER_NAMES
            if name in ("2d", "dbh", "ne")]
        assert system.selector.partitioner_names == system.partitioner_names

    def test_full_profile_bundle_is_unchanged(self, tmp_path):
        profiler = GraphProfiler(partition_counts=(2,),
                                 processing_partition_count=2,
                                 algorithms=("pagerank",))
        graphs = [generate_rmat(64, 300 + 50 * s, seed=s, graph_type="rmat")
                  for s in range(3)]
        dataset = profiler.profile(graphs, graphs)
        implicit, explicit = (str(tmp_path / "implicit.pkl"),
                              str(tmp_path / "explicit.pkl"))
        save_ease(EASE().train(dataset), implicit)
        save_ease(EASE(partitioner_names=ALL_PARTITIONER_NAMES).train(
            dataset), explicit)
        with open(implicit, "rb") as left, open(explicit, "rb") as right:
            assert left.read() == right.read()

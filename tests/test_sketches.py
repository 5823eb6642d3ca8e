"""Tests for the bounded-work property estimators (:mod:`repro.graph.sketches`).

Approximate extraction must be deterministic per ``(graph, budget, seed)``,
must never exceed its wedge budget, must report calibrated Hoeffding
intervals, and must stay strictly separated from exact extraction in every
cache layer (artifact keys, runtime job/task ids, the properties CLI).
"""

import json
import math
import os

import numpy as np
import pytest

from repro.cli import main
from repro.generators import generate_rmat
from repro.graph import (
    Graph,
    GraphStore,
    PropertyEstimate,
    approximate_properties,
    approximate_triangle_stats,
    compute_properties,
    graph_fingerprint,
    hoeffding_half_width,
    properties_artifact_key,
)
from repro.graph.property_engine import _oriented_pair_count
from repro.runtime import ArtifactStore
from repro.runtime.tasks import PropertiesTask


def _sampling_graph(seed=0):
    """A graph whose exact wedge enumeration exceeds the test budgets."""
    return generate_rmat(256, 2000, seed=seed)


#: Budget small enough that _sampling_graph always overflows it.
SMALL_BUDGET = 500


class TestHoeffdingHalfWidth:
    def test_known_value(self):
        # m = 1000, 95%: sqrt(ln(40) / 2000)
        expected = math.sqrt(math.log(2.0 / 0.05) / (2.0 * 1000))
        assert hoeffding_half_width(1000, 0.95) == pytest.approx(expected)

    def test_shrinks_with_samples_and_grows_with_confidence(self):
        assert hoeffding_half_width(400, 0.95) < hoeffding_half_width(100, 0.95)
        assert hoeffding_half_width(100, 0.99) > hoeffding_half_width(100, 0.95)

    def test_zero_samples_is_infinite(self):
        assert hoeffding_half_width(0, 0.95) == float("inf")

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_confidence_raises(self, confidence):
        with pytest.raises(ValueError):
            hoeffding_half_width(10, confidence)


class TestPropertyEstimate:
    def test_exact_is_zero_width(self):
        estimate = PropertyEstimate.exact(3.5)
        assert estimate.lower == estimate.value == estimate.upper == 3.5
        assert estimate.samples == 0
        assert estimate.half_width == 0.0

    def test_from_samples_interval_and_scale(self):
        estimate = PropertyEstimate.from_samples(2.0, 100, 0.95, scale=10.0)
        half = hoeffding_half_width(100, 0.95) * 10.0
        assert estimate.lower == pytest.approx(2.0 - half)
        assert estimate.upper == pytest.approx(2.0 + half)
        assert estimate.half_width == pytest.approx(half)

    def test_lower_bound_clipped_at_zero(self):
        estimate = PropertyEstimate.from_samples(0.01, 10, 0.95)
        assert estimate.lower == 0.0

    def test_as_dict_round_trips_fields(self):
        estimate = PropertyEstimate.from_samples(0.4, 50, 0.9)
        payload = estimate.as_dict()
        assert set(payload) == {"value", "lower", "upper", "samples",
                                "confidence"}
        assert payload["samples"] == 50


class TestApproximateTriangleStats:
    @pytest.mark.parametrize("budget", [0, -5])
    def test_invalid_budget_raises(self, budget):
        graph = generate_rmat(32, 60, seed=0)
        with pytest.raises(ValueError):
            approximate_triangle_stats(graph, wedge_budget=budget)

    def test_empty_graph_is_exact_zero(self):
        graph = Graph(np.array([], dtype=np.int64),
                      np.array([], dtype=np.int64), num_vertices=0)
        stats = approximate_triangle_stats(graph, wedge_budget=10)
        assert stats.exact and not stats.budget_exhausted
        assert stats.wedges_used == 0
        assert stats.mean_triangles.value == 0.0
        assert stats.global_clustering.value == 0.0

    def test_wedgeless_graph_is_exact_zero(self):
        graph = Graph(np.array([0]), np.array([1]), num_vertices=4)
        stats = approximate_triangle_stats(graph, wedge_budget=10)
        assert stats.exact
        assert stats.mean_triangles.value == 0.0

    def test_exact_within_budget_matches_exact_extraction(self):
        graph = generate_rmat(64, 300, seed=1)
        budget = _oriented_pair_count(graph) + 1
        stats = approximate_triangle_stats(graph, wedge_budget=budget)
        assert stats.exact and not stats.budget_exhausted
        assert stats.wedges_used <= budget
        assert stats.mean_triangles.half_width == 0.0
        exact = compute_properties(graph, exact_triangles=True)
        assert stats.mean_triangles.value == pytest.approx(
            exact.mean_triangles)
        assert stats.mean_local_clustering.value == pytest.approx(
            exact.mean_local_clustering)

    def test_sampling_respects_budget(self):
        graph = _sampling_graph()
        assert _oriented_pair_count(graph) > SMALL_BUDGET  # sampling engages
        stats = approximate_triangle_stats(graph, wedge_budget=SMALL_BUDGET)
        assert not stats.exact and stats.budget_exhausted
        assert 0 < stats.wedges_used <= SMALL_BUDGET
        for estimate in (stats.mean_triangles, stats.mean_local_clustering,
                         stats.global_clustering):
            assert estimate.lower <= estimate.value <= estimate.upper
            assert estimate.samples > 0
            assert estimate.half_width > 0.0

    def test_deterministic_per_seed(self):
        graph = _sampling_graph()
        first = approximate_triangle_stats(graph, wedge_budget=SMALL_BUDGET,
                                           seed=7)
        second = approximate_triangle_stats(graph, wedge_budget=SMALL_BUDGET,
                                            seed=7)
        assert first.as_dict() == second.as_dict()
        other = approximate_triangle_stats(graph, wedge_budget=SMALL_BUDGET,
                                           seed=8)
        assert other.seed != first.seed

    def test_interval_calibration(self):
        """Hoeffding intervals must cover the truth (they are conservative)."""
        graph = _sampling_graph(seed=3)
        truth = compute_properties(graph, exact_triangles=True)
        budget = 2000
        assert _oriented_pair_count(graph) > budget
        covered_tri = covered_global = 0
        seeds = range(20)
        for seed in seeds:
            stats = approximate_triangle_stats(graph, wedge_budget=budget,
                                               seed=seed)
            if (stats.mean_triangles.lower <= truth.mean_triangles
                    <= stats.mean_triangles.upper):
                covered_tri += 1
            exact_global = (stats.global_clustering.lower
                            <= _true_global_clustering(graph)
                            <= stats.global_clustering.upper)
            covered_global += bool(exact_global)
        # 95% nominal coverage, Hoeffding slack on top: 18/20 is a very
        # loose floor (typically 20/20).
        assert covered_tri >= 18
        assert covered_global >= 18


def _true_global_clustering(graph):
    """Closed-wedge fraction from the exact engine (3T / W)."""
    from repro.graph.property_engine import triangle_counts_engine

    csr = graph.undirected_simple_csr()
    degrees = np.diff(csr.indptr)
    total_wedges = int(((degrees * (degrees - 1)) // 2).sum())
    counts = triangle_counts_engine(graph)
    return float(counts.sum()) / total_wedges if total_wedges else 0.0


class TestApproximateProperties:
    def test_non_triangle_features_are_exact(self):
        graph = _sampling_graph(seed=5)
        properties, stats = approximate_properties(graph,
                                                   wedge_budget=SMALL_BUDGET)
        exact = compute_properties(graph, exact_triangles=True)
        assert properties.num_edges == exact.num_edges
        assert properties.num_vertices == exact.num_vertices
        assert properties.mean_degree == pytest.approx(exact.mean_degree)
        assert properties.density == pytest.approx(exact.density)
        assert properties.in_degree_skewness == pytest.approx(
            exact.in_degree_skewness)
        assert properties.out_degree_skewness == pytest.approx(
            exact.out_degree_skewness)
        assert properties.mean_triangles == stats.mean_triangles.value
        assert (properties.mean_local_clustering
                == stats.mean_local_clustering.value)

    def test_empty_graph(self):
        graph = Graph(np.array([], dtype=np.int64),
                      np.array([], dtype=np.int64), num_vertices=0)
        properties, stats = approximate_properties(graph, wedge_budget=10)
        assert properties.num_vertices == 0 and stats.exact


class TestModeCacheSeparation:
    """Exact and approximate results must never share a cache entry."""

    def test_artifact_key_modes(self):
        exact_key = properties_artifact_key("fp", False, 0)
        assert exact_key == ("properties", "fp", False, 0)  # legacy layout
        approx_key = properties_artifact_key("fp", False, 0,
                                             mode="approximate",
                                             wedge_budget=1000)
        assert approx_key != exact_key
        assert approx_key[-2:] == ("approximate", 1000)
        other_budget = properties_artifact_key("fp", False, 0,
                                               mode="approximate",
                                               wedge_budget=2000)
        assert other_budget != approx_key
        with pytest.raises(ValueError):
            properties_artifact_key("fp", False, 0, mode="sketchy")

    def test_compute_properties_rejects_unknown_mode(self):
        graph = generate_rmat(32, 60, seed=0)
        with pytest.raises(ValueError):
            compute_properties(graph, mode="sketchy")

    def test_store_memoizes_per_mode_and_budget(self):
        graph = _sampling_graph(seed=2)
        store = ArtifactStore()
        exact = compute_properties(graph, exact_triangles=False, store=store)
        approx_first = compute_properties(graph, exact_triangles=False,
                                          store=store, mode="approximate",
                                          wedge_budget=SMALL_BUDGET)
        assert len(store._memory) == 2  # distinct keys, no collision
        hits_before = store.hits
        approx_again = compute_properties(graph, exact_triangles=False,
                                          store=store, mode="approximate",
                                          wedge_budget=SMALL_BUDGET)
        assert store.hits == hits_before + 1
        assert approx_again is approx_first  # restored, not recomputed
        exact_again = compute_properties(graph, exact_triangles=False,
                                         store=store)
        assert exact_again is exact
        # A different budget is a different artifact.
        compute_properties(graph, exact_triangles=False, store=store,
                           mode="approximate", wedge_budget=SMALL_BUDGET * 2)
        assert len(store._memory) == 3

    def test_properties_job_and_task_keys(self):
        # The task id is the artifact key: exact keeps the legacy
        # four-element tuple, approximate carries mode and budget.
        legacy_task = PropertiesTask("fp", True, 0)
        assert legacy_task.task_id == ("properties", "fp", True, 0)
        assert legacy_task.task_id == properties_artifact_key("fp", True, 0)
        approx_task = PropertiesTask("fp", True, 0, mode="approximate",
                                     wedge_budget=1000)
        assert approx_task.task_id == ("properties", "fp", True, 0,
                                       "approximate", 1000)
        assert approx_task.task_id == properties_artifact_key(
            "fp", True, 0, mode="approximate", wedge_budget=1000)

    def test_properties_task_executes_approximate(self):
        graph = _sampling_graph(seed=4)
        store = ArtifactStore()
        task = PropertiesTask(graph_fingerprint(graph), True, 0,
                              mode="approximate",
                              wedge_budget=SMALL_BUDGET)
        assert task.restore(store) is None
        result = task.execute(graph, store, {})
        reference, _ = approximate_properties(graph,
                                              wedge_budget=SMALL_BUDGET)
        assert result.mean_triangles == pytest.approx(
            reference.mean_triangles)
        assert task.restore(store) is result


class TestPropertiesCLI:
    def test_approximate_mode_flag(self, tmp_path, capsys):
        store = GraphStore(str(tmp_path / "graphs"))
        for seed in range(2):
            store.save(generate_rmat(96, 500 + 100 * seed, seed=seed))
        output = str(tmp_path / "props")
        exit_code = main(["properties", "--graph-store", store.root,
                          "--output", output, "--mode", "approximate",
                          "--wedge-budget", "512"])
        assert exit_code == 0
        files = sorted(name for name in os.listdir(output)
                       if name.endswith(".properties.json"))
        assert len(files) == 2
        with open(os.path.join(output, files[0]), encoding="utf-8") as handle:
            payload = json.load(handle)
        assert "mean_triangles" in payload and "mean_degree" in payload

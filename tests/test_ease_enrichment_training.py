"""Tests for training-data enrichment and the model-family comparison."""

import numpy as np
import pytest

from repro.generators import generate_rmat, generate_realworld_graph
from repro.ml import RandomForestRegressor
from repro.ease import (
    EnrichmentStudy,
    GraphProfiler,
    PartitioningQualityPredictor,
)
from repro.ease.training import (
    MODEL_FAMILIES,
    compare_model_families,
    default_param_grids,
)


def _fast_predictor():
    return PartitioningQualityPredictor(
        model_factory=lambda target: RandomForestRegressor(
            n_estimators=8, max_depth=8, random_state=0))


@pytest.fixture(scope="module")
def profiler():
    return GraphProfiler(partitioner_names=("2d", "ne", "hdrf"),
                         partition_counts=(4,))


@pytest.fixture(scope="module")
def base_records(profiler):
    graphs = [generate_rmat(128, 700 + 200 * s, seed=s, graph_type="rmat")
              for s in range(5)]
    return profiler.profile_quality(graphs).quality


@pytest.fixture(scope="module")
def wiki_pool(profiler):
    graphs = [generate_realworld_graph("wiki", 150 + 30 * s, 1200 + 100 * s,
                                       seed=100 + s)
              for s in range(6)]
    return profiler.profile_quality(graphs).quality


@pytest.fixture(scope="module")
def test_records(profiler):
    graphs = [generate_realworld_graph("wiki", 220, 1700, seed=500),
              generate_realworld_graph("soc", 220, 1700, seed=501)]
    return profiler.profile_quality(graphs).quality


class TestEnrichmentStudy:
    def test_levels_and_repetitions(self, base_records, wiki_pool, test_records):
        study = EnrichmentStudy(base_records, wiki_pool, test_records,
                                predictor_factory=_fast_predictor, seed=1)
        results = study.run(enrichment_sizes=(0, 3, 6), repetitions=2)
        assert [r.num_enrichment_graphs for r in results] == [0, 3, 6]
        for result in results:
            assert set(result.mape_per_type) == {"wiki", "soc"}
            assert result.overall_mape >= 0

    def test_enrichment_size_capped_at_pool(self, base_records, wiki_pool,
                                            test_records):
        study = EnrichmentStudy(base_records, wiki_pool, test_records,
                                predictor_factory=_fast_predictor)
        results = study.run(enrichment_sizes=(999,), repetitions=1)
        assert results[0].num_enrichment_graphs == len(
            {r.graph_name for r in wiki_pool})

    def test_full_enrichment_improves_wiki_prediction(self, base_records,
                                                      wiki_pool, test_records):
        study = EnrichmentStudy(base_records, wiki_pool, test_records,
                                predictor_factory=_fast_predictor, seed=2)
        results = study.run(enrichment_sizes=(0, 6), repetitions=1)
        without = results[0].mape_of("wiki")
        with_enrichment = results[1].mape_of("wiki")
        # Enriching with same-type graphs must not make wiki predictions worse.
        assert with_enrichment <= without * 1.1

    def test_mape_of_unknown_type_raises(self, base_records, wiki_pool,
                                         test_records):
        study = EnrichmentStudy(base_records, wiki_pool, test_records,
                                predictor_factory=_fast_predictor)
        result = study.run(enrichment_sizes=(0,), repetitions=1)[0]
        with pytest.raises(KeyError):
            result.mape_of("citation")


class TestModelFamilyComparison:
    def test_six_families_defined(self):
        assert len(MODEL_FAMILIES) == 6
        assert set(default_param_grids()) == set(MODEL_FAMILIES)

    def test_comparison_runs_subset(self):
        rng = np.random.default_rng(0)
        features = rng.random((80, 4))
        targets = 2 * features[:, 0] + features[:, 1]
        comparison = compare_model_families(
            features, targets,
            families=("polynomial_regression", "knn", "random_forest"),
            n_splits=3)
        assert len(comparison.results) == 3
        table = comparison.as_table()
        assert table[0][1] <= table[-1][1]
        assert comparison.best().family == table[0][0]

    def test_polynomial_wins_on_polynomial_target(self):
        rng = np.random.default_rng(1)
        features = rng.random((120, 3))
        targets = features[:, 0] ** 2 + 2 * features[:, 1] * features[:, 2]
        comparison = compare_model_families(
            features, targets, families=("polynomial_regression", "knn"),
            n_splits=3)
        assert comparison.best().family == "polynomial_regression"

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            compare_model_families(np.ones((20, 2)), np.ones(20),
                                   families=("deep_gnn",), n_splits=2)

    def test_tuned_comparison_records_params(self):
        rng = np.random.default_rng(2)
        features = rng.random((60, 2))
        targets = features[:, 0]
        comparison = compare_model_families(
            features, targets, families=("knn",), n_splits=3, tune=True)
        assert comparison.results[0].best_params

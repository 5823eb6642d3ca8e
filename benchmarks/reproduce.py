#!/usr/bin/env python3
"""Reproduce the paper's evaluation (Tables V-VIII, Figures 1-9 and the
Section IV design ablations) at laptop scale and write docs/REPRODUCTION.md.

    PYTHONPATH=src python benchmarks/reproduce.py

Five corpora are generated and profiled once, in memory.  Each experiment
returns its tables as ``(name, title, headers, rows)`` and its checks (the
paper's shape claims, each a comparison with a fixed bound) as
``(check_name, passed, detail)``.  Every failed check is printed and makes
the exit status 1.  The committed file is the golden: CI re-runs this script
and fails on any ``git diff`` of it.
"""

from __future__ import annotations

import operator
import os
import sys

import numpy as np

from repro.ease import (
    EASE, EnrichmentStudy, GraphProfiler, OptimizationGoal,
    PartitionerSelector, PartitioningCostModel, PartitioningQualityPredictor,
    ProcessingTimeFeatureBuilder, ProfileDataset, SelectionStrategyEvaluator,
    graph_feature_vector, per_type_mape_matrix)
from repro.ease.training import compare_model_families
from repro.generators import (
    TABLE2_PARAMETER_COMBINATIONS, generate_barabasi_albert,
    generate_large_test_graphs, generate_realworld_graph, generate_rmat,
    generate_test_catalogue, generate_training_corpus, rmat_large_grid,
    rmat_small_grid)
from repro.graph import compute_properties
from repro.ml import (GradientBoostingRegressor, OneHotEncoder,
                      RandomForestRegressor, StandardScaler, mape)
from repro.partitioning import (
    ALL_PARTITIONER_NAMES, QUALITY_METRIC_NAMES, compute_quality_metrics,
    create_partitioner, replication_factor)
from repro.processing import (LabelPropagation, PageRank, ProcessingEngine,
                              create_algorithm)
from repro.serving.registry import dataset_fingerprint

OUTPUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "docs", "REPRODUCTION.md")

#: Table I grids scaled so the largest graphs have a few thousand edges, and
#: subsampled so the shared profiling pass stays in the minutes range.
SMALL_GRID_SCALE, SMALL_GRID_STEP = 1.0 / 50_000, 8
LARGE_GRID_SCALE, LARGE_GRID_STEP = 1.0 / 60_000, 6
#: Per-type composition of the test catalogue (the paper's proportions,
#: reduced).
TEST_CATALOGUE_COUNTS = dict(
    affiliation=2, citation=1, collaboration=2, interaction=2, internet=2,
    product_network=1, soc=4, web=3, wiki=6)
OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
             ">=": operator.ge, "==": operator.eq}


def g6(value) -> str:
    """A number at 6 significant digits, the precision of every float here."""
    return f"{value:.6g}"


def check(name, left, op, right):
    """The named comparison ``left op right`` as ``(name, passed, detail)``."""
    return name, bool(OPERATORS[op](left, right)), f"{g6(left)} {op} {g6(right)}"


class Inputs:
    """The corpora, their profiles and the trained system, built once."""

    def __init__(self) -> None:
        profiler = GraphProfiler(partition_counts=(4, 8),
                                 processing_partition_count=4)
        large = rmat_large_grid(scale=LARGE_GRID_SCALE)[::LARGE_GRID_STEP]
        small = rmat_small_grid(scale=SMALL_GRID_SCALE)[::SMALL_GRID_STEP]
        self.runtime_training = profiler.profile_processing(
            list(generate_training_corpus(large, seed=2)))
        #: Processing records of the Table-IV-like evaluation graphs.
        self.large_test = profiler.profile_processing(
            generate_large_test_graphs(scale=0.18, seed=11))
        self.small_training_graphs = list(
            generate_training_corpus(small, seed=1))
        self.quality_training = profiler.profile_quality(
            self.small_training_graphs)
        self.test_catalogue = generate_test_catalogue(
            graphs_per_type=TEST_CATALOGUE_COUNTS, base_vertices=600,
            base_edges=3600, seed=7)
        self.test_quality = profiler.profile_quality(self.test_catalogue)
        #: The Section V-D enrichment pool.
        self.wiki_enrichment = profiler.profile_quality(
            [generate_realworld_graph("wiki", 400 + 35 * index,
                                      2600 + 260 * index, seed=1000 + index)
             for index in range(12)])
        # As in the paper: quality from R-MAT-SMALL, run-times from R-MAT-LARGE.
        self.ease = EASE(partitioner_names=ALL_PARTITIONER_NAMES).train(
            ProfileDataset(
                quality=self.quality_training.quality,
                partitioning_time=self.runtime_training.partitioning_time,
                processing=self.runtime_training.processing))

        self.datasets = {"R-MAT-SMALL quality": self.quality_training,
                         "R-MAT-LARGE processing": self.runtime_training,
                         "test catalogue quality": self.test_quality,
                         "wiki enrichment quality": self.wiki_enrichment,
                         "Table-IV-like processing": self.large_test}


def _processing_matrices(records, use_partitioner_identity):
    """Feature matrix for the processing model, with either quality metrics
    (the paper's choice) or the partitioner identity (Alternative 2)."""
    properties = [r.properties for r in records]
    if use_partitioner_identity:
        encoded = OneHotEncoder(handle_unknown="ignore").fit_transform(
            [r.partitioner for r in records])
        base = np.vstack([graph_feature_vector(p, "simple")
                          for p in properties])
        k_column = np.array([[r.num_partitions] for r in records], dtype=float)
        features = np.hstack([base, k_column, encoded])
    else:
        features = ProcessingTimeFeatureBuilder().build(
            properties, [r.num_partitions for r in records],
            [r.metrics for r in records])
    return features, np.array([r.target_seconds for r in records])


def ablation_alternative2(inputs):
    rows, training = [], inputs.runtime_training.processing
    for algorithm in sorted({r.algorithm for r in training}):
        train = [r for r in training if r.algorithm == algorithm]
        test = [r for r in inputs.large_test.processing
                if r.algorithm == algorithm]
        if not test:
            continue
        scores = []
        for use_identity in (False, True):
            train_x, train_y = _processing_matrices(train, use_identity)
            test_x, test_y = _processing_matrices(test, use_identity)
            scaler = StandardScaler().fit(train_x)
            model = GradientBoostingRegressor(n_estimators=120, max_depth=3,
                                              random_state=0)
            model.fit(scaler.transform(train_x), np.log1p(train_y))
            predictions = np.expm1(model.predict(scaler.transform(test_x)))
            scores.append(mape(test_y, np.clip(predictions, 0, None)))
        rows.append((algorithm, *scores))
    # Both variants must work; the quality-metric features (the paper's
    # choice) should be competitive on average.
    quality_mape = np.mean([row[1] for row in rows])
    identity_mape = np.mean([row[2] for row in rows])
    return [("ablation_alternative2_processing_features",
             "Section IV-E Alternative 2: processing-time prediction with "
             "quality-metric features vs partitioner-identity features",
             ("algorithm", "MAPE (quality-metric features)",
              "MAPE (partitioner-identity features)"), rows)], [
        check("ablation_alt2_quality_features_mape_below_2",
              quality_mape, "<", 2.0),
        check("ablation_alt2_quality_features_within_2x_identity",
              quality_mape, "<=", identity_mape * 2.0)]


def ablation_feature_sets(inputs):
    rows = []
    for feature_set in ("simple", "basic", "advanced"):
        scores = PartitioningQualityPredictor(
            feature_set="basic", replication_feature_set=feature_set).fit(
            inputs.quality_training.quality, targets=["replication_factor"]
        ).evaluate(inputs.test_quality.quality)
        rows.append((feature_set, scores["replication_factor"]["mape"],
                     scores["replication_factor"]["rmse"]))
    by_set = {row[0]: row[1] for row in rows}
    # Richer graph features must not be substantially worse than size-only
    # features (the paper finds basic/advanced roughly comparable).
    return [("ablation_feature_sets_replication_factor",
             "Feature-set ablation for the replication-factor prediction",
             ("feature set", "MAPE", "RMSE"), rows)], [
        check("ablation_basic_features_within_1.3x_simple",
              by_set["basic"], "<=", by_set["simple"] * 1.3)]


def model_family_comparison(inputs):
    records = inputs.quality_training.quality
    builder = PartitioningQualityPredictor()._builder_for(
        "replication_factor").fit(sorted({r.partitioner for r in records}))
    features = StandardScaler().fit_transform(builder.build(
        [r.properties for r in records], [r.partitioner for r in records],
        [r.num_partitions for r in records]))
    targets = np.array([r.metrics["replication_factor"] for r in records])
    rows = compare_model_families(
        features, targets,
        families=("polynomial_regression", "knn", "random_forest", "xgboost"),
        n_splits=4).as_table()
    scores = dict(rows)
    # Tree ensembles should beat the KNN baseline on this task.
    return [("model_family_comparison_replication_factor",
             "Section IV-C: model families cross-validated on the "
             "replication-factor task (synthetic training data)",
             ("model family", "cross-validation MAPE"), rows)], [
        check("model_family_tree_ensemble_at_most_knn",
              min(scores["random_forest"], scores["xgboost"]), "<=",
              scores["knn"])]


def fig1_pagerank_motivation(inputs):
    engine, cost_model = ProcessingEngine(), PartitioningCostModel()
    rows, checks = [], []
    for label, short, kind, edges, seed in (
            ("friendster-like (FR)", "FR", "soc", 16000, 1),
            ("sk-2005-like (SK)", "SK", "web", 18000, 2)):
        graph = generate_realworld_graph(kind, 2000, edges, seed=seed)
        # (replication factor, partitioning seconds, PageRank seconds)
        results = {}
        for name in ("crvc", "2d", "2ps", "ne"):
            partition = create_partitioner(name)(graph, 8)
            results[name] = (
                compute_quality_metrics(partition).replication_factor,
                cost_model.estimate_seconds(graph, name, 8),
                engine.run(partition,
                           PageRank(num_iterations=20)).total_seconds)
            rows.append((label, name, *results[name]))
        # NE has the lowest RF and the lowest processing time but the
        # highest partitioning time; CRVC the opposite.
        ne, crvc, two_d = results["ne"], results["crvc"], results["2d"]
        checks += [
            check(f"fig1_ne_rf_below_crvc_{short}", ne[0], "<", crvc[0]),
            check(f"fig1_ne_pagerank_faster_than_crvc_{short}",
                  ne[2], "<", crvc[2]),
            check(f"fig1_ne_partitioning_slower_than_2d_{short}",
                  ne[1], ">", two_d[1]),
            check(f"fig1_2ps_rf_at_most_2d_{short}",
                  results["2ps"][0], "<=", two_d[0])]
    return [("fig1_pagerank_motivation",
             "Figure 1: PageRank on Friendster/sk-2005 stand-ins "
             "(k=8, 20 iterations)",
             ("graph", "partitioner", "replication factor",
              "partitioning time (s)", "PageRank time (s)"), rows)], checks


def fig2_label_propagation_motivation(inputs):
    graph = generate_realworld_graph("soc", 2000, 16000, seed=3)
    engine, rows = ProcessingEngine(), []
    for name in ("dbh", "2d", "ne"):
        partition = create_partitioner(name)(graph, 4)
        metrics = compute_quality_metrics(partition)
        processing = engine.run(partition, LabelPropagation(num_iterations=10))
        rows.append((name, processing.total_seconds, metrics.vertex_balance,
                     metrics.replication_factor))
    ne, dbh, two_d = ({row[0]: row for row in rows}[name]
                      for name in ("ne", "dbh", "2d"))
    # NE has the lowest RF and the worst vertex balance, so the computation-
    # bound workload does not reward it: the well-balanced DBH is competitive.
    return [("fig2_label_propagation_motivation",
             "Figure 2: Label Propagation on a Socfb-A-anon stand-in "
             "(k=4, 10 iterations)",
             ("partitioner", "LP time (s)", "vertex balance",
              "replication factor"), rows)], [
        check("fig2_ne_rf_below_dbh", ne[3], "<", dbh[3]),
        check("fig2_ne_rf_below_2d", ne[3], "<", two_d[3]),
        check("fig2_dbh_vertex_balance_at_most_ne", dbh[2], "<=", ne[2]),
        check("fig2_dbh_lp_within_1.05x_ne", dbh[1], "<=", ne[1] * 1.05)]


def fig6a_e_property_coverage(inputs):
    def sampled(graphs):
        return [compute_properties(graph, exact_triangles=False,
                                   sample_size=400) for graph in graphs]

    corpora = {
        "R-MAT": sampled(inputs.small_training_graphs[::3]),
        "BA": sampled([generate_barabasi_albert(1000, m, seed=m)
                       for m in (1, 2, 4, 8, 16, 24)]),
        "RW": sampled(inputs.test_catalogue),
    }
    rows, high = [], {}
    for property_name in ("mean_degree", "mean_local_clustering",
                          "mean_triangles", "in_degree_skewness",
                          "out_degree_skewness"):
        for corpus_name, props in corpora.items():
            values = np.array([getattr(p, property_name) for p in props])
            rows.append((property_name, corpus_name, values.min(),
                         float(np.median(values)), values.max()))
            high[property_name, corpus_name] = values.max()
    clustering = high["mean_local_clustering", "R-MAT"]
    # R-MAT covers a wide clustering range; BA graphs have essentially no
    # clustering, which is the paper's argument against the BA generator.
    return [("fig6a_e_property_coverage",
             "Figure 6(a)-(e): graph-property coverage of R-MAT vs "
             "Barabasi-Albert vs real-world-like graphs",
             ("property", "corpus", "min", "median", "max"), rows)], [
        check("fig6_rmat_clustering_max_above_0.1", clustering, ">", 0.1),
        check("fig6_ba_clustering_max_below_rmat",
              high["mean_local_clustering", "BA"], "<", clustering),
        check("fig6_rmat_degree_max_at_least_0.3x_rw",
              high["mean_degree", "R-MAT"], ">=",
              high["mean_degree", "RW"] * 0.3)]


def fig6f_clustering_vs_rf(inputs):
    series = []
    for num_vertices in (512, 1024, 2048, 4096):
        for index, parameters in enumerate(TABLE2_PARAMETER_COMBINATIONS):
            graph = generate_rmat(num_vertices, 6000, parameters, seed=index)
            properties = compute_properties(graph, exact_triangles=False,
                                            sample_size=400)
            partition = create_partitioner("hdrf")(graph, 8)
            series.append((num_vertices, f"C{index + 1}",
                           properties.mean_local_clustering,
                           replication_factor(partition)))
    # Each line of Figure 6(f) is one vertex count (a fixed density), within
    # which higher clustering goes with a lower replication factor.
    correlations = [
        np.corrcoef([row[2] for row in series if row[0] == num_vertices],
                    [row[3] for row in series if row[0] == num_vertices])[0, 1]
        for num_vertices in sorted({row[0] for row in series})]
    return [("fig6f_clustering_vs_rf",
             "Figure 6(f): clustering coefficient vs HDRF replication factor "
             "(|E| fixed, varying |V| and Table II parameters)",
             ("|V|", "combination", "clustering coefficient",
              "HDRF replication factor"), series)], [
        check("fig6f_mean_correlation_below_-0.5",
              np.mean(correlations), "<", -0.5),
        # np.max propagates a NaN, so this fails where any value is not < 0.
        check("fig6f_every_correlation_negative",
              np.max(correlations), "<", 0)]


def _heatmap_rows(matrix):
    partitioners = [name for name in ALL_PARTITIONER_NAMES
                    if any(key[1] == name for key in matrix)]
    rows = [(graph_type, *(matrix.get((graph_type, p), float("nan"))
                           for p in partitioners))
            for graph_type in sorted({key[0] for key in matrix})]
    return ("type", *partitioners), rows


def fig7_heatmaps(inputs):
    rf_matrix, vb_matrix = (
        per_type_mape_matrix(inputs.ease.quality_predictor,
                             inputs.test_quality.quality, metric=metric)
        for metric in ("replication_factor", "vertex_balance"))

    def average_over_types(partitioner):
        return float(np.mean([v for (_, p), v in vb_matrix.items()
                              if p == partitioner]))

    # The vertex balance of the hashing partitioners is far easier to predict
    # than that of the in-memory / hybrid partitioners (Fig. 7(c)).
    stateless = np.mean([average_over_types(p) for p in ("crvc", "dbh", "1dd")])
    in_memory = np.mean([average_over_types(p) for p in ("ne", "hep100")])
    return [
        ("fig7a_replication_factor_heatmap",
         "Figure 7(a): replication-factor MAPE per (graph type, partitioner)",
         *_heatmap_rows(rf_matrix)),
        ("fig7c_vertex_balance_heatmap",
         "Figure 7(c): vertex-balance MAPE per (graph type, partitioner)",
         *_heatmap_rows(vb_matrix))], [
        check("fig7a_rf_mape_all_finite",
              sum(not np.isfinite(v) for v in rf_matrix.values()), "==", 0),
        check("fig7c_vb_mape_all_finite",
              sum(not np.isfinite(v) for v in vb_matrix.values()), "==", 0),
        check("fig7c_stateless_vb_mape_at_most_in_memory",
              stateless, "<=", in_memory)]


def fig8_enrichment(inputs):
    study = EnrichmentStudy(
        base_records=inputs.quality_training.quality,
        enrichment_records=inputs.wiki_enrichment.quality,
        test_records=inputs.test_quality.quality,
        # A lighter RFR keeps the many retraining runs affordable.
        predictor_factory=lambda: PartitioningQualityPredictor(
            model_factory=lambda target: RandomForestRegressor(
                n_estimators=25, max_depth=12, min_samples_leaf=2,
                max_features=0.6, random_state=0)),
        metric="replication_factor", seed=3)
    levels = study.run(enrichment_sizes=(0, 3, 6, 9, 12), repetitions=2)
    enriched = per_type_mape_matrix(
        study.train_with_enrichment(inputs.wiki_enrichment.quality),
        inputs.test_quality.quality, metric="replication_factor")
    graph_types = sorted(levels[0].mape_per_type)
    partitioners = sorted({key[1] for key in enriched})
    # Enrichment reduces the wiki error; it should not blow up the error on
    # the other types by more than a modest factor.
    return [
        ("fig8_enrichment_curve",
         "Figure 8: replication-factor MAPE per graph type vs number of "
         "wiki enrichment graphs (mean over repetitions)",
         ("#enrichment graphs", *graph_types, "all"),
         [(level.num_enrichment_graphs,
           *(level.mape_per_type[t] for t in graph_types), level.overall_mape)
          for level in levels]),
        ("fig7b_replication_factor_heatmap_enriched",
         "Figure 7(b): replication-factor MAPE per (type, partitioner) "
         "after enrichment with all wiki graphs",
         ("type", *partitioners),
         [(graph_type, *(enriched[graph_type, p] for p in partitioners))
          for graph_type in sorted({key[0] for key in enriched})])], [
        check("fig8_enriched_wiki_mape_within_1.05x",
              levels[-1].mape_of("wiki"), "<=",
              levels[0].mape_of("wiki") * 1.05),
        check("fig8_enriched_overall_mape_within_1.5x",
              levels[-1].overall_mape, "<=", levels[0].overall_mape * 1.5)]


def fig9_end_to_end(inputs, algorithm_name):
    graph = generate_realworld_graph("wiki", 1500, 12000, seed=17)
    engine, cost_model = ProcessingEngine(), PartitioningCostModel()
    kwargs = {"num_iterations": 10} if "synthetic" in algorithm_name else {}
    results, rf = {}, {}
    for name in ALL_PARTITIONER_NAMES:
        partition = create_partitioner(name)(graph, 4)
        rf[name] = compute_quality_metrics(partition).replication_factor
        processing = engine.run(partition,
                                create_algorithm(algorithm_name, **kwargs))
        partitioning = cost_model.estimate_seconds(graph, name, 4)
        results[name] = (partitioning, processing.total_seconds,
                         partitioning + processing.total_seconds)
    sps_pick = inputs.ease.select_partitioner(
        graph, algorithm_name, 4, goal=OptimizationGoal.END_TO_END,
        num_iterations=10).selected
    srf_pick = min(rf, key=rf.get)
    ranked = sorted(results, key=lambda name: results[name][2])
    rows = [(name, *results[name], rf[name],
             "+".join(mark for mark, pick in (("SPS", sps_pick),
                                              ("SSRF", srf_pick))
                      if name == pick))
            for name in ranked]
    # EASE's pick is never the single worst, and within 1.6x of the best.
    return [(f"fig9_end_to_end_{algorithm_name}",
             f"Figure 9: end-to-end time per partitioner on a wiki-like graph "
             f"({algorithm_name}); SPS = EASE pick, SSRF = smallest-RF pick",
             ("partitioner", "partitioning (s)", "processing (s)",
              "end-to-end (s)", "RF", "picked by"), rows)], [
        check(f"fig9_sps_not_worst_{algorithm_name}",
              ranked.index(sps_pick), "<", len(ranked) - 1),
        check(f"fig9_sps_within_1.6x_best_{algorithm_name}",
              results[sps_pick][2], "<=", 1.6 * results[ranked[0]][2])]


def table5_runtime_predictors(inputs):
    processing = inputs.ease.processing_time_predictor.evaluate(
        inputs.large_test.processing)
    partitioning = inputs.ease.partitioning_time_predictor.evaluate(
        inputs.large_test.partitioning_time)
    rows = [(algorithm, scores["mape"], scores["rmse"])
            for algorithm, scores in sorted(processing.items())]
    rows.append(("(partitioning time)", partitioning["mape"],
                 partitioning["rmse"]))
    # The paper reports processing-time MAPE of ~0.25-0.4 per algorithm; at
    # laptop scale only the same order of magnitude is required.
    checks = [check(f"table5_processing_mape_below_1.5_{algorithm}",
                    scores["mape"], "<", 1.5)
              for algorithm, scores in processing.items()]
    checks += [check("table5_partitioning_mape_below_1.5",
                     partitioning["mape"], "<", 1.5)]
    return [("table5_runtime_predictors",
             "Table V: ProcessingTimePredictor MAPE per algorithm on the "
             "Table-IV-like test graphs (last row: PartitioningTimePredictor)",
             ("algorithm", "MAPE", "RMSE"), rows)], checks


def table6_quality_predictor(inputs):
    training, test = inputs.quality_training.quality, inputs.test_quality.quality
    basic_scores = PartitioningQualityPredictor(feature_set="basic").fit(
        training).evaluate(test)
    advanced_scores = PartitioningQualityPredictor(
        feature_set="basic", replication_feature_set="advanced").fit(
        training, targets=["replication_factor"]).evaluate(test)
    balance = ("vertex_balance", "source_balance", "edge_balance",
               "destination_balance")
    rows = [("replication_factor", "XGB-like", features,
             scores["replication_factor"]["mape"],
             scores["replication_factor"]["rmse"])
            for features, scores in (("basic", basic_scores),
                                     ("advanced", advanced_scores))]
    rows += [(metric, "RFR", "basic", basic_scores[metric]["mape"],
              basic_scores[metric]["rmse"]) for metric in balance]
    balance_mapes = [basic_scores[metric]["mape"] for metric in balance]
    rf_mape = basic_scores["replication_factor"]["mape"]
    # Balance metrics are predicted more accurately than the replication
    # factor (Table VI), and nothing degenerates.
    return [("table6_quality_predictor",
             "Table VI: PartitioningQualityPredictor on the real-world-like "
             "test set (trained on synthetic R-MAT only)",
             ("target", "model", "features", "MAPE", "RMSE"), rows)], [
        check("table6_balance_mape_below_rf_plus_0.05",
              np.mean(balance_mapes), "<", rf_mape + 0.05),
        check("table6_rf_mape_below_1", rf_mape, "<", 1.0),
        check("table6_every_balance_mape_below_0.8",
              np.max(balance_mapes), "<", 0.8)]


def table7_feature_importance(inputs):
    predictor = PartitioningQualityPredictor(
        feature_set="basic",
        model_factory=lambda target: RandomForestRegressor(
            n_estimators=50, max_depth=14, min_samples_leaf=2,
            max_features=0.6, random_state=0))
    predictor.fit(inputs.quality_training.quality)
    importances = {metric: predictor.aggregated_feature_importances(metric)
                   for metric in QUALITY_METRIC_NAMES}
    groups = ("partitioner", "num_partitions", "mean_degree",
              "degree_distribution", "density", "num_edges", "num_vertices")
    rows = [(group, *(importances[metric].get(group, 0.0)
                      for metric in QUALITY_METRIC_NAMES)) for group in groups]
    # The partitioner and the number of partitions carry substantial
    # importance for every quality metric (Table VII: 0.18 - 0.54).
    checks = [check(f"table7_{group}_importance_above_0.05_{metric}",
                    importances[metric][group], ">", 0.05)
              for metric in QUALITY_METRIC_NAMES
              for group in ("partitioner", "num_partitions")]
    # Mean degree and density are strongly coupled at a fixed vertex count,
    # so the trees may split on either for the replication factor.
    rf_groups = importances["replication_factor"]
    degree = rf_groups["mean_degree"] + rf_groups.get("density", 0.0)
    checks.append(check("table7_rf_degree_importance_above_0.05",
                        degree, ">", 0.05))
    return [("table7_feature_importance",
             "Table VII: aggregated RFR feature importance per quality metric",
             ("feature", *QUALITY_METRIC_NAMES), rows)], checks


def _strategy_totals(comparisons):
    """Summed seconds of SPS, SO, SR and SW over the given comparisons."""
    return [sum(c.strategy_seconds[name] for c in comparisons)
            for name in ("SPS", "SO", "SR", "SW")]


def table8a_selection_strategies(inputs):
    comparisons = SelectionStrategyEvaluator(
        inputs.ease.selector, num_iterations=10).compare(inputs.large_test)
    rows = [(c.goal, c.algorithm,
             *(100.0 * c.strategy_seconds["SPS"] / c.strategy_seconds[name]
               for name in ("SO", "SSRF", "SR", "SW")),
             100.0 * c.strategy_seconds["SSRF"] / c.strategy_seconds["SO"],
             100.0 * c.optimal_pick_fraction["SPS"]) for c in comparisons]
    e2e = [c for c in comparisons if c.goal == OptimizationGoal.END_TO_END]
    sps, optimum, random_baseline, worst = _strategy_totals(e2e)
    # End to end, EASE beats random and worst selection and picks the optimum
    # in a non-trivial share of jobs (paper: 35.7 % vs 9.1 % for random).
    return [("table8a_selection_strategies",
             "Table VIII(a): EASE selection (SPS) relative to baselines "
             "(lower is better; 100 = equal)",
             ("goal", "algorithm", "SPS % of SO", "SPS % of SSRF",
              "SPS % of SR", "SPS % of SW", "SSRF % of SO",
              "SPS optimal picks %"), rows)], [
        check("table8a_sps_beats_random_end_to_end",
              sps, "<", random_baseline),
        check("table8a_sps_beats_worst_end_to_end", sps, "<", worst),
        check("table8a_optimum_at_most_sps_end_to_end", optimum, "<=", sps),
        check("table8a_sps_optimal_share_above_1_in_11",
              np.mean([c.optimal_pick_fraction["SPS"] for c in e2e]), ">",
              1.0 / 11.0)]


def table8b_selection_with_enrichment(inputs):
    system, everything = inputs.ease, inputs.large_test
    enriched = PartitionerSelector(
        PartitioningQualityPredictor().fit(inputs.quality_training.quality
                                           + inputs.wiki_enrichment.quality),
        system.partitioning_time_predictor, system.processing_time_predictor)
    wiki = {r.graph_name for r in everything.processing
            if r.graph_type == "wiki"}
    wiki_dataset = ProfileDataset(
        quality=[r for r in everything.quality if r.graph_name in wiki],
        partitioning_time=[r for r in everything.partitioning_time
                           if r.graph_name in wiki],
        processing=[r for r in everything.processing if r.graph_name in wiki])
    goals = (OptimizationGoal.END_TO_END, OptimizationGoal.PROCESSING)
    rows = []
    for label, selector, dataset in (
            ("enwiki-like / no enrichment", system.selector, wiki_dataset),
            ("enwiki-like / enriched", enriched, wiki_dataset),
            ("all graphs / no enrichment", system.selector, everything),
            ("all graphs / enriched", enriched, everything)):
        comparisons = SelectionStrategyEvaluator(
            selector, num_iterations=10).compare(dataset, goals=goals)
        for goal in goals:
            sps, optimum, random_baseline, worst = _strategy_totals(
                [c for c in comparisons if c.goal == goal])
            rows.append((label, goal, 100.0 * sps / optimum,
                         100.0 * sps / random_baseline, 100.0 * sps / worst))
    # The selection is always at least as good as the worst pick.
    return [("table8b_selection_with_enrichment",
             "Table VIII(b): selection performance with and without "
             "wiki enrichment",
             ("evaluation set / training", "goal", "SPS % of SO",
              "SPS % of SR", "SPS % of SW"), rows)], [
        check("table8b_sps_at_most_worst",
              np.max([row[4] for row in rows]), "<=", 100.0 + 1e-9)]


#: In the order of the scripts they replace (alphabetical by script name).
EXPERIMENTS = (
    ablation_alternative2, ablation_feature_sets, model_family_comparison,
    fig1_pagerank_motivation, fig2_label_propagation_motivation,
    fig6a_e_property_coverage, fig6f_clustering_vs_rf, fig7_heatmaps,
    fig8_enrichment, lambda inputs: fig9_end_to_end(inputs, "synthetic_high"),
    lambda inputs: fig9_end_to_end(inputs, "connected_components"),
    table5_runtime_predictors, table6_quality_predictor,
    table7_feature_importance, table8a_selection_strategies,
    table8b_selection_with_enrichment)


def markdown_table(headers, rows):
    """Floats at 6 significant digits; names and integers exact."""
    def cell(value):
        return g6(value) if isinstance(value, float) else str(value)
    return (["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
            + ["| " + " | ".join(cell(value) for value in row) + " |"
               for row in rows])


def render(datasets, results) -> str:
    lines = [
        "# Reproduction of the paper's evaluation", "",
        "Generated by `PYTHONPATH=src python benchmarks/reproduce.py`; do not "
        "edit by hand. CI re-runs the script and fails on any difference, so "
        "this file changes only in a PR whose title declares a data change. "
        "Floats are shown at 6 significant digits.", "",
        "## Profiled datasets", "",
        *markdown_table(("dataset", "dataset_fingerprint"),
                        [(name, dataset_fingerprint(dataset))
                         for name, dataset in datasets.items()]),
    ]
    for tables, checks in results:
        for name, title, headers, rows in tables:
            lines += ["", f"## {name}", "", title, "",
                      *markdown_table(headers, rows)]
        lines += ["", "Checks:", ""] + [
            f"- {'PASS' if passed else 'FAIL'} `{name}`: {detail}"
            for name, passed, detail in checks]
    return "\n".join(lines) + "\n"


def main() -> int:
    inputs = Inputs()
    results = [experiment(inputs) for experiment in EXPERIMENTS]
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        handle.write(render(inputs.datasets, results))
    checks = [entry for _, entries in results for entry in entries]
    failed = [(name, detail) for name, passed, detail in checks if not passed]
    for name, detail in failed:
        print(f"FAIL {name}: {detail}")
    print(f"wrote {OUTPUT}: {len(failed)} of {len(checks)} checks failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

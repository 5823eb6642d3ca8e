"""The differential oracle: production kernels vs. the ``tests/reference`` loops.

One table per subsystem, asserting *byte-for-byte* equality (same dtype, same
buffer) rather than closeness:

* every registry partitioner × k on both sides of the int64 replica-bitmask
  cutoff (63 | 64) and of ``StreamingScoreState.SPARSE_LIMIT`` (32) × skewed,
  clustered and degenerate graphs, plus the streaming partitioners under a
  tight capacity and a large balance weight at the same k and 33.  The
  reference run (:func:`reference.reference_loops`) swaps each streaming
  kernel for the seed loop with the same array signature, and the core-set
  expansion of NE and of HEP's in-memory phase for the allocator that
  recounted every external degree, so 2PS's clustering and packing are
  shared and only the kernel and the allocator are under test.  The hash
  family and DBH never had a second implementation; for them the row pins
  run-to-run determinism;
* exact triangle counts, local clustering coefficients and the sampled
  estimator × the same graphs × block sizes small enough to force many block
  boundaries;
* the profiling runtime — every backend × both dispatch granularities ×
  {cold, warm artifact cache, resumed from a truncated checkpoint} — against
  the seed's sequential profiler loops, record for record, on a corpus that
  makes the plan deduplicate across phases and across equal-content entries;
  plus the literal task ids of one tiny plan, because a drifted id does not
  fail anything else: it silently cold-starts every cache and checkpoint;
* CART fitting — ``DecisionTreeRegressor.fit`` writing the ``tree_`` arrays
  against the parent's node objects + stack-walk flatten
  (``reference.ReferenceTreeRegressor``): single trees over seeds × depths ×
  ``max_features`` × ``min_samples_leaf`` × {continuous, quality-matrix-like
  with duplicate-valued and one-hot columns, constant target, two rows, a
  duplicated plus a constant column, a coarse integer grid}, the default
  quality ensembles, an unbootstrapped forest and subsampled boosting with
  only the tree builder swapped (:func:`reference.reference_trees`), and one
  trained ``EASE`` end to end.  Six arrays, ``max_depth``, importances and
  held-out predictions, byte for byte;
* the EASE predictor layer — a system trained with the parent's three
  predictor classes (:func:`reference.reference_predictors`) over feature
  sets × replication feature sets × seeds, compared on every candidate's
  scores, each predictor's ``evaluate`` and the quality importances, plus
  the per-algorithm extension path of the processing-time predictor;
* partition coverage — every registry partitioner × the same k grid × the
  same graphs: ``compute_quality_metrics`` and the five metric functions
  against the packed-pair-key formulation, float for float, and
  ``PartitionedGraphCostModel`` (replica counts and ``superstep_cost`` on
  seeded masks, with k machines and with 3, where partitions share a
  machine) against the cost model's own dense scatter;
* the selection service — requests sent one at a time, coalesced by a
  started batcher, through ``select_many`` and twice over — against
  ``select_batch`` on the raw graphs in batches of the same size, result
  for result.
* the strategy evaluator — ``SelectionStrategyEvaluator.compare`` for both
  goals against the same comparison recomputed with one
  ``select_batch([request])`` per job;
* the graph store — every oracle graph saved to a store and reopened
  memory-mapped against the in-RAM graph: fingerprint, sampled and exact
  properties, and every registry partitioner's assignment at k = 8.

A future implementation tier is admitted by adding its row here.
"""

import functools
import os
import shutil
from unittest import mock

import numpy as np
import pytest

from reference import (
    ReferenceCostModel,
    ReferenceProcessingPredictor,
    ReferenceQualityPredictor,
    ReferenceTreeRegressor,
    flatten,
    local_clustering_sets,
    quality_metrics_pair_keys,
    reference_loops,
    reference_predictors,
    reference_trees,
    sampled_triangle_stats_sets,
    sequential_profile,
    triangle_counts_sets,
)
from repro.ease import (
    EASE,
    GraphProfiler,
    ProcessingTimePredictor,
    SelectionRequest,
    SelectionStrategyEvaluator,
)
from repro.ease.quality_predictor import default_quality_model
from repro.generators import generate_realworld_graph, generate_rmat
from repro.graph import (
    Graph,
    GraphStore,
    compute_properties,
    graph_fingerprint,
)
from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
)
from repro.ml import tree as tree_module
from repro.graph.property_engine import (
    DEFAULT_BLOCK_PAIRS,
    local_clustering_from_triangles,
    sampled_triangle_stats_engine,
    triangle_counts_engine,
)
from repro.partitioning import (
    ALL_PARTITIONER_NAMES,
    QUALITY_METRIC_NAMES,
    compute_quality_metrics,
    create_partitioner,
    destination_balance,
    edge_balance,
    replication_factor,
    source_balance,
    vertex_balance,
)
from repro.partitioning.ne import _ExpansionAllocator
from repro.processing import ClusterSpec, PartitionedGraphCostModel
from repro.runtime import ProfileExecutor, build_dataset, build_task_graph
from repro.runtime.tasks import PropertiesTask
from repro.serving.registry import dataset_fingerprint

ORACLE_K_GRID = (2, 8, 32, 63, 64, 100)
BLOCK_PAIRS_GRID = (5, 7, DEFAULT_BLOCK_PAIRS)

_GRAPH_BUILDERS = {
    "rmat": lambda: generate_rmat(128, 900, seed=3),
    "soc": lambda: generate_realworld_graph("soc", 120, 800, seed=5),
    "star": lambda: Graph.from_edges([(0, v) for v in range(1, 40)]),
    "path": lambda: Graph.from_edges([(v, v + 1) for v in range(40)]),
    "empty": lambda: Graph.empty(num_vertices=4),
    "self_loops": lambda: Graph.from_edges(
        [(0, 0), (1, 1), (0, 1), (1, 0), (2, 2), (1, 2), (2, 0)] * 3),
}
GRAPH_NAMES = tuple(_GRAPH_BUILDERS)


@functools.lru_cache(maxsize=None)
def _graph(name: str) -> Graph:
    return _GRAPH_BUILDERS[name]()


def _assert_bytes_equal(production: np.ndarray, reference: np.ndarray):
    assert production.dtype == reference.dtype
    assert production.shape == reference.shape
    assert production.tobytes() == reference.tobytes()


def _assert_partitioner_matches_reference(name, k, graph_name, **overrides):
    graph = _graph(graph_name)
    production = create_partitioner(name, **overrides)(graph, k).assignment
    with reference_loops():
        reference = create_partitioner(name, **overrides)(graph, k).assignment
    _assert_bytes_equal(production, reference)


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
@pytest.mark.parametrize("k", ORACLE_K_GRID)
@pytest.mark.parametrize("name", ALL_PARTITIONER_NAMES)
def test_partitioner_matches_reference(name, k, graph_name):
    _assert_partitioner_matches_reference(name, k, graph_name)


#: Settings whose code the default rows never run: a slack below 1 fills every
#: partition mid-stream, so 2PS and HEP reach their all-at-capacity policies
#: (HEP's at no other row) and NE leaves a large remainder to its last
#: partition, and a balance weight above 1 switches off the dominance shortcut
#: of ``StreamingScoreState.pick``.
TUNED_PARTITIONERS = (
    [(name, "balance_slack", slack)
     for name in ("ne", "hep1", "hep10", "2ps") for slack in (0.5, 0.9)]
    + [(name, "balance_weight", 5.0) for name in ("hdrf", "2ps")])


@pytest.mark.parametrize("graph_name", ("rmat", "soc"))
@pytest.mark.parametrize("k", ORACLE_K_GRID + (33,))
@pytest.mark.parametrize("name,option,value", TUNED_PARTITIONERS)
def test_tuned_partitioner_matches_reference(name, option, value, k,
                                             graph_name):
    _assert_partitioner_matches_reference(name, k, graph_name,
                                          **{option: value})


def _recounted_external_degrees(allocator):
    adj = allocator.adj
    unassigned = allocator.eligible & (allocator.assignment < 0)
    open_entries = unassigned[adj.edge_ids]
    return [int(open_entries[adj.indptr[v]:adj.indptr[v + 1]].sum())
            for v in range(allocator.graph.num_vertices)]


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
@pytest.mark.parametrize("name", ("ne", "hep1"))
def test_expansion_keeps_external_degrees(name, graph_name):
    """The allocator's kept external degrees equal a recount from the
    adjacency before and after every grown partition; NE expands over every
    edge, HEP-1 over the edges with a low-degree endpoint only."""
    grown = []

    class RecountingAllocator(_ExpansionAllocator):
        def _grow_partition(self, partition, vertex_pool):
            assert self.free == _recounted_external_degrees(self)
            super()._grow_partition(partition, vertex_pool)
            assert self.free == _recounted_external_degrees(self)
            grown.append(partition)

    with mock.patch("repro.partitioning.ne._ExpansionAllocator",
                    RecountingAllocator), \
            mock.patch("repro.partitioning.hep._ExpansionAllocator",
                       RecountingAllocator):
        for k in (2, 8, 32):
            create_partitioner(name)(_graph(graph_name), k)
    assert grown == [0] + list(range(7)) + list(range(31))


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS_GRID)
@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_triangles_and_clustering_match_reference(graph_name, block_pairs):
    graph = _graph(graph_name)
    reference = triangle_counts_sets(graph)
    production = triangle_counts_engine(graph, block_pairs=block_pairs)
    _assert_bytes_equal(production, reference)
    _assert_bytes_equal(local_clustering_from_triangles(graph, production),
                        local_clustering_sets(graph, reference))


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS_GRID)
@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_sampled_stats_match_reference(graph_name, block_pairs):
    graph = _graph(graph_name)
    sample_size = max(1, graph.num_vertices // 2)
    for seed in (0, 9):
        production = sampled_triangle_stats_engine(
            graph, sample_size, seed, block_pairs=block_pairs)
        assert production == sampled_triangle_stats_sets(graph, sample_size,
                                                         seed)


# --------------------------------------------------------------------------- #
# Partition coverage: quality metrics and cost model vs. the parent's own
# formulations of it
# --------------------------------------------------------------------------- #
QUALITY_FUNCTIONS = (replication_factor, edge_balance, vertex_balance,
                     source_balance, destination_balance)


@functools.lru_cache(maxsize=None)
def _partition(name: str, k: int, graph_name: str):
    return create_partitioner(name)(_graph(graph_name), k)


def _superstep_masks(num_vertices: int, seed: int):
    """(active, updated) pairs: random at two densities, all and none."""
    rng = np.random.default_rng(seed)
    pairs = [(rng.random(num_vertices) < share, rng.random(num_vertices) < share)
             for share in (0.2, 0.7)]
    everything = np.ones(num_vertices, dtype=bool)
    return pairs + [(everything, everything), (~everything, ~everything)]


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
@pytest.mark.parametrize("k", ORACLE_K_GRID)
@pytest.mark.parametrize("name", ALL_PARTITIONER_NAMES)
def test_coverage_readers_match_reference(name, k, graph_name):
    partition = _partition(name, k, graph_name)
    reference = quality_metrics_pair_keys(partition).as_dict()
    assert compute_quality_metrics(partition).as_dict() == reference
    for metric in QUALITY_FUNCTIONS:
        assert metric(partition) == reference[metric.__name__]

    masks = _superstep_masks(partition.graph.num_vertices, seed=k)
    for cluster in (ClusterSpec(num_machines=k), ClusterSpec(num_machines=3)):
        production = PartitionedGraphCostModel(partition, cluster)
        expected = ReferenceCostModel(partition, cluster)
        _assert_bytes_equal(production.replica_counts, expected.replica_counts)
        for active, updated in masks:
            assert (production.superstep_cost(active, updated, 1.5, 0.5, 2.0)
                    == expected.superstep_cost(active, updated, 1.5, 0.5, 2.0))


# --------------------------------------------------------------------------- #
# Profiling runtime vs. the sequential profiler loops
# --------------------------------------------------------------------------- #
PROFILE_GRID = dict(partitioner_names=("2d", "dbh", "hdrf"),
                    # The processing k is one of the quality counts, so both
                    # phases meet in one unit (cross-phase deduplication).
                    partition_counts=(2, 4), processing_partition_count=2,
                    algorithms=("pagerank", "connected_components"), seed=0)


def _renamed(graph: Graph, name: str, graph_type: str) -> Graph:
    return Graph(graph.src.copy(), graph.dst.copy(),
                 num_vertices=graph.num_vertices, name=name,
                 graph_type=graph_type)


@functools.lru_cache(maxsize=None)
def _profile_corpus():
    """Two distinct graphs plus an equal-content, differently named twin of
    the first (one unit, two timing samples)."""
    first, second = (generate_rmat(64, 300, seed=s, graph_type="rmat")
                     for s in range(2))
    return first, second, _renamed(first, "twin", "soc")


def _sequential(corpus):
    return sequential_profile(
        corpus, corpus, PROFILE_GRID["partitioner_names"],
        PROFILE_GRID["partition_counts"],
        PROFILE_GRID["processing_partition_count"],
        PROFILE_GRID["algorithms"], seed=PROFILE_GRID["seed"])


@functools.lru_cache(maxsize=None)
def _profile_reference():
    return _sequential(_profile_corpus())


def _profile_plan():
    corpus = _profile_corpus()
    return GraphProfiler(**PROFILE_GRID).build_plan(corpus, corpus)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """Cache directory and checkpoint left behind by one complete run."""
    directory = tmp_path_factory.mktemp("finished-run")
    cache_dir = str(directory / "cache")
    checkpoint = str(directory / "profile.checkpoint")
    ProfileExecutor(cache_dir=cache_dir, checkpoint_path=checkpoint,
                    checkpoint_every=1).run(_profile_plan())
    return cache_dir, checkpoint


@pytest.mark.parametrize("state", ("cold", "warm", "resumed"))
@pytest.mark.parametrize("granularity", ("task", "unit"))
@pytest.mark.parametrize("backend", ("inline", "process", "worker"))
def test_profile_matches_sequential_reference(backend, granularity, state,
                                              finished_run, tmp_path):
    cache_dir = checkpoint = None
    if state == "warm":
        cache_dir = shutil.copytree(finished_run[0], str(tmp_path / "cache"))
    elif state == "resumed":
        checkpoint = shutil.copy(finished_run[1], str(tmp_path / "checkpoint"))
        # Cut mid-frame: the journal keeps the intact frames before the cut.
        os.truncate(checkpoint, os.path.getsize(checkpoint) // 2)
    plan = _profile_plan()
    results, stats = ProfileExecutor(
        jobs=2, cache_dir=cache_dir, checkpoint_path=checkpoint,
        backend=backend, granularity=granularity).run(plan)
    dataset, reference = build_dataset(plan, results), _profile_reference()

    assert dataset.quality == reference.quality
    assert dataset.partitioning_time == reference.partitioning_time
    assert dataset.processing == reference.processing
    assert dataset_fingerprint(dataset) == dataset_fingerprint(reference)
    names = {record.graph_name for record in dataset.partitioning_time}
    assert names == {graph.name for graph in _profile_corpus()}
    if state == "cold":
        assert stats.executed_tasks == stats.total_tasks
        assert stats.partitions_computed == stats.unique_partition_jobs
    elif state == "warm":
        assert stats.partitions_computed == 0
        assert stats.cache_hit_tasks == stats.total_tasks
    else:
        assert 0 < stats.checkpoint_tasks < stats.total_tasks
        assert stats.executed_tasks > 0


class _PinnedNameGraph(Graph):
    """A graph whose name can be set once (by ``Graph.__init__``) only."""

    @property
    def name(self):
        return self._name

    @name.setter
    def name(self, value):
        if hasattr(self, "_name"):
            raise AttributeError("the caller's graph was renamed")
        self._name = value


def test_equal_content_entries_are_timed_without_renaming_the_graph():
    # Inline tasks run on the caller's own Graph objects; the twin's timing
    # sample must be taken under the twin's name without touching the one
    # representative object both entries share.
    first = _profile_corpus()[0]
    shared = _PinnedNameGraph(first.src, first.dst,
                              num_vertices=first.num_vertices,
                              name=first.name, graph_type=first.graph_type)
    corpus = (shared, _renamed(first, "twin", "soc"))
    dataset = GraphProfiler(**PROFILE_GRID).profile(corpus, corpus)
    assert dataset.partitioning_time == _sequential(corpus).partitioning_time
    seconds = {name: [record.seconds for record in dataset.partitioning_time
                      if record.graph_name == name]
               for name in (shared.name, "twin")}
    assert seconds[shared.name] != seconds["twin"]
    assert shared.name == first.name


# The content fingerprints of these two graphs root the pinned ids below.
_PINNED_TRIANGLE = [(0, 1), (1, 2), (2, 0), (2, 3)]
_PINNED_SQUARE = [(0, 1), (1, 2), (3, 2), (0, 3), (1, 3)]
_FP_A, _FP_B = "aef4fc6529f52251dc2a", "c5ed983c96c0cdf73d42"
_PINNED_CLUSTER = (2, 2e-07, 1e-06, 200000.0, 0.002)
PINNED_TASK_IDS = [
    ("properties", _FP_A, False, 7),
    ("properties", _FP_B, False, 7),
    ("partition", _FP_A, "2d", 2, 7),
    ("quality", _FP_A, "2d", 2, 7),
    ("partitioning_time_task", _FP_A, "2d", 2, 7, "model", ("a", "twin"), 1),
    ("processing", _FP_A, "2d", 2, "pagerank", 7, _PINNED_CLUSTER),
    ("partition", _FP_A, "2d", 4, 7),
    ("quality", _FP_A, "2d", 4, 7),
    ("partitioning_time_task", _FP_A, "2d", 4, 7, "model", ("a", "twin"), 1),
    ("partition", _FP_B, "2d", 2, 7),
    ("quality", _FP_B, "2d", 2, 7),
    ("partitioning_time_task", _FP_B, "2d", 2, 7, "model", ("b",), 1),
    ("partition", _FP_B, "2d", 4, 7),
    ("quality", _FP_B, "2d", 4, 7),
    ("partitioning_time_task", _FP_B, "2d", 4, 7, "model", ("b",), 1),
    ("properties", "fp", True, 3, "approximate", 500),
]


def test_task_ids_are_pinned():
    """Task ids are the keys of every cache directory and checkpoint in the
    field; this list was produced by the commit before the ``*Job`` records
    were deleted and must never change."""
    triangle = Graph.from_edges(_PINNED_TRIANGLE, name="a", graph_type="rmat")
    square = Graph.from_edges(_PINNED_SQUARE, name="b", graph_type="rmat")
    profiler = GraphProfiler(partitioner_names=("2d",),
                             partition_counts=(2, 4),
                             processing_partition_count=2,
                             algorithms=("pagerank",), seed=7)
    plan = profiler.build_plan(
        [triangle, _renamed(triangle, "twin", "soc"), square], [triangle])
    task_ids = list(build_task_graph(plan))
    task_ids.append(PropertiesTask("fp", True, 3, mode="approximate",
                                   wedge_budget=500).task_id)
    assert task_ids == PINNED_TASK_IDS


# --------------------------------------------------------------------------- #
# CART fitting vs. the parent's node objects + stack-walk flatten
# --------------------------------------------------------------------------- #
TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "roots")


def _continuous(rng):
    features = rng.random((120, 5))
    targets = (np.sin(3 * features[:, 0]) + features[:, 1] * features[:, 2]
               + 0.1 * rng.normal(size=120))
    return features, targets


def _quality_like(rng):
    """The shape of the real quality feature matrix: 8 graph-property columns
    that repeat over a graph's rows, ``k`` and a one-hot of 11 partitioners."""
    graphs, partitioners, counts = 6, 11, (2, 4, 8)
    properties = np.repeat(rng.random((graphs, 8)), partitioners * len(counts),
                           axis=0)
    one_hot = np.tile(np.repeat(np.eye(partitioners), len(counts), axis=0),
                      (graphs, 1))
    k = np.tile(np.asarray(counts, dtype=np.float64), graphs * partitioners)
    features = np.column_stack([properties, k, one_hot])
    targets = (properties[:, 0] * np.log2(k) + one_hot @ rng.random(partitioners)
               + 0.05 * rng.normal(size=features.shape[0]))
    return features, targets


def _constant_target(rng):
    return rng.random((30, 3)), np.ones(30)


def _two_rows(rng):
    return rng.random((2, 3)), np.array([0.0, 1.0])


def _tied_columns(rng):
    """Column 3 repeats column 1 verbatim and column 4 is constant: two
    candidates reach exactly the same best gain (the earliest in candidate
    order must win), and one candidate never has a valid split position."""
    base = rng.random((60, 3))
    features = np.column_stack([base, base[:, 1], np.full(60, 0.5)])
    targets = (2.0 * base[:, 1] + 0.5 * base[:, 0]
               + 0.05 * rng.normal(size=60))
    return features, targets


def _coarse_grid(rng):
    """Integer columns with 3-4 distinct values: most split positions sit
    between equal values, and some nodes have no valid split in any
    candidate."""
    features = np.column_stack([rng.integers(0, levels, size=80)
                                for levels in (3, 4, 3, 4)]).astype(np.float64)
    targets = (features[:, 0] * features[:, 1] - features[:, 2]
               + 0.1 * rng.normal(size=80))
    return features, targets


_TREE_DATA = {"continuous": _continuous, "quality_like": _quality_like,
              "constant_target": _constant_target, "two_rows": _two_rows,
              "tied_columns": _tied_columns, "coarse_grid": _coarse_grid}


@functools.lru_cache(maxsize=None)
def _tree_data(name: str, seed: int):
    """Training matrix, targets and held-out rows of one oracle row."""
    rng = np.random.default_rng(seed)
    features, targets = _TREE_DATA[name](rng)
    return features, targets, rng.random((25, features.shape[1]))


def _assert_same_trees(production, reference):
    for name in TREE_ARRAYS:
        _assert_bytes_equal(getattr(production, name),
                            getattr(reference, name))
    assert production.max_depth == reference.max_depth


def _assert_same_model(production, reference, held_out):
    _assert_bytes_equal(production.feature_importances_,
                        reference.feature_importances_)
    _assert_bytes_equal(production.predict(held_out),
                        reference.predict(held_out))


@pytest.mark.parametrize("data", tuple(_TREE_DATA))
@pytest.mark.parametrize("min_samples_leaf", (1, 2))
@pytest.mark.parametrize("max_features", (None, "sqrt", 0.6))
@pytest.mark.parametrize("max_depth", (None, 3, 12))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_tree_matches_reference(seed, max_depth, max_features,
                                min_samples_leaf, data):
    features, targets, held_out = _tree_data(data, seed)
    settings = dict(max_depth=max_depth, max_features=max_features,
                    min_samples_leaf=min_samples_leaf, random_state=seed)
    production = DecisionTreeRegressor(**settings).fit(features, targets)
    reference = ReferenceTreeRegressor(**settings).fit(features, targets)
    _assert_same_trees(production.tree_, reference.tree_)
    _assert_same_model(production, reference, held_out)
    # The recursive node walk, against the depth ``fit`` tracked.
    assert production.depth() == reference.depth()


#: The Table VI defaults at reduced ``n_estimators`` (60 and 150 in production).
ENSEMBLES = {
    "quality_rf": lambda seed: default_quality_model(
        "edge_balance", random_state=seed).set_params(n_estimators=10),
    "quality_gb": lambda seed: default_quality_model(
        "replication_factor", random_state=seed).set_params(n_estimators=20),
    "gb_subsample": lambda seed: GradientBoostingRegressor(
        n_estimators=20, subsample=0.7, random_state=seed),
    "rf_no_bootstrap": lambda seed: RandomForestRegressor(
        bootstrap=False, n_estimators=10, random_state=seed),
}


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("ensemble", tuple(ENSEMBLES))
def test_ensemble_matches_reference(ensemble, seed):
    features, targets, held_out = _tree_data("quality_like", seed)
    production = ENSEMBLES[ensemble](seed).fit(features, targets)
    with reference_trees() as built:
        reference = ENSEMBLES[ensemble](seed).fit(features, targets)
    assert len(production.trees_) == len(built) == production.n_estimators
    _assert_same_trees(production.trees_, reference.trees_)
    # ... and against the parent's own derivation of an ensemble's arrays:
    # every root flattened in one walk, no per-tree arrays concatenated.
    _assert_same_trees(production.trees_,
                       flatten([tree._root for tree in built]))
    _assert_same_model(production, reference, held_out)


def test_split_search_sorts_once_per_node(monkeypatch):
    """A timing-free fence: a node's candidate features are sorted in one
    ``argsort`` call, not one call per candidate (12 per search here)."""
    calls = {"argsort": 0, "split_search": 0}

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argsort(*args, **kwargs):
            calls["argsort"] += 1
            return np.argsort(*args, **kwargs)

    search = DecisionTreeRegressor._best_split

    def counted_search(self, *args):
        calls["split_search"] += 1
        return search(self, *args)

    monkeypatch.setattr(tree_module, "np", CountingNumpy())
    monkeypatch.setattr(DecisionTreeRegressor, "_best_split", counted_search)
    features, targets, _ = _tree_data("quality_like", 0)
    default_quality_model("edge_balance").fit(features, targets)
    assert 0 < calls["argsort"] <= calls["split_search"]


def test_trained_system_selects_like_reference():
    dataset, names = _profile_reference(), PROFILE_GRID["partitioner_names"]
    production = EASE(partitioner_names=names).train(dataset)
    with reference_trees():
        reference = EASE(partitioner_names=names).train(dataset)
    requests = [SelectionRequest(graph, algorithm, k, goal=goal)
                for graph in _profile_corpus()
                for algorithm in PROFILE_GRID["algorithms"]
                for k in PROFILE_GRID["partition_counts"]
                for goal in ("end_to_end", "processing")]
    assert (production.selector.select_batch(requests)
            == reference.selector.select_batch(requests))


# --------------------------------------------------------------------------- #
# EASE predictors vs. the parent's per-predictor scalers and log targets
# --------------------------------------------------------------------------- #
def _selection_requests():
    """The 24 jobs of ``test_trained_system_selects_like_reference``."""
    return [SelectionRequest(graph, algorithm, k, goal=goal)
            for graph in _profile_corpus()
            for algorithm in PROFILE_GRID["algorithms"]
            for k in PROFILE_GRID["partition_counts"]
            for goal in ("end_to_end", "processing")]


def _predictor_outputs(system, dataset):
    quality = system.quality_predictor
    return {
        "scores": system.selector.score_partitioners_batch(
            _selection_requests()),
        "quality": quality.evaluate(dataset.quality),
        "partitioning_time": system.partitioning_time_predictor.evaluate(
            dataset.partitioning_time),
        "processing": system.processing_time_predictor.evaluate(
            dataset.processing),
        "importances": {target: quality.feature_importances(target)
                        for target in QUALITY_METRIC_NAMES},
    }


@pytest.mark.parametrize("random_state", (0, 1))
@pytest.mark.parametrize("replication_feature_set", (None, "advanced"))
@pytest.mark.parametrize("feature_set", ("simple", "basic", "advanced"))
def test_trained_system_predicts_like_reference(feature_set,
                                                replication_feature_set,
                                                random_state):
    dataset = _profile_reference()
    settings = dict(partitioner_names=PROFILE_GRID["partitioner_names"],
                    feature_set=feature_set,
                    replication_feature_set=replication_feature_set,
                    random_state=random_state)
    production = EASE(**settings).train(dataset)
    with reference_predictors():
        reference = EASE(**settings).train(dataset)
    assert isinstance(reference.quality_predictor, ReferenceQualityPredictor)
    # ``PartitionerScore`` and the score dicts compare floats exactly.
    assert (_predictor_outputs(production, dataset)
            == _predictor_outputs(reference, dataset))


def test_processing_predictor_extends_like_reference():
    """Section IV-E: a model fitted for pagerank, then connected components
    (the polynomial family) added by ``fit_algorithm``."""
    records = _profile_reference().processing
    pagerank = [record for record in records if record.algorithm == "pagerank"]
    production = ProcessingTimePredictor().fit(pagerank).fit_algorithm(
        "connected_components", records)
    reference = ReferenceProcessingPredictor().fit(pagerank).fit_algorithm(
        "connected_components", records)
    assert production.algorithms == reference.algorithms == [
        "connected_components", "pagerank"]
    assert production.evaluate(records) == reference.evaluate(records)
    columns = ([record.algorithm for record in records],
               [record.properties for record in records],
               [record.num_partitions for record in records],
               [record.metrics for record in records])
    _assert_bytes_equal(production.predict_total_seconds_batch(*columns),
                        reference.predict_total_seconds_batch(*columns))


# --------------------------------------------------------------------------- #
# The selection service vs. one direct select_batch
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _served_system():
    return EASE(partitioner_names=PROFILE_GRID["partitioner_names"]).train(
        _profile_reference())


def _one_at_a_time(service, requests):
    return [service.select(request.graph, request.algorithm,
                           request.num_partitions, goal=request.goal)
            for request in requests]


def _coalesced(service, requests):
    # The batch closes when it holds every request, long before the wait
    # runs out, so the separate submits meet in one select_batch.
    service.max_batch_size = len(requests)
    service.batch_wait_seconds = 60.0
    with service:
        futures = [service.submit(request) for request in requests]
        answers = [future.result(timeout=60) for future in futures]
    assert service.stats.batches == 1
    return answers


def _twice(service, requests):
    first = _one_at_a_time(service, requests)
    second = _one_at_a_time(service, requests)
    assert first == second
    return second


#: path -> (how the requests enter the service, the batch size the service
#: runs them in).  A polynomial-family processing prediction can move by one
#: ulp with the shape of the batch (the matrix-vector product behind it sums
#: in a shape-dependent order), so each row is compared with ``select_batch``
#: over batches of the same size.
SERVICE_PATHS = {
    "inline": (_one_at_a_time, 1),
    "batcher": (_coalesced, None),
    "select_many": (lambda service, requests: service.select_many(requests),
                    None),
    "repeated": (_twice, 1),
}


@pytest.mark.parametrize("path", tuple(SERVICE_PATHS))
def test_service_answers_like_selector(path):
    """Every way into ``SelectionService`` — one request at a time with no
    batcher, separate submits coalesced by a started batcher,
    ``select_many``, and the same requests sent twice — answers what
    ``select_batch`` over the raw graphs answers: winner, ranking and every
    score float."""
    from repro.serving import SelectionService

    system = _served_system()
    requests = _selection_requests()
    answer, batch_size = SERVICE_PATHS[path]
    batch_size = batch_size or len(requests)
    expected = [result for start in range(0, len(requests), batch_size)
                for result in system.selector.select_batch(
                    requests[start:start + batch_size])]
    answers = answer(SelectionService(system), requests)
    assert len(answers) == len(expected)
    for got, want in zip(answers, expected):
        assert got.selected == want.selected
        assert ([score.partitioner for score in got.ranking()]
                == [score.partitioner for score in want.ranking()])
        assert got == want


# --------------------------------------------------------------------------- #
# The strategy evaluator vs. one selection per job
# --------------------------------------------------------------------------- #
def _sps_per_job(evaluator, dataset, goal):
    """(goal, algorithm, jobs, SPS mean seconds, SPS optimal-pick share)
    per algorithm, each job answered by its own one-request
    ``select_batch``."""
    properties = {record.graph_name: record.properties
                  for record in dataset.processing}
    jobs = evaluator.build_jobs(dataset)
    rows = []
    for algorithm in sorted({job.algorithm for job in jobs}):
        total, optimal, count = 0.0, 0, 0
        for job in jobs:
            if job.algorithm != algorithm:
                continue
            pick = evaluator.selector.select_batch([SelectionRequest(
                properties[job.graph_name], algorithm, job.num_partitions,
                goal=goal, num_iterations=evaluator.num_iterations)])[0]
            cost = job.cost(pick.selected, goal)
            total += cost
            optimal += int(np.isclose(cost, min(
                job.cost(name, goal) for name in job.processing_seconds)))
            count += 1
        rows.append((goal, algorithm, count, total / count, optimal / count))
    return rows


def test_evaluator_picks_like_per_job_selection():
    """The Table VIII comparison scores EASE's pick (``SPS``) exactly as
    one ``select_batch([request])`` per job does, for both goals: a pick
    does not depend on which other jobs share its selector pass."""
    dataset = _profile_reference()
    evaluator = SelectionStrategyEvaluator(_served_system().selector)
    goals = ("end_to_end", "processing")
    got = [(comparison.goal, comparison.algorithm, comparison.num_jobs,
            comparison.strategy_seconds["SPS"],
            comparison.optimal_pick_fraction["SPS"])
           for comparison in evaluator.compare(dataset, goals=goals)]
    assert got == [row for goal in goals
                   for row in _sps_per_job(evaluator, dataset, goal)]


# --------------------------------------------------------------------------- #
# Store-mapped graphs vs. the in-RAM graphs they were saved from
# --------------------------------------------------------------------------- #
MAPPED_K = 8


def _fingerprints(in_ram, mapped):
    return graph_fingerprint(in_ram), graph_fingerprint(mapped)


def _sampled_properties(in_ram, mapped):
    return tuple(compute_properties(graph, exact_triangles=False, seed=7)
                 for graph in (in_ram, mapped))


def _exact_properties(in_ram, mapped):
    return tuple(compute_properties(graph, exact_triangles=True)
                 for graph in (in_ram, mapped))


def _assignments(in_ram, mapped):
    return tuple(
        {name: create_partitioner(name)(graph, MAPPED_K).assignment.tobytes()
         for name in ALL_PARTITIONER_NAMES}
        for graph in (in_ram, mapped))


#: check -> (in-RAM graph, store-mapped graph) -> (in-RAM answer, mapped one).
MAPPED_CHECKS = {
    "fingerprint": _fingerprints,
    "properties_sampled": _sampled_properties,
    "properties_exact": _exact_properties,
    "partitioners": _assignments,
}


@pytest.fixture(scope="module")
def mapped_store(tmp_path_factory):
    store = GraphStore(str(tmp_path_factory.mktemp("mapped-store")))
    return store, {name: store.save(_GRAPH_BUILDERS[name]())
                   for name in GRAPH_NAMES}


@pytest.mark.parametrize("check", tuple(MAPPED_CHECKS))
@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_store_mapped_graph_matches_in_ram(mapped_store, graph_name, check):
    """A graph saved to a store and reopened memory-mapped answers what the
    in-RAM graph answers: the content fingerprint, the sampled and exact
    properties, and every registry partitioner's assignment at k = 8, byte
    for byte.  Each side is a fresh graph, so neither reuses a view or a
    hash the other one computed."""
    store, fingerprints = mapped_store
    mapped = store.open(fingerprints[graph_name])
    assert mapped.is_mapped
    in_ram, opened = MAPPED_CHECKS[check](_GRAPH_BUILDERS[graph_name](),
                                          mapped)
    assert in_ram == opened

"""Session-scoped fixtures shared by the benchmark harness.

The benchmarks regenerate every table and figure of the paper's evaluation at
laptop scale.  They share one training/profiling pass (the expensive part),
which is built here once per session and cached on disk under
``benchmarks/_cache`` — delete that directory to force a rebuild.
"""

from __future__ import annotations

import sys
import os

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from _harness import cached  # noqa: E402

from repro.generators import (  # noqa: E402
    generate_large_test_graphs,
    generate_realworld_graph,
    generate_test_catalogue,
    generate_training_corpus,
    rmat_small_grid,
    rmat_large_grid,
)
from repro.ease import EASE, GraphProfiler  # noqa: E402
from repro.partitioning import ALL_PARTITIONER_NAMES  # noqa: E402

#: Scale factors: Table I grids scaled so the largest graphs have a few
#: thousand edges (laptop scale).
SMALL_GRID_SCALE = 1.0 / 50_000
LARGE_GRID_SCALE = 1.0 / 60_000
#: Subsampling steps applied to the 297-/180-cell grids so the shared
#: profiling pass stays in the minutes range.
SMALL_GRID_STEP = 8
LARGE_GRID_STEP = 6

#: Per-type composition of the laptop-scale test catalogue (the paper's
#: proportions, reduced).
TEST_CATALOGUE_COUNTS = {
    "affiliation": 2, "citation": 1, "collaboration": 2, "interaction": 2,
    "internet": 2, "product_network": 1, "soc": 4, "web": 3, "wiki": 6,
}

PARTITION_COUNTS = (4, 8)
PROCESSING_K = 4


def _profiler() -> GraphProfiler:
    return GraphProfiler(partition_counts=PARTITION_COUNTS,
                         processing_partition_count=PROCESSING_K)


@pytest.fixture(scope="session")
def profiler():
    return _profiler()


@pytest.fixture(scope="session")
def small_training_graphs():
    """Scaled, subsampled R-MAT-SMALL corpus (Table I(a) x Table II)."""
    def build():
        specs = rmat_small_grid(scale=SMALL_GRID_SCALE)[::SMALL_GRID_STEP]
        return list(generate_training_corpus(specs, seed=1))
    return cached("small_training_graphs", build)


@pytest.fixture(scope="session")
def large_training_graphs():
    """Scaled, subsampled R-MAT-LARGE corpus (Table I(b) x Table II)."""
    def build():
        specs = rmat_large_grid(scale=LARGE_GRID_SCALE)[::LARGE_GRID_STEP]
        return list(generate_training_corpus(specs, seed=2))
    return cached("large_training_graphs", build)


@pytest.fixture(scope="session")
def quality_training_records(small_training_graphs):
    """Quality + partitioning-time records of the R-MAT-SMALL corpus."""
    return cached("quality_training_records",
                  lambda: _profiler().profile_quality(small_training_graphs))


@pytest.fixture(scope="session")
def runtime_training_records(large_training_graphs):
    """Processing + run-time records of the R-MAT-LARGE corpus."""
    return cached("runtime_training_records",
                  lambda: _profiler().profile_processing(large_training_graphs))


@pytest.fixture(scope="session")
def test_catalogue():
    """Real-world-like test graphs (the paper's 9 graph types)."""
    def build():
        return generate_test_catalogue(graphs_per_type=TEST_CATALOGUE_COUNTS,
                                       base_vertices=600, base_edges=3600,
                                       seed=7)
    return cached("test_catalogue", build)


@pytest.fixture(scope="session")
def test_quality_records(test_catalogue):
    """Quality records of the test catalogue (ground truth for Table VI/Fig 7)."""
    return cached("test_quality_records",
                  lambda: _profiler().profile_quality(test_catalogue))


@pytest.fixture(scope="session")
def wiki_enrichment_records():
    """Quality records of the wiki enrichment pool (Section V-D)."""
    def build():
        graphs = [generate_realworld_graph("wiki", 400 + 35 * index,
                                           2600 + 260 * index,
                                           seed=1000 + index)
                  for index in range(12)]
        return _profiler().profile_quality(graphs)
    return cached("wiki_enrichment_records", build)


@pytest.fixture(scope="session")
def large_test_records():
    """Processing/run-time records of the Table-IV-like evaluation graphs."""
    def build():
        graphs = generate_large_test_graphs(scale=0.18, seed=11)
        return _profiler().profile_processing(graphs)
    return cached("large_test_records", build)


@pytest.fixture(scope="session")
def trained_ease(quality_training_records, runtime_training_records):
    """EASE trained on the synthetic corpora (quality from R-MAT-SMALL,
    run-times from R-MAT-LARGE), as in the paper."""
    def build():
        dataset = quality_training_records
        # train() is bypassed, so name the candidates it would resolve.
        system = EASE(partitioner_names=ALL_PARTITIONER_NAMES)
        system.quality_predictor.fit(dataset.quality)
        system.partitioning_time_predictor.fit(
            runtime_training_records.partitioning_time)
        system.processing_time_predictor.fit(runtime_training_records.processing)
        from repro.ease import PartitionerSelector

        system._selector = PartitionerSelector(
            system.quality_predictor, system.partitioning_time_predictor,
            system.processing_time_predictor)
        return system
    return cached("trained_ease", build)

"""The seed's sequential profiler loops (steps 2-3 of Figure 5).

``profile(quality_graphs, processing_graphs)`` of the seed implementation,
kept literally: the quality grid over every ``(graph, partitioner, k)``,
then the processing phase, which re-partitions every graph at the processing
``k`` and runs every workload on it.  No plan, no tasks, no content
deduplication, no cache — each corpus entry is profiled under its own
``Graph`` object and name.
"""

from repro.ease.dataset import (
    PartitioningTimeRecord,
    ProcessingRecord,
    ProfileDataset,
    QualityRecord,
)
from repro.ease.partitioning_cost import PartitioningCostModel
from repro.graph import compute_properties
from repro.partitioning import compute_quality_metrics, create_partitioner
from repro.processing import ProcessingEngine, create_algorithm

#: Workloads predicted by their average iteration time (Section V-C).
_AVERAGE_ITERATION = {"pagerank", "label_propagation", "synthetic_low",
                      "synthetic_high"}


def sequential_profile(quality_graphs, processing_graphs, partitioners,
                       partition_counts, processing_k, algorithms,
                       seed=0) -> ProfileDataset:
    cost_model = PartitioningCostModel()
    engine = ProcessingEngine(None)
    dataset = ProfileDataset()
    for graph in quality_graphs:
        properties = compute_properties(graph, exact_triangles=False,
                                        seed=seed)
        for name in partitioners:
            partitioner = create_partitioner(name, seed=seed)
            for k in partition_counts:
                partition = partitioner(graph, k)
                metrics = compute_quality_metrics(partition).as_dict()
                dataset.quality.append(QualityRecord(
                    graph.name, graph.graph_type, properties, name, k,
                    metrics))
                dataset.partitioning_time.append(PartitioningTimeRecord(
                    graph.name, graph.graph_type, properties, name, k,
                    cost_model.estimate_seconds(graph, name, k)))
    for graph in processing_graphs:
        properties = compute_properties(graph, exact_triangles=False,
                                        seed=seed)
        for name in partitioners:
            partitioner = create_partitioner(name, seed=seed)
            partition = partitioner(graph, processing_k)
            metrics = compute_quality_metrics(partition).as_dict()
            dataset.quality.append(QualityRecord(
                graph.name, graph.graph_type, properties, name, processing_k,
                metrics))
            dataset.partitioning_time.append(PartitioningTimeRecord(
                graph.name, graph.graph_type, properties, name, processing_k,
                cost_model.estimate_seconds(graph, name, processing_k)))
            for algorithm_name in algorithms:
                result = engine.run(partition,
                                    create_algorithm(algorithm_name,
                                                     seed=seed))
                target = (result.average_iteration_seconds
                          if algorithm_name in _AVERAGE_ITERATION
                          else result.total_seconds)
                dataset.processing.append(ProcessingRecord(
                    graph.name, graph.graph_type, properties, name,
                    processing_k, algorithm_name, metrics, target,
                    result.total_seconds, result.num_supersteps))
    return dataset

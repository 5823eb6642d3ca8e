"""The profiling plan: the EASE profiling grid, enumerated as tasks.

The profiling phase of the paper (Figure 5, steps 2-3) is a dense grid:
every training graph is partitioned by every candidate partitioner at every
``k``, quality metrics and partitioning run-time are recorded, and at the
processing ``k`` every workload is executed on the partitioned graph.
:class:`ProfilePlan` holds the two corpora and the grid settings and
enumerates the grid directly as the task records of
:mod:`repro.runtime.tasks` — there is no other record of a grid cell, and a
cell's key is spelled only by its task's ``task_id``.

Cells are deduplicated by graph *content*: two corpus entries with identical
edge arrays, or the quality and the processing phase meeting at the
processing ``k``, share one ``(graph, partitioner, k)`` unit and hence one
partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..graph import Graph, graph_fingerprint
from ..processing import ClusterSpec
from .tasks import (
    PartitionTask,
    PartitionTimeTask,
    ProcessingTask,
    PropertiesTask,
    QualityTask,
)

__all__ = [
    "graph_fingerprint",
    "GraphRef",
    "ProfilePlan",
    "build_plan",
]


@dataclass(frozen=True)
class GraphRef:
    """Reference to one corpus entry: record labels plus the content key."""

    name: str
    graph_type: str
    fingerprint: str


@dataclass
class ProfilePlan:
    """The fully enumerated profiling grid of one run.

    ``quality_refs`` / ``processing_refs`` preserve corpus order; the merge
    step replays them to emit records in exactly the order of the sequential
    profiler.  ``graphs`` maps each content fingerprint to one representative
    :class:`Graph` (the arrays shipped to workers).
    """

    quality_refs: List[GraphRef]
    processing_refs: List[GraphRef]
    graphs: Dict[str, Graph]
    partitioner_names: Tuple[str, ...]
    partition_counts: Tuple[int, ...]
    processing_k: int
    algorithm_names: Tuple[str, ...]
    cluster: Optional[ClusterSpec]
    time_mode: str
    exact_triangles: bool
    seed: int

    # ------------------------------------------------------------------ #
    def tasks(self, repeats: int = 1) -> List[Any]:
        """Every task of the grid, in deterministic topological order.

        One properties task per distinct graph content first, then unit by
        unit (first occurrence in corpus order): the partition, its quality
        and timing tasks and — at the processing ``k`` — one processing task
        per workload.  A
        combination appearing in both the quality grid and the processing
        phase (same graph content, partitioner and ``k``) is one unit whose
        partition serves both — this is what eliminates the sequential
        profiler's double partitioning at the processing ``k``.  A unit's
        timing task samples every distinct corpus-entry name that shares
        the content (normally one).  ``repeats`` is the number of wall-clock
        timing measurements per sample.
        """
        # Unit key -> names to sample, in first-occurrence (dispatch) order.
        timing_names: Dict[Tuple[str, str, int], List[str]] = {}

        def visit(ref: GraphRef, partitioner: str,
                  k: int) -> Tuple[str, str, int]:
            unit_key = (ref.fingerprint, partitioner, k)
            names = timing_names.setdefault(unit_key, [])
            if ref.name not in names:
                names.append(ref.name)
            return unit_key

        for ref in self.quality_refs:
            for partitioner in self.partitioner_names:
                for k in self.partition_counts:
                    visit(ref, partitioner, k)
        processing_units = {visit(ref, partitioner, self.processing_k)
                            for ref in self.processing_refs
                            for partitioner in self.partitioner_names}

        # Mirrors ProcessingEngine._resolve_cluster: by default the simulated
        # cluster has one machine per partition.
        cluster = (self.cluster if self.cluster is not None
                   else ClusterSpec(num_machines=self.processing_k))
        algorithms = tuple(dict.fromkeys(self.algorithm_names))
        fingerprints = dict.fromkeys(
            ref.fingerprint
            for ref in list(self.quality_refs) + list(self.processing_refs))
        tasks: List[Any] = [
            PropertiesTask(fingerprint, self.exact_triangles, self.seed)
            for fingerprint in fingerprints]
        for unit_key, names in timing_names.items():
            fingerprint, partitioner, k = unit_key
            tasks.append(PartitionTask(fingerprint, partitioner, k,
                                       self.seed))
            tasks.append(QualityTask(fingerprint, partitioner, k, self.seed))
            tasks.append(PartitionTimeTask(fingerprint, partitioner, k,
                                           self.seed, self.time_mode,
                                           tuple(names), repeats))
            if unit_key in processing_units:
                tasks.extend(
                    ProcessingTask(fingerprint, partitioner, k, algorithm,
                                   self.seed, cluster)
                    for algorithm in algorithms)
        return tasks

    def enumerated_partition_slots(self) -> int:
        """Grid slots that would each partition once in the sequential path."""
        quality_slots = (len(self.quality_refs) * len(self.partitioner_names)
                         * len(self.partition_counts))
        processing_slots = (len(self.processing_refs)
                            * len(self.partitioner_names))
        return quality_slots + processing_slots


def build_plan(quality_graphs: Sequence[Graph],
               processing_graphs: Sequence[Graph],
               partitioner_names: Sequence[str],
               partition_counts: Sequence[int],
               processing_k: int,
               algorithm_names: Sequence[str],
               cluster: Optional[ClusterSpec],
               time_mode: str,
               exact_triangles: bool,
               seed: int) -> ProfilePlan:
    """Enumerate the profiling grid over the two corpora as a plan."""
    graphs: Dict[str, Graph] = {}

    def refs_of(corpus: Sequence[Graph]) -> List[GraphRef]:
        refs = []
        for graph in corpus:
            fingerprint = graph_fingerprint(graph)
            graphs.setdefault(fingerprint, graph)
            refs.append(GraphRef(graph.name, graph.graph_type, fingerprint))
        return refs

    return ProfilePlan(
        quality_refs=refs_of(list(quality_graphs)),
        processing_refs=refs_of(list(processing_graphs)),
        graphs=graphs,
        partitioner_names=tuple(partitioner_names),
        partition_counts=tuple(partition_counts),
        processing_k=processing_k,
        algorithm_names=tuple(algorithm_names),
        cluster=cluster,
        time_mode=time_mode,
        exact_triangles=exact_triangles,
        seed=seed)

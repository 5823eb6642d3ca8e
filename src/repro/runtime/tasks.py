"""Fine-grained profiling tasks: the nodes of the scheduler's DAG.

A task is the only record of a profiling-grid cell and its ``task_id`` the
only spelling of the cell's key.  Each ``(graph, partitioner, k)`` unit of
a :class:`~repro.runtime.jobs.ProfilePlan` is a small dependency graph::

    PartitionTask ──> QualityTask
                 ├──> PartitionTimeTask
                 └──> ProcessingTask (one per workload)

plus one independent :class:`PropertiesTask` per distinct graph content.
Tasks are frozen, picklable dataclasses; their ``task_id`` doubles as the
checkpoint key and — where the task produces exactly one artifact — as the
content-addressed :class:`~repro.runtime.artifacts.ArtifactStore` key.  Ids
are rooted at the *content* fingerprint of the graph, so two corpus entries
with identical edge arrays share every artifact, and the quality and
processing phases share partitions instead of re-partitioning.  The one
exception is the partitioning *run-time*, whose simulated jitter depends on
the graph name (see :mod:`repro.ease.partitioning_cost`); its store key
carries the graph name as well.  Existing cache directories and checkpoints
hold these tuples, so their layout must not change.

``dependencies`` orders execution; ``input_dependencies`` is the subset whose
*payload* the task actually consumes (the partition assignment).  The
distinction matters for dispatch cost: a :class:`PartitionTimeTask` is
sequenced after its partition (wall-clock measurements should not contend
with the partitioner run) but never ships the assignment across a process
boundary.

A task's one artifact lookup is its ``restore``, called by the scheduler's
pre-pass; ``execute`` runs only when that missed, computes, ``put``s and
returns the bare payload.  Execution happens through :func:`execute_task`,
the single entry point every backend uses — inline, in a pool worker, or in
an external ``repro worker`` process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..graph import Graph, GraphProperties, properties_artifact_key
from ..processing import ClusterSpec
from .artifacts import ArtifactStore

__all__ = [
    "TaskId",
    "LAZY_RESTORE",
    "PropertiesTask",
    "PartitionTask",
    "QualityTask",
    "PartitionTimeTask",
    "ProcessingTask",
    "FusedTask",
    "execute_task",
]

#: Tasks are identified by flat tuples of primitives (hashable, picklable,
#: stable across processes and sessions).
TaskId = Tuple[Any, ...]

#: Marker payload of a store-satisfied (or released) partition whose
#: assignment is loaded from the artifact store only when a consumer needs
#: it.  Compared by identity in the scheduler.
LAZY_RESTORE = "lazy-restore"


class _UnitTask:
    """What the four tasks of one ``(graph, partitioner, k)`` unit share.

    Subclasses are dataclasses with ``graph_fingerprint``, ``partitioner``,
    ``num_partitions`` and ``seed`` fields.
    """

    @property
    def unit_key(self) -> Tuple[str, str, int]:
        """The unit unit-granular dispatch fuses this task into."""
        return (self.graph_fingerprint, self.partitioner,
                self.num_partitions)

    @property
    def partition_task_id(self) -> TaskId:
        return ("partition", self.graph_fingerprint, self.partitioner,
                self.num_partitions, self.seed)

    def _resolve_partition(self, graph: Graph, store: ArtifactStore,
                           inputs: Dict[TaskId, Any]):
        """Materialise the :class:`EdgePartition` a dependent task consumes.

        The assignment arrives either in ``inputs`` (shipped by the
        scheduler from the producing task's payload) or from the artifact
        store (lazy load when the partition was cache-satisfied).
        """
        from ..partitioning import EdgePartition

        assignment = inputs.get(self.partition_task_id)
        if assignment is None:
            assignment = store.get(self.partition_task_id)
            if assignment is None:
                raise RuntimeError("partition artifact missing for task "
                                   f"{self.partition_task_id!r}")
        return EdgePartition(graph, self.num_partitions, assignment,
                             self.partitioner)


@dataclass(frozen=True)
class PropertiesTask:
    """Compute the :class:`GraphProperties` of one graph content.

    ``mode="approximate"`` runs the bounded sketch estimators under
    ``wedge_budget``; its ``task_id`` (and hence artifact key) carries the
    mode and budget so approximate results never shadow exact ones.  Exact
    tasks keep the legacy four-element id, preserving warm caches.
    """

    graph_fingerprint: str
    exact_triangles: bool
    seed: int
    mode: str = "exact"
    wedge_budget: Optional[int] = None

    @property
    def task_id(self) -> TaskId:
        return properties_artifact_key(self.graph_fingerprint,
                                       self.exact_triangles, self.seed,
                                       self.mode, self.wedge_budget)

    @property
    def dependencies(self) -> Tuple[TaskId, ...]:
        return ()

    #: Not part of any ``(graph, partitioner, k)`` unit.
    unit_key = None
    input_dependencies = ()
    checkpointable = True

    def restore(self, store: ArtifactStore) -> Optional[GraphProperties]:
        return store.get(self.task_id)

    def execute(self, graph: Graph, store: ArtifactStore,
                inputs: Dict[TaskId, Any]) -> GraphProperties:
        from ..graph import compute_properties

        return store.put(self.task_id, compute_properties(
            graph, exact_triangles=self.exact_triangles, seed=self.seed,
            mode=self.mode, wedge_budget=self.wedge_budget))


@dataclass(frozen=True)
class PartitionTask(_UnitTask):
    """Produce the edge assignment of one ``(graph, partitioner, k)``.

    The payload (the |E|-sized assignment array) is the input of every
    dependent task; the scheduler releases it as soon as the last dependent
    has consumed it, keeping peak memory at "partitions in flight" rather
    than "whole grid".  Assignments are therefore never checkpointed — a
    resumed run either finds them in the disk cache or recomputes them.
    """

    graph_fingerprint: str
    partitioner: str
    num_partitions: int
    seed: int

    @property
    def task_id(self) -> TaskId:
        return self.partition_task_id

    @property
    def dependencies(self) -> Tuple[TaskId, ...]:
        return ()

    input_dependencies = ()
    checkpointable = False

    def restore(self, store: ArtifactStore) -> Optional[str]:
        # The assignment may be large; defer the actual load until a
        # dependent asks for it (the scheduler resolves the marker through
        # the store).  ``verify`` fully loads the pickle once so a torn or
        # truncated cached assignment is deleted and recomputed here, in
        # the pre-pass, instead of blowing up mid-run when a consumer
        # resolves the lazy marker.
        return LAZY_RESTORE if store.verify(self.task_id) else None

    def execute(self, graph: Graph, store: ArtifactStore,
                inputs: Dict[TaskId, Any]) -> np.ndarray:
        from ..partitioning import create_partitioner

        partitioner = create_partitioner(self.partitioner, seed=self.seed)
        partition = partitioner(graph, self.num_partitions)
        return store.put(self.task_id, partition.assignment)


@dataclass(frozen=True)
class QualityTask(_UnitTask):
    """Quality metrics of one partitioned graph (consumes the partition)."""

    graph_fingerprint: str
    partitioner: str
    num_partitions: int
    seed: int

    @property
    def task_id(self) -> TaskId:
        return ("quality", self.graph_fingerprint, self.partitioner,
                self.num_partitions, self.seed)

    @property
    def dependencies(self) -> Tuple[TaskId, ...]:
        return (self.partition_task_id,)

    @property
    def input_dependencies(self) -> Tuple[TaskId, ...]:
        return (self.partition_task_id,)

    checkpointable = True

    def restore(self, store: ArtifactStore) -> Optional[Dict[str, float]]:
        return store.get(self.task_id)

    def execute(self, graph: Graph, store: ArtifactStore,
                inputs: Dict[TaskId, Any]) -> Dict[str, float]:
        from ..partitioning import compute_quality_metrics

        partition = self._resolve_partition(graph, store, inputs)
        return store.put(self.task_id,
                         compute_quality_metrics(partition).as_dict())


@dataclass(frozen=True)
class PartitionTimeTask(_UnitTask):
    """Partitioning run-time samples of one combination.

    ``timing_names`` lists the corpus-entry names needing a sample (the
    simulated cost model jitters per graph *name*).  In ``wall_clock`` mode
    each name is measured ``repeats`` times and the payload records mean,
    standard deviation and sample count; model mode is deterministic, so it
    always reports one exact sample.  Wall-clock samples are never stored in
    the artifact cache (re-measuring is the point of that mode) but *are*
    checkpointed, so an interrupted wall-clock campaign resumes without
    repeating completed measurements.
    """

    graph_fingerprint: str
    partitioner: str
    num_partitions: int
    seed: int
    time_mode: str
    timing_names: Tuple[str, ...]
    repeats: int = 1

    @property
    def task_id(self) -> TaskId:
        return ("partitioning_time_task", self.graph_fingerprint,
                self.partitioner, self.num_partitions, self.seed,
                self.time_mode, self.timing_names, self.repeats)

    @property
    def dependencies(self) -> Tuple[TaskId, ...]:
        # Sequenced after the partition so wall-clock measurements never
        # contend with the "real" partitioner run of the same combination,
        # but the assignment itself is not consumed (input_dependencies).
        return (self.partition_task_id,)

    input_dependencies = ()
    checkpointable = True

    def _store_key(self, graph_name: str) -> TaskId:
        return ("partitioning_time", self.graph_fingerprint, graph_name,
                self.partitioner, self.num_partitions, self.seed,
                self.time_mode)

    def restore(self, store: ArtifactStore
                ) -> Optional[Dict[str, Dict[str, float]]]:
        if self.time_mode != "model":
            return None
        payload = {}
        for name in self.timing_names:
            seconds = store.get(self._store_key(name))
            if seconds is None:
                return None
            payload[name] = {"seconds": seconds, "seconds_std": 0.0,
                             "repeats": 1}
        return payload

    def execute(self, graph: Graph, store: ArtifactStore,
                inputs: Dict[TaskId, Any]) -> Dict[str, Dict[str, float]]:
        return {name: self._measure(graph, name, store)
                for name in self.timing_names}

    def _measure(self, graph: Graph, graph_name: str,
                 store: ArtifactStore) -> Dict[str, float]:
        from ..ease.partitioning_cost import (
            PartitioningCostModel,
            measure_wall_clock_partitioning_time,
        )

        if self.time_mode == "wall_clock":
            samples = np.array([
                measure_wall_clock_partitioning_time(
                    graph, self.partitioner, self.num_partitions,
                    seed=self.seed)
                for _ in range(max(self.repeats, 1))])
            return {"seconds": float(samples.mean()),
                    "seconds_std": float(samples.std()),
                    "repeats": int(samples.size)}
        # The simulated run-time jitters deterministically per graph *name*;
        # evaluate the cost model under the name of the corpus entry that
        # asked, not of the representative graph object.
        seconds = store.put(self._store_key(graph_name),
                            PartitioningCostModel().estimate_seconds(
                                graph, self.partitioner, self.num_partitions,
                                graph_name=graph_name))
        return {"seconds": seconds, "seconds_std": 0.0, "repeats": 1}


@dataclass(frozen=True)
class ProcessingTask(_UnitTask):
    """One workload execution on one partitioned graph in the simulator."""

    graph_fingerprint: str
    partitioner: str
    num_partitions: int
    algorithm: str
    seed: int
    cluster: Optional[ClusterSpec]

    @property
    def task_id(self) -> TaskId:
        cluster = self.cluster
        signature = None if cluster is None else (
            cluster.num_machines, cluster.edge_compute_cost,
            cluster.vertex_compute_cost, cluster.network_bandwidth,
            cluster.network_latency)
        return ("processing", self.graph_fingerprint, self.partitioner,
                self.num_partitions, self.algorithm, self.seed, signature)

    @property
    def dependencies(self) -> Tuple[TaskId, ...]:
        return (self.partition_task_id,)

    @property
    def input_dependencies(self) -> Tuple[TaskId, ...]:
        return (self.partition_task_id,)

    checkpointable = True

    def restore(self, store: ArtifactStore) -> Optional[Dict[str, Any]]:
        return store.get(self.task_id)

    def execute(self, graph: Graph, store: ArtifactStore,
                inputs: Dict[TaskId, Any]) -> Dict[str, Any]:
        from ..processing import ProcessingEngine, create_algorithm

        partition = self._resolve_partition(graph, store, inputs)
        engine = ProcessingEngine(self.cluster)
        algorithm = create_algorithm(self.algorithm, seed=self.seed)
        outcome = engine.run(partition, algorithm)
        return store.put(self.task_id, {
            "total_seconds": outcome.total_seconds,
            "num_supersteps": outcome.num_supersteps,
            "average_iteration_seconds": outcome.average_iteration_seconds,
        })


@dataclass(frozen=True)
class FusedTask:
    """Several tasks of one work unit dispatched as a single envelope.

    This is the ``granularity="unit"`` compatibility mode: the member tasks
    execute sequentially in one worker, intermediate payloads (the partition
    assignment) flow locally instead of through the scheduler, and the
    result maps each member's ``task_id`` to its payload.  It reproduces the
    PR 1 unit-granular dispatch — the baseline the intra-unit speedup
    benchmark compares against — and remains useful when per-task IPC would
    dominate (many tiny graphs).
    """

    tasks: Tuple[Any, ...]

    @property
    def graph_fingerprint(self) -> str:
        return self.tasks[0].graph_fingerprint

    @property
    def task_id(self) -> TaskId:
        return ("fused",) + tuple(task.task_id for task in self.tasks)

    @property
    def member_ids(self) -> Tuple[TaskId, ...]:
        return tuple(task.task_id for task in self.tasks)

    @property
    def dependencies(self) -> Tuple[TaskId, ...]:
        members = set(self.member_ids)
        seen, external = set(), []
        for task in self.tasks:
            for dep in task.dependencies:
                if dep not in members and dep not in seen:
                    seen.add(dep)
                    external.append(dep)
        return tuple(external)

    @property
    def input_dependencies(self) -> Tuple[TaskId, ...]:
        members = set(self.member_ids)
        seen, external = set(), []
        for task in self.tasks:
            for dep in task.input_dependencies:
                if dep not in members and dep not in seen:
                    seen.add(dep)
                    external.append(dep)
        return tuple(external)

    checkpointable = False

    def restore(self, store: ArtifactStore) -> None:
        return None

    def execute(self, graph: Graph, store: ArtifactStore,
                inputs: Dict[TaskId, Any]) -> Dict[TaskId, Any]:
        local: Dict[TaskId, Any] = dict(inputs)
        payloads: Dict[TaskId, Any] = {}
        for task in self.tasks:
            sub_inputs = {dep: local[dep]
                          for dep in task.input_dependencies if dep in local}
            payload = task.execute(graph, store, sub_inputs)
            local[task.task_id] = payload
            payloads[task.task_id] = payload
        return payloads


def execute_task(task, graph: Graph, store: ArtifactStore,
                 inputs: Optional[Dict[TaskId, Any]] = None,
                 trace: Optional[Dict[str, str]] = None):
    """Execute one task (or fused group): the entry point of every backend.

    ``trace`` is an optional envelope-borne tracing context
    (:func:`repro.obs.envelope_context`); with one, the execution is
    wrapped in a worker-side span parented to the driver's dispatch span,
    so a stitched ``repro trace show`` covers driver and workers alike.
    """
    from ..faults import fire

    task_id = getattr(task, "task_id", None)
    fire("worker.execute", key=repr(task_id))
    if trace is None:
        return task.execute(graph, store, inputs or {})
    from ..obs import task_span

    with task_span(trace, "task.execute",
                   attrs={"task_id": repr(task_id),
                          "kind": task_id[0] if task_id else None,
                          "graph": graph.name}):
        return task.execute(graph, store, inputs or {})

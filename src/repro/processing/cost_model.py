"""Analytic cost model of the distributed processing simulator.

The cost model converts the per-superstep activity of an algorithm into
simulated seconds on a :class:`~repro.processing.cluster.ClusterSpec`.  It is
the substitution for the paper's Spark/GraphX measurements (Section V;
see docs/ARCHITECTURE.md) and
is deliberately built so that the two causal relationships demonstrated in
Section III of the paper hold:

* **Replication factor → communication time.**  After every superstep, each
  vertex whose value changed must synchronise its replicas; the traffic is
  proportional to the number of replicas of updated vertices, i.e. to the
  replication factor of the partitioning.  Communication-bound algorithms
  (PageRank, Synthetic-High) therefore benefit from low-RF partitioners.
* **Vertex/edge balance → straggler time.**  Per-superstep compute time is the
  *maximum* over machines of their local work, so imbalanced partitionings
  slow down computation-bound algorithms (Label Propagation) even when their
  replication factor is low.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..partitioning import EdgePartition
from .cluster import ClusterSpec

__all__ = ["PartitionedGraphCostModel"]


class PartitionedGraphCostModel:
    """Charges simulated time for supersteps over a partitioned graph.

    Parameters
    ----------
    partition:
        The edge partitioning being executed.
    cluster:
        The simulated cluster; partitions are mapped to machines round-robin.
    """

    def __init__(self, partition: EdgePartition, cluster: ClusterSpec) -> None:
        self.partition = partition
        self.cluster = cluster
        graph = partition.graph
        k = partition.num_partitions

        self._machine_of_partition = np.array(
            [cluster.machine_of_partition(p) for p in range(k)], dtype=np.int64)
        self._machine_of_edge = self._machine_of_partition[partition.assignment]

        # covered[p, v] is True when partition p holds at least one edge
        # incident to v: the partition's own coverage (k x |V| booleans),
        # folded onto machines below so the per-superstep charges are pure
        # numpy reductions.
        src, dst = partition.coverage()
        covered = src | dst

        # Machine-level coverage counts per vertex (how many replicas of v
        # live on each machine).
        num_machines = cluster.num_machines
        machine_replicas = np.zeros((num_machines, graph.num_vertices),
                                    dtype=np.int64)
        for p in range(k):
            machine_replicas[self._machine_of_partition[p]] += covered[p]
        self._machine_replicas = machine_replicas

        #: Replica count per vertex (0 for isolated vertices).
        self.replica_counts = covered.sum(axis=0)

    # ------------------------------------------------------------------ #
    def superstep_cost(self, active_vertices: np.ndarray,
                       updated_vertices: np.ndarray, edge_work: float,
                       vertex_work: float,
                       message_size: float) -> Tuple[float, float, int]:
        """Cost of one superstep.

        Parameters
        ----------
        active_vertices:
            Boolean mask of vertices executing their vertex program this
            superstep (their outgoing edges are scanned).
        updated_vertices:
            Boolean mask of vertices whose value changed and must be
            synchronised to their replicas before the next superstep.
        edge_work, vertex_work:
            Algorithm-specific weights multiplying the per-edge and per-vertex
            compute costs of the cluster.
        message_size:
            Number of 64-bit values shipped per replica synchronisation.

        Returns
        -------
        (compute_seconds, communication_seconds, active_edges)
        """
        graph = self.partition.graph
        cluster = self.cluster
        num_machines = cluster.num_machines

        active_vertices = np.asarray(active_vertices, dtype=bool)
        updated_vertices = np.asarray(updated_vertices, dtype=bool)

        # --- computation: max over machines of local work ----------------- #
        active_edge_mask = active_vertices[graph.src]
        if active_edge_mask.any():
            edges_per_machine = np.bincount(
                self._machine_of_edge[active_edge_mask],
                minlength=num_machines)
        else:
            edges_per_machine = np.zeros(num_machines, dtype=np.int64)

        # A vertex program runs once per replica of an active vertex (mirrors
        # execute the same program on their local edges in GraphX).
        if active_vertices.any():
            vertices_per_machine = self._machine_replicas[:, active_vertices].sum(axis=1)
        else:
            vertices_per_machine = np.zeros(num_machines, dtype=np.int64)

        per_machine_compute = (
            cluster.edge_compute_cost * edge_work * edges_per_machine
            + cluster.vertex_compute_cost * vertex_work * vertices_per_machine)
        compute_seconds = float(per_machine_compute.max(initial=0.0))

        # --- communication: replica synchronisation ----------------------- #
        # Every replica of an updated vertex (other than the master replica
        # that produced the update) receives one message of ``message_size``
        # values.  The messages are spread across the machines' links, so the
        # transfer time is the aggregate traffic over the aggregate bandwidth;
        # a per-superstep latency models the synchronisation barrier.  Total
        # traffic is proportional to the replication factor of the
        # partitioning, which is exactly the dependency Section III of the
        # paper demonstrates for communication-bound workloads.
        if updated_vertices.any():
            replicas_of_updated = self.replica_counts[updated_vertices]
            messages = float(np.maximum(replicas_of_updated - 1, 0).sum())
            communication_seconds = (
                messages * message_size
                / (cluster.network_bandwidth * num_machines)
                + cluster.network_latency)
        else:
            communication_seconds = cluster.network_latency

        return compute_seconds, communication_seconds, int(active_edge_mask.sum())

"""Execution engine of the distributed graph processing simulator.

The engine runs a vertex-centric algorithm superstep by superstep, charging
each superstep's simulated compute and communication time through the
:class:`~repro.processing.cost_model.PartitionedGraphCostModel`.  It is the
stand-in for the Spark/GraphX clusters of the paper's evaluation (Section V);
``docs/ARCHITECTURE.md`` describes where the simulator sits in the pipeline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..partitioning import EdgePartition
from .algorithms.base import VertexCentricAlgorithm
from .cluster import ClusterSpec
from .cost_model import PartitionedGraphCostModel
from .result import ProcessingResult, SuperstepCost

__all__ = ["ProcessingEngine"]


class ProcessingEngine:
    """Simulated distributed graph processing engine.

    Parameters
    ----------
    cluster:
        The simulated cluster specification.  By default the number of
        machines equals the number of partitions of whatever partitioning is
        executed (the setting used in all of the paper's experiments); pass an
        explicit :class:`ClusterSpec` to decouple them.
    """

    def __init__(self, cluster: Optional[ClusterSpec] = None) -> None:
        self.cluster = cluster

    def _resolve_cluster(self, partition: EdgePartition) -> ClusterSpec:
        if self.cluster is not None:
            return self.cluster
        return ClusterSpec(num_machines=partition.num_partitions)

    # ------------------------------------------------------------------ #
    def run(self, partition: EdgePartition,
            algorithm: VertexCentricAlgorithm,
            max_supersteps: Optional[int] = None) -> ProcessingResult:
        """Execute ``algorithm`` over ``partition`` and return the result.

        ``max_supersteps`` overrides the algorithm's iteration count (for
        fixed-iteration algorithms) or its safety bound (for convergence
        algorithms); 0 runs no superstep.
        """
        if max_supersteps is not None and max_supersteps < 0:
            raise ValueError("max_supersteps must be >= 0")
        graph = partition.graph
        cluster = self._resolve_cluster(partition)
        cost_model = PartitionedGraphCostModel(partition, cluster)

        state = algorithm.initial_state(graph)
        active = algorithm.initial_active(graph)
        limit = (algorithm.num_iterations if max_supersteps is None
                 else max_supersteps)

        costs = []
        total_seconds = 0.0
        converged = not algorithm.runs_until_convergence
        supersteps_run = 0

        for superstep in range(limit):
            if algorithm.runs_until_convergence and not active.any():
                converged = True
                break
            outcome = algorithm.superstep(graph, state, active)
            compute, communication, active_edges = cost_model.superstep_cost(
                active_vertices=active,
                updated_vertices=outcome.updated,
                edge_work=algorithm.edge_work,
                vertex_work=algorithm.vertex_work,
                message_size=algorithm.message_size,
            )
            costs.append(SuperstepCost(
                superstep=superstep,
                compute_seconds=compute,
                communication_seconds=communication,
                active_vertices=int(np.count_nonzero(active)),
                updated_vertices=int(np.count_nonzero(outcome.updated)),
                active_edges=active_edges,
            ))
            total_seconds += compute + communication
            state = outcome.state
            active = outcome.next_active
            supersteps_run += 1
        else:
            # Loop ran to the limit without breaking.
            if algorithm.runs_until_convergence:
                converged = not active.any()

        average_iteration = (total_seconds / supersteps_run
                             if supersteps_run else 0.0)
        return ProcessingResult(
            algorithm=algorithm.name,
            graph_name=graph.name,
            partitioner_name=partition.partitioner_name,
            num_partitions=partition.num_partitions,
            num_supersteps=supersteps_run,
            total_seconds=total_seconds,
            average_iteration_seconds=average_iteration,
            superstep_costs=costs,
            vertex_state=state,
            converged=converged,
        )

"""Evaluation utilities: per-type error matrices (Figure 7) and the
selection-strategy comparison (Table VIII / Figure 9).

The strategy comparison replays the paper's protocol: for every (graph,
algorithm) job in an evaluation profile, the *true* (measured) partitioning
and processing times of all candidate partitioners are known; each selection
strategy picks one partitioner per job, and the strategies are compared by the
time their picks cost relative to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import GraphProperties
from ..ml import mape
from ..partitioning import QUALITY_METRIC_NAMES
from ..processing.algorithms import (
    AVERAGE_ITERATION_ALGORITHMS,
    DEFAULT_NUM_ITERATIONS,
)
from .dataset import ProfileDataset, QualityRecord
from .quality_predictor import PartitioningQualityPredictor
from .selector import OptimizationGoal, PartitionerSelector, SelectionRequest

__all__ = [
    "per_type_mape_matrix",
    "JobOutcome",
    "StrategyComparison",
    "SelectionStrategyEvaluator",
]


# --------------------------------------------------------------------------- #
# Figure 7: per-(graph type, partitioner) MAPE matrices
# --------------------------------------------------------------------------- #
def per_type_mape_matrix(predictor: PartitioningQualityPredictor,
                         records: Sequence[QualityRecord],
                         metric: str = "replication_factor"
                         ) -> Dict[Tuple[str, str], float]:
    """MAPE of ``metric`` predictions grouped by (graph type, partitioner).

    This is the data behind the heat maps of Figure 7.
    """
    groups: Dict[Tuple[str, str], List[QualityRecord]] = {}
    for record in records:
        groups.setdefault((record.graph_type, record.partitioner), []).append(record)
    matrix = {}
    for (graph_type, partitioner), group in sorted(groups.items()):
        predictions = predictor.predict_metric(
            metric,
            [r.properties for r in group],
            [r.partitioner for r in group],
            [r.num_partitions for r in group])
        truth = np.array([r.metrics[metric] for r in group])
        matrix[(graph_type, partitioner)] = mape(truth, predictions)
    return matrix


# --------------------------------------------------------------------------- #
# Table VIII: selection strategies
# --------------------------------------------------------------------------- #
@dataclass
class JobOutcome:
    """True costs of one (graph, algorithm) job for every partitioner, and
    the graph properties the selector predicts the job from."""

    graph_name: str
    graph_type: str
    algorithm: str
    num_partitions: int
    processing_seconds: Dict[str, float]
    partitioning_seconds: Dict[str, float]
    replication_factor: Dict[str, float]
    properties: Optional[GraphProperties] = None

    def end_to_end_seconds(self, partitioner: str) -> float:
        return (self.processing_seconds[partitioner]
                + self.partitioning_seconds[partitioner])

    def cost(self, partitioner: str, goal: str) -> float:
        if goal == OptimizationGoal.PROCESSING:
            return self.processing_seconds[partitioner]
        return self.end_to_end_seconds(partitioner)


@dataclass
class StrategyComparison:
    """Aggregated comparison of selection strategies for one algorithm/goal."""

    algorithm: str
    goal: str
    num_jobs: int
    strategy_seconds: Dict[str, float]
    optimal_pick_fraction: Dict[str, float]

    def relative_to(self, strategy: str, baseline: str) -> float:
        """Average time of ``strategy`` as a fraction of ``baseline``."""
        return self.strategy_seconds[strategy] / self.strategy_seconds[baseline]


class SelectionStrategyEvaluator:
    """Compares EASE's selector against the paper's baseline strategies.

    Strategies:

    * ``SPS`` — the paper's PartitionerSelector (our trained selector),
    * ``SO``  — oracle/optimal pick (lowest true cost),
    * ``SSRF`` — the partitioner with the smallest true replication factor,
    * ``SR``  — random selection (expected cost = mean over partitioners),
    * ``SW``  — worst pick (highest true cost).
    """

    def __init__(self, selector: PartitionerSelector,
                 num_iterations: int = DEFAULT_NUM_ITERATIONS) -> None:
        self.selector = selector
        self.num_iterations = num_iterations

    # ------------------------------------------------------------------ #
    def build_jobs(self, evaluation: ProfileDataset) -> List[JobOutcome]:
        """Assemble per-job true costs from an evaluation profile."""
        partitioning_lookup = {
            (record.graph_name, record.partitioner, record.num_partitions):
                record.seconds
            for record in evaluation.partitioning_time}
        quality_lookup = {
            (record.graph_name, record.partitioner, record.num_partitions):
                record.metrics
            for record in evaluation.quality}

        jobs: Dict[Tuple[str, str, int], JobOutcome] = {}
        for record in evaluation.processing:
            key = (record.graph_name, record.algorithm, record.num_partitions)
            if key not in jobs:
                jobs[key] = JobOutcome(
                    graph_name=record.graph_name, graph_type=record.graph_type,
                    algorithm=record.algorithm,
                    num_partitions=record.num_partitions,
                    processing_seconds={}, partitioning_seconds={},
                    replication_factor={}, properties=record.properties)
            job = jobs[key]
            total = record.target_seconds
            if record.algorithm in AVERAGE_ITERATION_ALGORITHMS:
                total = record.target_seconds * self.num_iterations
            job.processing_seconds[record.partitioner] = total
            lookup_key = (record.graph_name, record.partitioner,
                          record.num_partitions)
            job.partitioning_seconds[record.partitioner] = partitioning_lookup.get(
                lookup_key, 0.0)
            job.replication_factor[record.partitioner] = quality_lookup.get(
                lookup_key, record.metrics)["replication_factor"]
        return list(jobs.values())

    # ------------------------------------------------------------------ #
    def _strategy_picks(self, job: JobOutcome, goal: str,
                        ease_pick: str) -> Dict[str, float]:
        """True cost incurred by each strategy's pick on one job, given the
        partitioner EASE's selector picked for it."""
        partitioners = sorted(job.processing_seconds)
        costs = {p: job.cost(p, goal) for p in partitioners}
        if ease_pick not in costs:
            ease_pick = partitioners[0]

        smallest_rf_pick = min(partitioners,
                               key=lambda p: job.replication_factor[p])
        return {
            "SPS": costs[ease_pick],
            "SO": min(costs.values()),
            "SSRF": costs[smallest_rf_pick],
            "SR": float(np.mean(list(costs.values()))),
            "SW": max(costs.values()),
        }

    def compare(self, evaluation: ProfileDataset,
                goals: Sequence[str] = (OptimizationGoal.END_TO_END,
                                        OptimizationGoal.PROCESSING),
                algorithms: Optional[Sequence[str]] = None
                ) -> List[StrategyComparison]:
        """Run the full Table VIII comparison.

        Returns one :class:`StrategyComparison` per (algorithm, goal).  EASE
        picks for every job of a goal in one selector pass.
        """
        jobs = self.build_jobs(evaluation)
        if algorithms is not None:
            allowed = set(algorithms)
            jobs = [job for job in jobs if job.algorithm in allowed]
        comparisons = []
        by_algorithm: Dict[str, List[JobOutcome]] = {}
        for job in jobs:
            by_algorithm.setdefault(job.algorithm, []).append(job)
        groups = sorted(by_algorithm.items())

        for goal in goals:
            selections = iter(self.selector.select_batch([
                SelectionRequest(
                    graph=job.properties, algorithm=job.algorithm,
                    num_partitions=job.num_partitions, goal=goal,
                    num_iterations=self.num_iterations)
                for _, algorithm_jobs in groups for job in algorithm_jobs]))
            for algorithm, algorithm_jobs in groups:
                totals = {name: 0.0 for name in ("SPS", "SO", "SSRF", "SR", "SW")}
                optimal_picks = {name: 0 for name in totals}
                for job in algorithm_jobs:
                    picks = self._strategy_picks(
                        job, goal, next(selections).selected)
                    optimum = picks["SO"]
                    for name, cost in picks.items():
                        totals[name] += cost
                        if np.isclose(cost, optimum):
                            optimal_picks[name] += 1
                num_jobs = len(algorithm_jobs)
                comparisons.append(StrategyComparison(
                    algorithm=algorithm, goal=goal, num_jobs=num_jobs,
                    strategy_seconds={name: total / num_jobs
                                      for name, total in totals.items()},
                    optimal_pick_fraction={name: count / num_jobs
                                           for name, count in optimal_picks.items()},
                ))
        return comparisons

"""PartitionerSelector: the automatic partitioner selection of EASE.

Given the three trained predictors, the selector scores every candidate
partitioner for a (graph, algorithm, k) job and returns the one minimising the
chosen objective: graph processing time only, or end-to-end time (partitioning
plus processing) — the two optimisation goals of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..graph import Graph, GraphProperties, compute_properties_batch
from ..partitioning import ALL_PARTITIONER_NAMES
from .partitioning_time_predictor import PartitioningTimePredictor
from .processing_time_predictor import ProcessingTimePredictor
from .quality_predictor import PartitioningQualityPredictor

__all__ = ["OptimizationGoal", "PartitionerScore", "SelectionResult",
           "SelectionRequest", "PartitionerSelector", "request_properties"]


class OptimizationGoal:
    """The two optimisation goals supported by EASE."""

    END_TO_END = "end_to_end"
    PROCESSING = "processing"

    _ALL = (END_TO_END, PROCESSING)

    @classmethod
    def validate(cls, goal: str) -> str:
        if goal not in cls._ALL:
            raise ValueError(f"unknown optimisation goal {goal!r}; expected "
                             f"one of {cls._ALL}")
        return goal


@dataclass
class PartitionerScore:
    """Predicted costs of one candidate partitioner."""

    partitioner: str
    predicted_partitioning_seconds: float
    predicted_processing_seconds: float
    predicted_quality: Dict[str, float]

    @property
    def predicted_end_to_end_seconds(self) -> float:
        return (self.predicted_partitioning_seconds
                + self.predicted_processing_seconds)

    def objective(self, goal: str) -> float:
        if goal == OptimizationGoal.PROCESSING:
            return self.predicted_processing_seconds
        return self.predicted_end_to_end_seconds


@dataclass
class SelectionResult:
    """Outcome of a selection: the winner plus the full per-candidate scores."""

    selected: str
    goal: str
    algorithm: str
    num_partitions: int
    scores: List[PartitionerScore] = field(default_factory=list)

    def ranking(self) -> List[PartitionerScore]:
        """Candidates sorted from best to worst under the selection goal."""
        return sorted(self.scores, key=lambda score: score.objective(self.goal))

    def score_of(self, partitioner: str) -> PartitionerScore:
        for score in self.scores:
            if score.partitioner == partitioner:
                return score
        raise KeyError(partitioner)


@dataclass
class SelectionRequest:
    """One selection (or prediction) job for the batched selector path.

    ``graph`` may be a full :class:`Graph` or precomputed
    :class:`GraphProperties` — the cheap path a serving caller uses.
    """

    graph: Union[Graph, GraphProperties]
    algorithm: str
    num_partitions: int
    goal: str = OptimizationGoal.END_TO_END
    num_iterations: Optional[int] = None


def request_properties(graphs: Sequence[Union[Graph, GraphProperties]]
                       ) -> List[GraphProperties]:
    """The properties a selection is predicted from, one per request graph.

    Precomputed :class:`GraphProperties` pass through unchanged.  Raw graphs
    run through one :func:`repro.graph.compute_properties_batch` call with
    sampled triangle counts, so equal-content graphs are computed once.
    """
    raw = [graph for graph in graphs if not isinstance(graph, GraphProperties)]
    if not raw:
        return list(graphs)
    computed = iter(compute_properties_batch(raw, exact_triangles=False))
    return [graph if isinstance(graph, GraphProperties) else next(computed)
            for graph in graphs]


class PartitionerSelector:
    """Automatic partitioner selection from the three EASE predictors.

    Parameters
    ----------
    quality_predictor, partitioning_time_predictor, processing_time_predictor:
        Trained predictors.
    partitioner_names:
        Candidate partitioners (default: the paper's eleven).
    """

    def __init__(self, quality_predictor: PartitioningQualityPredictor,
                 partitioning_time_predictor: PartitioningTimePredictor,
                 processing_time_predictor: ProcessingTimePredictor,
                 partitioner_names: Sequence[str] = ALL_PARTITIONER_NAMES) -> None:
        self.quality_predictor = quality_predictor
        self.partitioning_time_predictor = partitioning_time_predictor
        self.processing_time_predictor = processing_time_predictor
        self.partitioner_names = list(partitioner_names)

    # ------------------------------------------------------------------ #
    def score_partitioners_batch(self, requests: Sequence[SelectionRequest]
                                 ) -> List[List[PartitionerScore]]:
        """Predict costs of every candidate for a batch of requests.

        The (requests x candidates) grid is flattened into one feature matrix
        per predictor, so each underlying model is called once regardless of
        the batch size — the core of the serving micro-batcher.
        """
        if not requests:
            return []
        candidates = self.partitioner_names
        properties = request_properties([request.graph for request in requests])
        flat_properties = [props for props in properties
                           for _ in candidates]
        flat_partitioners = list(candidates) * len(requests)
        flat_counts = [request.num_partitions for request in requests
                       for _ in candidates]
        flat_algorithms = [request.algorithm for request in requests
                           for _ in candidates]
        flat_iterations = [request.num_iterations for request in requests
                           for _ in candidates]
        quality_columns = self.quality_predictor.predict_metric_columns(
            flat_properties, flat_partitioners, flat_counts)
        metric_names = list(quality_columns)
        quality_dicts = [
            {name: float(quality_columns[name][row]) for name in metric_names}
            for row in range(len(flat_partitioners))]
        partitioning_seconds = self.partitioning_time_predictor.predict(
            flat_properties, flat_partitioners)
        processing_seconds = self.processing_time_predictor.predict_total_seconds_batch(
            flat_algorithms, flat_properties, flat_counts, quality_dicts,
            num_iterations=flat_iterations)
        scores = [PartitionerScore(
            partitioner=partitioner,
            predicted_partitioning_seconds=float(partitioning),
            predicted_processing_seconds=float(processing),
            predicted_quality=quality)
            for partitioner, partitioning, processing, quality in zip(
                flat_partitioners, partitioning_seconds, processing_seconds,
                quality_dicts)]
        width = len(candidates)
        return [scores[base:base + width]
                for base in range(0, len(scores), width)]

    def select_batch(self, requests: Sequence[SelectionRequest]
                     ) -> List[SelectionResult]:
        """Select partitioners for a batch of requests in one predictor pass."""
        for request in requests:
            OptimizationGoal.validate(request.goal)
        scores_per_request = self.score_partitioners_batch(requests)
        results = []
        for request, scores in zip(requests, scores_per_request):
            best = min(scores, key=lambda score: score.objective(request.goal))
            results.append(SelectionResult(
                selected=best.partitioner, goal=request.goal,
                algorithm=request.algorithm,
                num_partitions=request.num_partitions, scores=scores))
        return results

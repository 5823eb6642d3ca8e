"""Graph processing workloads of the paper's evaluation."""

from typing import Callable, Dict, Sequence

from .base import SuperstepOutcome, VertexCentricAlgorithm
from .pagerank import PageRank
from .label_propagation import LabelPropagation, most_frequent_neighbor_labels
from .connected_components import ConnectedComponents
from .sssp import SingleSourceShortestPaths
from .kcores import KCores
from .synthetic import SyntheticWorkload, SyntheticLow, SyntheticHigh

__all__ = [
    "SuperstepOutcome",
    "VertexCentricAlgorithm",
    "PageRank",
    "LabelPropagation",
    "most_frequent_neighbor_labels",
    "ConnectedComponents",
    "SingleSourceShortestPaths",
    "KCores",
    "SyntheticWorkload",
    "SyntheticLow",
    "SyntheticHigh",
    "ALGORITHM_FACTORIES",
    "ALL_ALGORITHM_NAMES",
    "AVERAGE_ITERATION_ALGORITHMS",
    "DEFAULT_NUM_ITERATIONS",
    "create_algorithm",
]

#: Factory per algorithm name (the six workloads of Section V-C).
ALGORITHM_FACTORIES: Dict[str, Callable[..., VertexCentricAlgorithm]] = {
    "pagerank": PageRank,
    "label_propagation": LabelPropagation,
    "connected_components": ConnectedComponents,
    "sssp": SingleSourceShortestPaths,
    "kcores": KCores,
    "synthetic_low": SyntheticLow,
    "synthetic_high": SyntheticHigh,
}

#: The six workloads used for the ProcessingTimePredictor evaluation
#: (Table V); Label Propagation additionally appears in the Section III
#: motivation experiment.
ALL_ALGORITHM_NAMES: Sequence[str] = (
    "pagerank", "connected_components", "sssp", "kcores",
    "synthetic_low", "synthetic_high",
)

#: Algorithms whose prediction target is the average iteration time (their
#: per-iteration load is constant and the iteration count is a parameter);
#: all others are predicted by their total time to convergence (Section V-C).
#: Profiling labels with this set and the predictor multiplies by it.
AVERAGE_ITERATION_ALGORITHMS = frozenset(
    name for name, algorithm in ALGORITHM_FACTORIES.items()
    if not algorithm.runs_until_convergence)

#: Iterations of an average-iteration job that names none: the paper's
#: PageRank profiling setting.  Prediction and strategy evaluation both
#: scale the average iteration time by it.
DEFAULT_NUM_ITERATIONS = 10


def create_algorithm(name: str, **kwargs) -> VertexCentricAlgorithm:
    """Instantiate a workload by name."""
    try:
        factory = ALGORITHM_FACTORIES[name]
    except KeyError as error:
        raise ValueError(
            f"unknown algorithm {name!r}; known algorithms: "
            f"{sorted(ALGORITHM_FACTORIES)}") from error
    return factory(**kwargs)

"""The EASE facade: train the three predictors and select partitioners.

This is the public entry point most users need:

>>> from repro.ease import EASE
>>> ease = EASE.train_from_graphs(training_graphs, processing_graphs)
>>> result = ease.select_partitioner(my_graph, algorithm="pagerank",
...                                  num_partitions=8, goal="end_to_end")
>>> result.selected
'hep100'
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from ..graph import Graph, GraphProperties
from ..partitioning import ALL_PARTITIONER_NAMES
from .dataset import ProfileDataset
from .partitioning_time_predictor import PartitioningTimePredictor
from .processing_time_predictor import ProcessingTimePredictor
from .quality_predictor import PartitioningQualityPredictor
from .selector import (
    OptimizationGoal,
    PartitionerSelector,
    SelectionRequest,
    SelectionResult,
)

if TYPE_CHECKING:
    from .profiling import GraphProfiler

__all__ = ["EASE"]


class EASE:
    """Edge pArtitioner SElection: the end-to-end system of the paper.

    The four components (Figure 4) are the quality predictor, the two
    run-time predictors and the partitioner selector built on top of them.

    Parameters
    ----------
    partitioner_names:
        Candidate partitioners the selector chooses between; ``None`` takes
        those the training dataset's quality records hold.  :meth:`train`
        refuses a name the dataset lacks.
    feature_set:
        Graph-property feature set of the quality predictor.
    replication_feature_set:
        Optional different feature set for the replication-factor model
        (``"advanced"`` enables the triangle/clustering features).
    random_state:
        Seed for all default models.
    """

    def __init__(self, partitioner_names: Optional[Sequence[str]] = None,
                 feature_set: str = "basic",
                 replication_feature_set: Optional[str] = None,
                 random_state: int = 0) -> None:
        self.partitioner_names = (None if partitioner_names is None
                                  else list(partitioner_names))
        self.quality_predictor = PartitioningQualityPredictor(
            feature_set=feature_set,
            replication_feature_set=replication_feature_set,
            random_state=random_state)
        self.partitioning_time_predictor = PartitioningTimePredictor(
            random_state=random_state)
        self.processing_time_predictor = ProcessingTimePredictor(
            random_state=random_state)
        self._selector: Optional[PartitionerSelector] = None

    # ------------------------------------------------------------------ #
    def train(self, dataset: ProfileDataset) -> "EASE":
        """Train all three predictors from a profiling dataset."""
        profiled = {record.partitioner for record in dataset.quality}
        if self.partitioner_names is None:
            self.partitioner_names = [name for name in ALL_PARTITIONER_NAMES
                                      if name in profiled]
        missing = [name for name in self.partitioner_names
                   if name not in profiled]
        if missing:
            raise ValueError(f"partitioners {missing} have no quality "
                             "records in the training dataset")
        if dataset.quality:
            self.quality_predictor.fit(dataset.quality)
        if dataset.partitioning_time:
            self.partitioning_time_predictor.fit(dataset.partitioning_time)
        if dataset.processing:
            self.processing_time_predictor.fit(dataset.processing)
        self._selector = PartitionerSelector(
            self.quality_predictor, self.partitioning_time_predictor,
            self.processing_time_predictor,
            partitioner_names=self.partitioner_names)
        return self

    @classmethod
    def train_from_graphs(cls, quality_graphs: Iterable[Graph],
                          processing_graphs: Iterable[Graph],
                          profiler: Optional[GraphProfiler] = None,
                          checkpoint_path: Optional[str] = None,
                          **kwargs) -> "EASE":
        """Profile the given graphs (Figure 5, steps 1-3) and train (step 4).

        Parallelism, executor backend and artifact cache are the
        ``profiler``'s own settings (every combination produces a dataset
        identical to a sequential run).  ``checkpoint_path`` enables
        task-level checkpoint/resume of the profiling phase.
        """
        # Imported here: serving loads this module, and must not load the
        # profiling runtime.
        from .profiling import GraphProfiler

        profiler = profiler or GraphProfiler()
        system = cls(**kwargs)
        dataset = profiler.profile(quality_graphs, processing_graphs,
                                   checkpoint_path=checkpoint_path)
        return system.train(dataset)

    # ------------------------------------------------------------------ #
    @property
    def selector(self) -> PartitionerSelector:
        if self._selector is None:
            raise RuntimeError("EASE must be trained before use")
        return self._selector

    def select_partitioner(self, graph: Union[Graph, GraphProperties],
                           algorithm: str, num_partitions: int,
                           goal: str = OptimizationGoal.END_TO_END,
                           num_iterations: Optional[int] = None
                           ) -> SelectionResult:
        """Automatically select a partitioner for a processing job."""
        return self.selector.select_batch([SelectionRequest(
            graph=graph, algorithm=algorithm, num_partitions=num_partitions,
            goal=goal, num_iterations=num_iterations)])[0]

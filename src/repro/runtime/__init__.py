"""Task-DAG profiling runtime (plan, tasks, scheduler, backends, artifacts).

The runtime enumerates the EASE profiling grid — every training graph
partitioned by every candidate partitioner at every ``k`` and processed
under every workload — as fine-grained tasks with content-addressed ids
(per ``(graph, partitioner, k)`` unit: partition → quality / timing /
per-workload processing), and schedules the resulting DAG over a pluggable
executor backend: inline, process pool, or a shared-directory worker queue
served by external ``repro worker`` processes.
Shared artifacts are computed once, results merge deterministically, and a
parallel run on any backend is indistinguishable from a sequential one.
"""

from .artifacts import ArtifactStore
from .jobs import GraphRef, ProfilePlan, build_plan, graph_fingerprint
from .tasks import (
    FusedTask,
    PartitionTask,
    PartitionTimeTask,
    ProcessingTask,
    PropertiesTask,
    QualityTask,
)
from .scheduler import Scheduler, build_task_graph
from .backends import (
    ExecutorBackend,
    InlineBackend,
    ProcessPoolBackend,
    TaskEnvelope,
    TaskFailure,
    WorkerPoolBackend,
    run_worker,
)
from .journal import CheckpointJournal
from .executor import (
    BACKEND_NAMES,
    ProfileExecutor,
    ProfileRunStats,
    build_dataset,
)

__all__ = [
    "ArtifactStore",
    "GraphRef",
    "ProfilePlan",
    "build_plan",
    "graph_fingerprint",
    "FusedTask",
    "PartitionTask",
    "PartitionTimeTask",
    "ProcessingTask",
    "PropertiesTask",
    "QualityTask",
    "Scheduler",
    "build_task_graph",
    "ExecutorBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "TaskEnvelope",
    "TaskFailure",
    "CheckpointJournal",
    "WorkerPoolBackend",
    "run_worker",
    "BACKEND_NAMES",
    "ProfileExecutor",
    "ProfileRunStats",
    "build_dataset",
]

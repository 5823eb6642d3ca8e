"""Registry of the eleven edge partitioners evaluated in the paper.

The paper treats different settings of a partitioner-specific parameter as
separate partitioners (Section IV-B2); HEP therefore appears three times
(τ = 1, 10, 100).  The registry is the single place where EASE's predictors,
the profiling pipeline and the benchmarks look partitioners up by name, and it
is the extension point for adding new partitioners without retraining the
processing-time model (Section IV-E).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Sequence, Tuple, Type

from .base import EdgePartitioner

__all__ = [
    "ALL_PARTITIONER_NAMES",
    "create_partitioner",
    "create_all_partitioners",
]

#: Module, class and fixed constructor arguments per partitioner name.  The
#: module is imported when :func:`create_partitioner` first builds one of
#: its partitioners, so reading the names loads no partitioner.
_PARTITIONERS: Dict[str, Tuple[str, str, Dict[str, Any]]] = {
    "1dd": (".hashing", "OneDimDestinationPartitioner", {}),
    "1ds": (".hashing", "OneDimSourcePartitioner", {}),
    "2d": (".hashing", "TwoDimPartitioner", {}),
    "crvc": (".hashing", "CanonicalRandomVertexCutPartitioner", {}),
    "dbh": (".dbh", "DegreeBasedHashingPartitioner", {}),
    "hdrf": (".hdrf", "HDRFPartitioner", {}),
    "2ps": (".two_ps", "TwoPhaseStreamingPartitioner", {}),
    "ne": (".ne", "NeighborhoodExpansionPartitioner", {}),
    "hep1": (".hep", "HybridEdgePartitioner", {"tau": 1.0}),
    "hep10": (".hep", "HybridEdgePartitioner", {"tau": 10.0}),
    "hep100": (".hep", "HybridEdgePartitioner", {"tau": 100.0}),
}

#: The eleven partitioner names in the order used by the paper's figures.
ALL_PARTITIONER_NAMES: Sequence[str] = (
    "1dd", "1ds", "2d", "2ps", "crvc", "dbh", "hdrf",
    "hep1", "hep10", "hep100", "ne",
)


def create_partitioner(name: str, seed: int = 0,
                       **overrides) -> EdgePartitioner:
    """Instantiate a partitioner by registry name.

    ``overrides`` are forwarded to the partitioner constructor (e.g.
    ``balance_weight`` for HDRF and 2PS, ``balance_slack`` for 2PS, NE and
    HEP); a keyword the constructor does not take raises ``TypeError``.
    """
    try:
        module, class_name, fixed = _PARTITIONERS[name]
    except KeyError as error:
        raise ValueError(
            f"unknown partitioner {name!r}; known partitioners: "
            f"{sorted(_PARTITIONERS)}") from error
    cls: Type[EdgePartitioner] = getattr(
        importlib.import_module(module, __package__), class_name)
    return cls(seed=seed, **fixed, **overrides)


def create_all_partitioners(names: Sequence[str] = ALL_PARTITIONER_NAMES,
                            seed: int = 0) -> List[EdgePartitioner]:
    """Instantiate every partitioner in ``names`` (default: all eleven)."""
    return [create_partitioner(name, seed=seed) for name in names]

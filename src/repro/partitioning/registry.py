"""Registry of the eleven edge partitioners evaluated in the paper.

The paper treats different settings of a partitioner-specific parameter as
separate partitioners (Section IV-B2); HEP therefore appears three times
(τ = 1, 10, 100).  The registry is the single place where EASE's predictors,
the profiling pipeline and the benchmarks look partitioners up by name, and it
is the extension point for adding new partitioners without retraining the
processing-time model (Section IV-E).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple, Type

from .base import EdgePartitioner
from .hashing import (
    OneDimDestinationPartitioner,
    OneDimSourcePartitioner,
    TwoDimPartitioner,
    CanonicalRandomVertexCutPartitioner,
)
from .dbh import DegreeBasedHashingPartitioner
from .hdrf import HDRFPartitioner
from .two_ps import TwoPhaseStreamingPartitioner
from .ne import NeighborhoodExpansionPartitioner
from .hep import HybridEdgePartitioner

__all__ = [
    "ALL_PARTITIONER_NAMES",
    "create_partitioner",
    "create_all_partitioners",
]

#: Class and fixed constructor arguments per partitioner name.
_PARTITIONERS: Dict[str, Tuple[Type[EdgePartitioner], Dict[str, Any]]] = {
    "1dd": (OneDimDestinationPartitioner, {}),
    "1ds": (OneDimSourcePartitioner, {}),
    "2d": (TwoDimPartitioner, {}),
    "crvc": (CanonicalRandomVertexCutPartitioner, {}),
    "dbh": (DegreeBasedHashingPartitioner, {}),
    "hdrf": (HDRFPartitioner, {}),
    "2ps": (TwoPhaseStreamingPartitioner, {}),
    "ne": (NeighborhoodExpansionPartitioner, {}),
    "hep1": (HybridEdgePartitioner, {"tau": 1.0}),
    "hep10": (HybridEdgePartitioner, {"tau": 10.0}),
    "hep100": (HybridEdgePartitioner, {"tau": 100.0}),
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
        cls, fixed = _PARTITIONERS[name]
    except KeyError as error:
        raise ValueError(
            f"unknown partitioner {name!r}; known partitioners: "
            f"{sorted(_PARTITIONERS)}") from error
    return cls(seed=seed, **fixed, **overrides)


def create_all_partitioners(names: Sequence[str] = ALL_PARTITIONER_NAMES,
                            seed: int = 0) -> List[EdgePartitioner]:
    """Instantiate every partitioner in ``names`` (default: all eleven)."""
    return [create_partitioner(name, seed=seed) for name in names]

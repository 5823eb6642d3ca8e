"""Registry of the eleven edge partitioners evaluated in the paper.

The paper treats different settings of a partitioner-specific parameter as
separate partitioners (Section IV-B2); HEP therefore appears three times
(τ = 1, 10, 100).  The registry is the single place where EASE's predictors,
the profiling pipeline and the benchmarks look partitioners up by name, and it
is the extension point for adding new partitioners without retraining the
processing-time model (Section IV-E).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

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
    "PARTITIONER_FACTORIES",
    "ALL_PARTITIONER_NAMES",
    "create_partitioner",
    "create_all_partitioners",
]

#: Factory per partitioner name.  Each factory takes a seed (plus optional
#: partitioner-specific keyword overrides, e.g. ``balance_weight=5.0`` for
#: HDRF) and returns a fresh partitioner instance.
PARTITIONER_FACTORIES: Dict[str, Callable[..., EdgePartitioner]] = {
    "1dd": lambda seed=0, **kw: OneDimDestinationPartitioner(seed=seed, **kw),
    "1ds": lambda seed=0, **kw: OneDimSourcePartitioner(seed=seed, **kw),
    "2d": lambda seed=0, **kw: TwoDimPartitioner(seed=seed, **kw),
    "crvc": lambda seed=0, **kw: CanonicalRandomVertexCutPartitioner(
        seed=seed, **kw),
    "dbh": lambda seed=0, **kw: DegreeBasedHashingPartitioner(seed=seed, **kw),
    "hdrf": lambda seed=0, **kw: HDRFPartitioner(seed=seed, **kw),
    "2ps": lambda seed=0, **kw: TwoPhaseStreamingPartitioner(seed=seed, **kw),
    "ne": lambda seed=0, **kw: NeighborhoodExpansionPartitioner(seed=seed, **kw),
    "hep1": lambda seed=0, **kw: HybridEdgePartitioner(tau=1.0, seed=seed, **kw),
    "hep10": lambda seed=0, **kw: HybridEdgePartitioner(tau=10.0, seed=seed,
                                                        **kw),
    "hep100": lambda seed=0, **kw: HybridEdgePartitioner(tau=100.0, seed=seed,
                                                         **kw),
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
        factory = PARTITIONER_FACTORIES[name]
    except KeyError as error:
        raise ValueError(
            f"unknown partitioner {name!r}; known partitioners: "
            f"{sorted(PARTITIONER_FACTORIES)}") from error
    return factory(seed, **overrides)


def create_all_partitioners(names: Sequence[str] = ALL_PARTITIONER_NAMES,
                            seed: int = 0) -> List[EdgePartitioner]:
    """Instantiate every partitioner in ``names`` (default: all eleven)."""
    return [create_partitioner(name, seed=seed) for name in names]

"""Saving and loading trained EASE systems and profiling datasets.

Profiling and training are the expensive phases of the EASE pipeline
(Figure 5); persisting their outputs lets a trained selector be shipped to the
machines that submit graph processing jobs, where inference only needs the
graph features of the new graph.
"""

from __future__ import annotations

import os
import pickle
from typing import Iterable, Union

from ..atomicfile import write_atomic
from .dataset import ProfileDataset
from .pipeline import EASE

__all__ = [
    "save_ease",
    "load_ease",
    "save_dataset",
    "load_dataset",
    "append_dataset",
    "merge_datasets",
    "canonical_sorted",
]

_FORMAT_VERSION = 1


def _save(obj, path: str, kind: str) -> None:
    # Pickle first, then replace: a failing pickle or a crash mid-write
    # leaves the previous bundle or dataset at ``path`` intact.
    write_atomic(path, pickle.dumps(
        {"format_version": _FORMAT_VERSION, "kind": kind, "object": obj}))


def _load(path: str, kind: str):
    with open(path, "rb") as handle:
        try:
            payload = pickle.load(handle)
        except (AttributeError, ImportError) as error:
            # pickle resolves classes by name before any check below can run;
            # a name this version does not define means another one wrote it.
            raise ValueError(
                f"{path!r} was written by an incompatible version of repro "
                f"({error}); re-train and re-publish") from error
    if not isinstance(payload, dict) or "object" not in payload:
        raise ValueError(f"{path!r} is not an EASE persistence file")
    if payload.get("kind") != kind:
        raise ValueError(f"{path!r} contains a {payload.get('kind')!r}, "
                         f"expected a {kind!r}")
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version "
                         f"{payload.get('format_version')!r}")
    return payload["object"]


def save_ease(system: EASE, path: str) -> None:
    """Persist a trained EASE system (predictors + selector) to ``path``."""
    if not isinstance(system, EASE):
        raise TypeError("save_ease expects an EASE instance")
    _save(system, path, kind="ease")


def load_ease(path: str) -> EASE:
    """Load an EASE system previously stored with :func:`save_ease`."""
    system = _load(path, kind="ease")
    if not isinstance(system, EASE):
        raise ValueError(f"{path!r} does not contain an EASE system")
    return system


def save_dataset(dataset: ProfileDataset, path: str) -> None:
    """Persist a profiling dataset to ``path``."""
    if not isinstance(dataset, ProfileDataset):
        raise TypeError("save_dataset expects a ProfileDataset instance")
    _save(dataset, path, kind="profile_dataset")


def load_dataset(path: str) -> ProfileDataset:
    """Load a profiling dataset previously stored with :func:`save_dataset`."""
    dataset = _load(path, kind="profile_dataset")
    if not isinstance(dataset, ProfileDataset):
        raise ValueError(f"{path!r} does not contain a ProfileDataset")
    return dataset


# --------------------------------------------------------------------------- #
# Partial datasets (incremental profiling runs)
# --------------------------------------------------------------------------- #
def merge_datasets(datasets: Iterable[ProfileDataset]) -> ProfileDataset:
    """Merge several (partial) profiling datasets into one.

    Used to combine the outputs of profiling runs split over corpora or
    machines; records are concatenated in the given order — apply
    :func:`canonical_sorted` afterwards if a stable order is needed.
    """
    merged = ProfileDataset()
    for dataset in datasets:
        if not isinstance(dataset, ProfileDataset):
            raise TypeError("merge_datasets expects ProfileDataset instances")
        merged.extend(dataset)
    return merged


def append_dataset(dataset: ProfileDataset, path: str) -> ProfileDataset:
    """Merge ``dataset`` into the dataset stored at ``path`` and rewrite it.

    If ``path`` does not exist yet, this is equivalent to
    :func:`save_dataset`.  Returns the combined dataset, which lets long
    profiling campaigns persist partial results incrementally.
    """
    if os.path.exists(path):
        combined = merge_datasets([load_dataset(path), dataset])
    else:
        combined = dataset
    save_dataset(combined, path)
    return combined


def canonical_sorted(dataset: ProfileDataset) -> ProfileDataset:
    """Return a copy with records in canonical order.

    Records are sorted by ``(graph name, partitioner, k[, algorithm])``,
    which makes datasets comparable independently of the corpus order or the
    phase interleaving that produced them.
    """
    def base_key(record):
        return (record.graph_name, record.partitioner, record.num_partitions)

    result = ProfileDataset()
    result.quality = sorted(dataset.quality, key=base_key)
    result.partitioning_time = sorted(dataset.partitioning_time, key=base_key)
    result.processing = sorted(
        dataset.processing, key=lambda r: base_key(r) + (r.algorithm,))
    return result

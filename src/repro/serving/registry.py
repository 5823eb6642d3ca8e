"""Content-hashed, versioned registry of trained EASE bundles.

The registry is a directory of immutable model versions plus mutable tags:

.. code-block:: text

    <root>/models/<name>/<version>/model.pkl      the save_ease bundle
    <root>/models/<name>/<version>/manifest.json  training provenance
    <root>/tags/<name>.json                       {"production": "<version>"}

``<version>`` is the truncated SHA-256 of the bundle bytes (the hashing
convention of :class:`repro.runtime.artifacts.ArtifactStore`), so publishing
the same trained system twice is idempotent and a version can never change
under a tag.  All writes are atomic: tags and repaired manifests go through
:func:`repro.atomicfile.write_atomic`, and a new version's bundle and
manifest are staged in a temporary directory published with one rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..atomicfile import write_atomic
from ..ease.dataset import ProfileDataset
from ..ease.persistence import load_ease, save_ease
from ..ease.pipeline import EASE

__all__ = ["ModelRegistry", "ModelVersion", "dataset_fingerprint"]

#: Length of the truncated SHA-256 hex digest used as a version id (matches
#: the 20-char graph fingerprints of the profiling runtime).
VERSION_DIGEST_LENGTH = 12

MANIFEST_FORMAT = "ease-bundle-v1"


def dataset_fingerprint(dataset: ProfileDataset) -> str:
    """Content fingerprint of a profiling dataset (order-independent).

    Hashes the sorted identity keys of every record plus the per-kind counts,
    so the fingerprint identifies *what was profiled* independently of corpus
    order or phase interleaving — the provenance a model manifest records.
    """
    digest = hashlib.sha256()
    digest.update(b"profile-dataset-v1:")
    keys = sorted(
        [("quality", r.graph_name, r.partitioner, r.num_partitions, "")
         for r in dataset.quality]
        + [("partitioning_time", r.graph_name, r.partitioner,
            r.num_partitions, "") for r in dataset.partitioning_time]
        + [("processing", r.graph_name, r.partitioner, r.num_partitions,
            r.algorithm) for r in dataset.processing])
    for key in keys:
        digest.update(repr(key).encode("utf-8"))
    return digest.hexdigest()[:20]


@dataclass
class ModelVersion:
    """One immutable published model version plus its mutable tags."""

    name: str
    version: str
    path: str
    manifest: Dict = field(default_factory=dict)
    tags: List[str] = field(default_factory=list)

    @property
    def bundle_path(self) -> str:
        return os.path.join(self.path, "model.pkl")


class ModelRegistry:
    """Publish / list / promote / load trained EASE bundles.

    Parameters
    ----------
    root:
        Registry directory; created on first publish.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def _models_dir(self, name: str = "") -> str:
        return os.path.join(self.root, "models", name)

    def _version_dir(self, name: str, version: str) -> str:
        return os.path.join(self._models_dir(name), version)

    def _tags_path(self, name: str) -> str:
        return os.path.join(self.root, "tags", f"{name}.json")

    _NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

    @classmethod
    def _check_name(cls, name: str) -> str:
        # Names become directory components; the leading-alphanumeric rule
        # also rejects '.', '..' and hidden-file lookalikes.
        if not cls._NAME_PATTERN.match(name):
            raise ValueError(f"invalid model name {name!r}")
        return name

    @staticmethod
    def _write_json_atomic(path: str, payload: Dict) -> None:
        write_atomic(path, json.dumps(payload, indent=2,
                                      sort_keys=True).encode("utf-8"))

    # ------------------------------------------------------------------ #
    # Publish
    # ------------------------------------------------------------------ #
    def publish(self, system: Union[EASE, str], name: str,
                dataset: Optional[ProfileDataset] = None,
                metrics: Optional[Dict] = None,
                metadata: Optional[Dict] = None) -> ModelVersion:
        """Publish a trained system (or a ``save_ease`` file) as a version.

        The version id is the content hash of the bundle bytes, so publishing
        identical content is idempotent and returns the existing version.
        ``dataset`` records the training provenance (its fingerprint and
        summary), ``metrics`` arbitrary evaluation numbers and ``metadata``
        free-form caller context; all land in ``manifest.json``.
        """
        self._check_name(name)
        os.makedirs(self._models_dir(name), exist_ok=True)
        # Not write_atomic: bundle + manifest publish as one directory rename.
        fd, staging = tempfile.mkstemp(dir=self._models_dir(name),
                                       suffix=".bundle.tmp")
        os.close(fd)
        try:
            if isinstance(system, EASE):
                save_ease(system, staging)
            else:
                # Validate the file really is an EASE bundle before it can be
                # served (the loaded object also feeds the manifest), then
                # copy its bytes verbatim so the version hash matches the
                # caller's file.
                bundle_file, system = system, load_ease(system)
                shutil.copyfile(bundle_file, staging)
            with open(staging, "rb") as handle:
                version = hashlib.sha256(
                    handle.read()).hexdigest()[:VERSION_DIGEST_LENGTH]
            version_dir = self._version_dir(name, version)
            bundle_path = os.path.join(version_dir, "model.pkl")
            manifest_path = os.path.join(version_dir, "manifest.json")
            if not os.path.exists(bundle_path):
                # Stage bundle + manifest together and publish the version
                # with one directory rename, so a crash can never expose a
                # manifest-less version.
                stage_dir = tempfile.mkdtemp(dir=self._models_dir(name))
                try:
                    manifest = self._build_manifest(
                        name, version, staging, system, dataset=dataset,
                        metrics=metrics, metadata=metadata)
                    os.replace(staging, os.path.join(stage_dir, "model.pkl"))
                    with open(os.path.join(stage_dir, "manifest.json"), "w",
                              encoding="utf-8") as handle:
                        json.dump(manifest, handle, indent=2, sort_keys=True)
                    os.rename(stage_dir, version_dir)
                except OSError:
                    # Lost the publish race to a concurrent writer of the
                    # same content — their version is identical.
                    if not os.path.exists(bundle_path):
                        raise
                finally:
                    shutil.rmtree(stage_dir, ignore_errors=True)
            elif not os.path.isfile(manifest_path):
                # Repair a version left manifest-less by a pre-directory-
                # rename writer (or manual copy of a bare bundle).
                self._write_json_atomic(
                    manifest_path,
                    self._build_manifest(name, version, bundle_path, system,
                                         dataset=dataset, metrics=metrics,
                                         metadata=metadata))
        finally:
            if os.path.exists(staging):
                os.remove(staging)
        return self.get(name, version)

    def _build_manifest(self, name: str, version: str, bundle_path: str,
                        system: EASE,
                        dataset: Optional[ProfileDataset],
                        metrics: Optional[Dict],
                        metadata: Optional[Dict]) -> Dict:
        manifest = {
            "format": MANIFEST_FORMAT,
            "name": name,
            "version": version,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            # Nanosecond counterpart: orders same-second publishes correctly
            # when resolving "the newest version".
            "created_at_ns": time.time_ns(),
            "bundle_bytes": os.path.getsize(bundle_path),
            "partitioners": list(system.partitioner_names),
            "algorithms": list(system.processing_time_predictor.algorithms),
            "feature_set": system.quality_predictor.feature_set,
            "replication_feature_set":
                system.quality_predictor.replication_feature_set,
        }
        if dataset is not None:
            manifest["dataset"] = {
                "fingerprint": dataset_fingerprint(dataset),
                **dataset.summary(),
            }
        if metrics:
            manifest["metrics"] = dict(metrics)
        if metadata:
            manifest["metadata"] = dict(metadata)
        return manifest

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def model_names(self) -> List[str]:
        """Names with at least one published version."""
        directory = self._models_dir()
        if not os.path.isdir(directory):
            return []
        return sorted(name for name in os.listdir(directory)
                      if os.path.isdir(os.path.join(directory, name)))

    def versions(self, name: str) -> List[ModelVersion]:
        """All versions of ``name``, oldest first (by manifest timestamp)."""
        self._check_name(name)
        directory = self._models_dir(name)
        if not os.path.isdir(directory):
            return []
        entries = []
        for version in os.listdir(directory):
            version_dir = os.path.join(directory, version)
            if os.path.isfile(os.path.join(version_dir, "model.pkl")):
                entries.append(self.get(name, version))
        entries.sort(key=lambda entry: (entry.manifest.get("created_at_ns", 0),
                                        entry.manifest.get("created_at", ""),
                                        entry.version))
        return entries

    def list_models(self) -> List[ModelVersion]:
        """Every version of every model in the registry."""
        return [entry for name in self.model_names()
                for entry in self.versions(name)]

    def get(self, name: str, version: str) -> ModelVersion:
        """The :class:`ModelVersion` of an exact version id."""
        self._check_name(name)
        version_dir = self._version_dir(name, version)
        bundle_path = os.path.join(version_dir, "model.pkl")
        if not os.path.isfile(bundle_path):
            raise KeyError(f"model {name!r} has no version {version!r}")
        manifest_path = os.path.join(version_dir, "manifest.json")
        manifest: Dict = {}
        if os.path.isfile(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        tags = sorted(tag for tag, tagged in self.tags(name).items()
                      if tagged == version)
        return ModelVersion(name=name, version=version, path=version_dir,
                            manifest=manifest, tags=tags)

    def tags(self, name: str) -> Dict[str, str]:
        """Tag -> version mapping of ``name``."""
        self._check_name(name)
        path = self._tags_path(name)
        if not os.path.isfile(path):
            return {}
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # ------------------------------------------------------------------ #
    # Promote / resolve / load
    # ------------------------------------------------------------------ #
    def promote(self, name: str, version: str,
                tag: str = "production") -> ModelVersion:
        """Point ``tag`` at an existing version (atomically)."""
        entry = self.get(name, version)  # raises on unknown version
        tags = self.tags(name)
        tags[tag] = entry.version
        self._write_json_atomic(self._tags_path(name), tags)
        return self.get(name, entry.version)

    def resolve(self, name: str, ref: Optional[str] = None) -> ModelVersion:
        """Resolve a version reference to a concrete version.

        ``ref`` may be a tag, an exact version id, or a unique version-id
        prefix.  ``None`` resolves to the ``production`` tag when set and the
        newest version otherwise.
        """
        self._check_name(name)
        tags = self.tags(name)
        if ref is None:
            if "production" in tags:
                return self.get(name, tags["production"])
            entries = self.versions(name)
            if not entries:
                raise KeyError(f"no published versions of model {name!r}")
            return entries[-1]
        if ref in tags:
            return self.get(name, tags[ref])
        try:
            return self.get(name, ref)
        except KeyError:
            pass
        matches = [entry for entry in self.versions(name)
                   if entry.version.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise KeyError(f"ambiguous version prefix {ref!r} for model "
                           f"{name!r}: {[m.version for m in matches]}")
        raise KeyError(f"model {name!r} has no version or tag {ref!r}")

    def load(self, name: str, ref: Optional[str] = None) -> EASE:
        """Load the EASE system of a version reference (see :meth:`resolve`)."""
        return load_ease(self.resolve(name, ref).bundle_path)

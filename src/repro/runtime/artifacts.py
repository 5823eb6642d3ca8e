"""Content-addressed artifact store for the profiling runtime.

Profiling artifacts — partition assignments, graph properties, quality
metrics, simulated run-times — are pure functions of their content-addressed
key (graph fingerprint, partitioner, ``k``, seed, …).  The store keeps them in
memory for reuse within a run and, when a ``cache_dir`` is given, mirrors
them to disk so later runs (or worker processes of the same run) can skip the
computation entirely.

Disk layout: ``<cache_dir>/<kind>/<sha256(key)>.pkl``, one pickle per
artifact, written atomically (temp file + rename) so concurrent workers can
share a cache directory without locking.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Dict, Optional, Tuple

from ..atomicfile import write_atomic
from ..faults import fire, tear
from ..obs import get_logger, get_registry

__all__ = ["ArtifactStore"]

#: Artifact keys are flat tuples whose first element names the artifact kind.
ArtifactKey = Tuple[Any, ...]

#: Kinds never retained in memory: partition assignments are |E|-sized and
#: each one is only consumed by the single work unit that owns it, so keeping
#: them resident for the whole run would regress peak memory from "one
#: partition at a time" (the sequential profiler) to the whole grid.  They
#: still go to disk for cross-run reuse when a cache_dir is configured.
TRANSIENT_KINDS = frozenset({"partition"})

#: A ``.tmp`` file older than this is a leftover of a crashed writer and is
#: reclaimed by gc; younger ones may belong to a live concurrent
#: writer (an atomic write holds its temp file for milliseconds).
TMP_RECLAIM_AGE_SECONDS = 60.0


def _key_digest(key: ArtifactKey) -> str:
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class ArtifactStore:
    """In-memory dictionary with an optional on-disk mirror.

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk mirror; ``None`` keeps the store purely
        in-memory (artifacts then only live for the duration of one run).
        The mirror is unbounded; :meth:`gc` shrinks it in LRU order (reads
        refresh recency via the file mtime).
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self._memory: Dict[ArtifactKey, Any] = {}
        self.hits = 0
        self.misses = 0
        registry = get_registry()
        self._hits_counter = registry.counter(
            "artifact_store_hits_total",
            "Artifact store lookups answered from memory or disk")
        self._misses_counter = registry.counter(
            "artifact_store_misses_total",
            "Artifact store lookups that required recomputation")
        self._corrupt_counter = registry.counter(
            "artifact_store_corrupt_total",
            "Corrupt/truncated artifact files deleted and treated as misses")
        self._logger = get_logger("runtime.artifacts")

    # ------------------------------------------------------------------ #
    def path_for(self, key: ArtifactKey) -> Optional[str]:
        """On-disk path of ``key`` (``None`` for in-memory-only stores)."""
        if self.cache_dir is None:
            return None
        kind = str(key[0]) if key else "artifact"
        return os.path.join(self.cache_dir, kind, f"{_key_digest(key)}.pkl")

    def __contains__(self, key: ArtifactKey) -> bool:
        if key in self._memory:
            return True
        path = self.path_for(key)
        return path is not None and os.path.exists(path)

    def get(self, key: ArtifactKey) -> Optional[Any]:
        """Return the artifact stored under ``key`` or ``None``."""
        if key in self._memory:
            self.hits += 1
            self._hits_counter.inc()
            return self._memory[key]
        path = self.path_for(key)
        if path is not None and os.path.exists(path):
            try:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
            except Exception as error:
                # A truncated artifact (e.g. interrupted writer on a
                # filesystem without atomic rename, or a torn write) is
                # treated as absent — and deleted, so ``__contains__`` and
                # lazy restores stop seeing a file that cannot be loaded.
                self._discard_corrupt(path, key, error)
                self.misses += 1
                self._misses_counter.inc()
                return None
            try:
                os.utime(path)  # refresh LRU recency for gc
            except OSError:
                pass
            if not self._is_transient(key):
                self._memory[key] = value
            self.hits += 1
            self._hits_counter.inc()
            return value
        self.misses += 1
        self._misses_counter.inc()
        return None

    def verify(self, key: ArtifactKey) -> bool:
        """True if ``key`` is present *and loadable*.

        Unlike ``key in store`` this fully loads a disk-backed pickle, so a
        truncated or torn file is detected (and deleted) up front instead
        of surfacing as a mid-run "artifact vanished" error.  Transient
        kinds are deliberately not retained in memory by the check.
        """
        if key in self._memory:
            return True
        path = self.path_for(key)
        if path is None or not os.path.exists(path):
            return False
        try:
            with open(path, "rb") as handle:
                pickle.load(handle)
        except Exception as error:
            self._discard_corrupt(path, key, error)
            return False
        return True

    def _discard_corrupt(self, path: str, key: ArtifactKey,
                         error: Exception) -> None:
        self._corrupt_counter.inc()
        # Mirror GraphStoreError's phrasing: name the file, the failure
        # and the consequence.
        self._logger.warning(
            "artifact_corrupt_discarded", path=path, key=repr(key),
            error=f"{type(error).__name__}: {error}",
            consequence="treated as a cache miss and recomputed")
        self._remove(path)

    def put(self, key: ArtifactKey, value: Any) -> Any:
        """Store ``value`` under ``key`` (memory and, if configured, disk)."""
        if not self._is_transient(key):
            self._memory[key] = value
        path = self.path_for(key)
        if path is not None:
            torn = fire("artifact.write", key=repr(key))
            data = pickle.dumps(value)
            # An injected torn write lands a truncated file under the final
            # name, as a crash between write and rename on a non-atomic
            # filesystem would.
            write_atomic(path, tear(data, torn) if torn else data)
        return value

    @staticmethod
    def _is_transient(key: ArtifactKey) -> bool:
        return bool(key) and key[0] in TRANSIENT_KINDS

    # ------------------------------------------------------------------ #
    # Lifecycle: garbage collection
    # ------------------------------------------------------------------ #
    def _disk_entries(self):
        """(mtime, size, path) of every artifact file under ``cache_dir``."""
        entries = []
        if self.cache_dir is None or not os.path.isdir(self.cache_dir):
            return entries
        for root, _, names in os.walk(self.cache_dir):
            for name in names:
                path = os.path.join(root, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                entries.append((info.st_mtime, info.st_size, path))
        return entries

    @staticmethod
    def _remove(path: str) -> bool:
        try:
            os.remove(path)
            return True
        except OSError:
            return False

    def disk_usage(self) -> Dict[str, int]:
        """Total size and file count of the on-disk mirror."""
        entries = self._disk_entries()
        return {"files": len(entries),
                "bytes": sum(size for _, size, _ in entries)}

    def gc(self, max_bytes: int = 0) -> Dict[str, int]:
        """Shrink the on-disk mirror to ``max_bytes`` (LRU order).

        ``0`` clears the cache entirely.  ``.tmp`` files from crashed
        writers are reclaimed first, but only once they are old enough to
        rule out a live concurrent writer between the temp file of
        :func:`~repro.atomicfile.write_atomic` and its rename (workers
        legitimately share the cache directory).  Returns the reclaimed
        bytes/files plus the remaining usage — the numbers the ``repro
        cache gc`` subcommand reports.  The in-memory working set is
        untouched.
        """
        import time

        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        removed_files = reclaimed_bytes = 0
        entries = self._disk_entries()
        stale_cutoff = time.time() - TMP_RECLAIM_AGE_SECONDS
        stale = [entry for entry in entries
                 if entry[2].endswith(".tmp") and entry[0] < stale_cutoff]
        entries = [entry for entry in entries if not entry[2].endswith(".tmp")]
        for _, size, path in stale:
            if self._remove(path):
                removed_files += 1
                reclaimed_bytes += size
        total = sum(size for _, size, _ in entries)
        for _, size, path in sorted(entries):  # oldest mtime first
            if total <= max_bytes:
                break
            if self._remove(path):
                total -= size
                removed_files += 1
                reclaimed_bytes += size
        usage = self.disk_usage()
        return {"reclaimed_bytes": reclaimed_bytes,
                "removed_files": removed_files,
                "remaining_bytes": usage["bytes"],
                "remaining_files": usage["files"]}

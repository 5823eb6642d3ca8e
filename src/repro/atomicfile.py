"""Atomic file replacement: the one writer of files other processes read.

Cache artifacts, queue envelopes and acks, checkpoint rewrites, metric
slots, registry tags and the ``profile`` / ``train`` output pickles are all
read back by another process or a later run, so each is written to a
temporary file in the target directory and renamed over the final name: a
reader sees the old file or the new one, never a partial one.  There is no
fsync — the guarantee is against crashed or concurrent *processes*, not
power loss, and the artifact cache pays for hundreds of these per run.

Standard library only and importing nothing from :mod:`repro`, so every
layer (including the stdlib-only :mod:`repro.obs`) may use it.
"""

from __future__ import annotations

import os
import tempfile

__all__ = ["write_atomic"]


def write_atomic(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` (creating its directory if needed).

    On any exception the temporary file is removed and ``path`` keeps its
    previous content (or stays absent).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.remove(temp_path)
        raise

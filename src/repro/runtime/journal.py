"""Crash-tolerant checkpoint journal: length-prefixed, checksummed frames.

The journal holds a dict of ``task_id -> payload`` as an append-only
sequence of frames, so a flush costs O(new tasks), not O(checkpoint)::

    RPJL2\\n                                  magic (6 bytes)
    [u32 length][u32 crc32][pickle((key, value))]   frame, repeated

Each frame is one completed task.  A crash (or injected ``torn`` fault)
mid-append leaves a torn tail: :meth:`load` reads every intact frame,
truncates the tail away (so later appends extend a clean file) and logs a
warning — a torn tail costs at most ``checkpoint_every`` tasks, never the
checkpoint.  A file at the journal path that does not start with the magic
is not a journal: it loads as ``{}`` (with a warning) and the next
:meth:`append` replaces it atomically instead of extending it.

Frames hold bare payloads; an ``RPJL1`` journal (wrapped properties
payloads) is "not a journal", so its tasks are recomputed, not misread.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Dict, Optional

from ..atomicfile import write_atomic
from ..faults import fire, tear
from ..obs import get_logger, get_registry

__all__ = ["CheckpointJournal", "JOURNAL_MAGIC"]

JOURNAL_MAGIC = b"RPJL2\n"
_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32


def _encode_frame(key: Any, value: Any) -> bytes:
    payload = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class CheckpointJournal:
    """Append-only checkpoint file with per-frame checksums.

    ``load()`` returns the journal's content as a dict (repairing any torn
    tail in place); ``append(items)`` adds newly completed payloads;
    ``rewrite(items)`` compacts the whole journal atomically.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._logger = get_logger("runtime.journal")
        self._torn_counter = get_registry().counter(
            "checkpoint_torn_frames_total",
            "Torn checkpoint-journal tails truncated during load")

    # ------------------------------------------------------------------ #
    def load(self) -> Dict[Any, Any]:
        """Read every intact frame; truncate and warn on a torn tail."""
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path, "rb") as handle:
                head = handle.read(len(JOURNAL_MAGIC))
                if head != JOURNAL_MAGIC:
                    self._logger.warning("checkpoint_not_a_journal",
                                         path=self.path)
                    return {}
                payloads: Dict[Any, Any] = {}
                offset = len(JOURNAL_MAGIC)
                while True:
                    header = handle.read(_FRAME_HEADER.size)
                    if not header:
                        return payloads
                    if len(header) < _FRAME_HEADER.size:
                        break
                    length, crc = _FRAME_HEADER.unpack(header)
                    payload = handle.read(length)
                    if len(payload) < length or zlib.crc32(payload) != crc:
                        break
                    try:
                        key, value = pickle.loads(payload)
                    except Exception:
                        break
                    payloads[key] = value
                    offset += _FRAME_HEADER.size + length
        except OSError:
            return {}
        self._repair(offset)
        return payloads

    def _repair(self, good_offset: int) -> None:
        """Truncate a torn tail so later appends extend a clean journal."""
        try:
            size = os.path.getsize(self.path)
            with open(self.path, "r+b") as handle:
                handle.truncate(good_offset)
        except OSError:
            return
        self._torn_counter.inc()
        self._logger.warning(
            "checkpoint_torn_tail_truncated", path=self.path,
            torn_bytes=size - good_offset, kept_bytes=good_offset)

    # ------------------------------------------------------------------ #
    def append(self, items: Dict[Any, Any]) -> None:
        """Append one frame per item (creating the journal if needed).

        A file without the journal magic is replaced atomically, so frames
        are never lost behind a foreign prefix.
        """
        if not items:
            return
        if os.path.exists(self.path):
            with open(self.path, "rb") as handle:
                if handle.read(len(JOURNAL_MAGIC)) != JOURNAL_MAGIC:
                    self.rewrite(items)
                    return
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        data = b"".join(_encode_frame(key, value)
                        for key, value in items.items())
        torn = fire("checkpoint.append", key=self.path)
        if torn is not None:
            data = tear(data, torn)
        new_file = not os.path.exists(self.path)
        with open(self.path, "ab") as handle:
            if new_file:
                handle.write(JOURNAL_MAGIC)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def rewrite(self, items: Dict[Any, Any]) -> None:
        """Atomically replace the journal with a compacted one."""
        write_atomic(self.path, JOURNAL_MAGIC + b"".join(
            _encode_frame(key, value) for key, value in items.items()))

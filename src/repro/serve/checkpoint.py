"""Drain checkpoint: the unserved queue, persisted across restarts.

On SIGTERM the server finishes its in-flight batch, then writes every
still-queued request to a JSONL file — a ``{"kind": "serve-queue",
...}`` header restating the wire format, then one ``{"kind": "job",
...}`` line per queued request.  A restarted server pointed at the
same directory loads the file, deletes it, and re-queues the requests;
job digests are recomputed from the request identity, so a client
that was told "checkpointed, poll ``/v1/jobs/<id>``" finds its job
under the same id.

Loading tolerates a torn tail: parsing stops at the first line that
is incomplete or malformed (a kill mid-write costs the tail, never the
file), and a header from a different wire version discards the whole
checkpoint rather than guessing at its meaning.  The file is written
in one shot at drain time (staged + ``os.replace``), not appended
per job — the queue is only ever persisted whole.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import List, Sequence

from repro._version import __version__
from repro.serve.protocol import (
    BadRequest,
    SimRequest,
    WIRE_VERSION,
)

#: Checkpoint file name inside the server's checkpoint directory.
CHECKPOINT_NAME = "serve-queue.jsonl"


class QueueCheckpoint:
    """Whole-queue snapshot in ``<root>/serve-queue.jsonl``."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    @property
    def path(self) -> Path:
        return self.root / CHECKPOINT_NAME

    @property
    def exists(self) -> bool:
        return self.path.exists()

    # -- writing -------------------------------------------------------

    def write(self, requests: Sequence[SimRequest]) -> Path:
        """Persist the queue (fsynced, atomically published)."""
        self.root.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "serve-queue",
            "wire": WIRE_VERSION,
            "version": __version__,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for request in requests:
            lines.append(
                json.dumps(
                    {
                        "kind": "job",
                        "id": request.digest,
                        "request": request.to_dict(),
                    },
                    sort_keys=True,
                )
            )
        tmp = self.path.with_name(f".{CHECKPOINT_NAME}.{uuid.uuid4().hex}.tmp")
        try:
            with tmp.open("wb") as handle:
                handle.write(("\n".join(lines) + "\n").encode())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)
        return self.path

    # -- loading -------------------------------------------------------

    def load(self) -> List[SimRequest]:
        """Queued requests from a previous drain (tolerates a torn
        tail; a missing or foreign-wire checkpoint recovers nothing)."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        requests: List[SimRequest] = []
        header_seen = False
        for line in data.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # torn tail: trust nothing past it
            try:
                entry = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                break
            if not isinstance(entry, dict):
                break
            if not header_seen:
                if (
                    entry.get("kind") != "serve-queue"
                    or entry.get("wire") != WIRE_VERSION
                ):
                    return []  # foreign or incompatible checkpoint
                header_seen = True
                continue
            if entry.get("kind") != "job":
                break
            try:
                requests.append(SimRequest.from_dict(entry["request"]))
            except (BadRequest, KeyError, TypeError):
                break
        return requests

    def discard(self) -> None:
        """The queue was re-admitted (or served): drop the file."""
        self.path.unlink(missing_ok=True)


__all__ = ["CHECKPOINT_NAME", "QueueCheckpoint"]

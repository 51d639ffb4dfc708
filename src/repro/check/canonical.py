"""Canonical byte forms and digests for conformance checking.

Every oracle in :mod:`repro.check` compares *digests*, never Python
objects: a :class:`~repro.sim.SimulationResult` is reduced to the
SHA-256 of the canonical JSON encoding of its versioned
``to_dict()`` form, and a telemetry event stream to a running SHA-256
over each event's canonical wire dict, in emission order.  Two
execution paths agree exactly when their digests agree — the same
"byte-identical" bar the serving layer holds coalesced responses to.

Canonical JSON here means ``sort_keys=True`` with compact separators —
the key ordering of the producing code can never leak into a digest.
Floats round-trip ``json.dumps``/``loads`` exactly (``repr``-based
encoding), so digesting the dict form is as strict as comparing the
in-memory objects field by field.

Infrastructure events — arena attach/detach, serve lifecycle, job
retries — describe *how* a cell was executed, not what it computed,
and legitimately differ between execution paths (an arena-attached
worker emits :class:`~repro.telemetry.ArenaEvent`, an inline run does
not).  :func:`events_digest` excludes them so the digest covers
exactly the simulation semantics.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping

#: Event kinds that describe execution machinery rather than simulation
#: semantics; excluded from :func:`events_digest`.
INFRASTRUCTURE_EVENT_KINDS = frozenset({"arena", "job_retry", "serve"})


#: Shared by every digest: ``json.dumps`` with options builds one per call.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
)


def canonical_json_bytes(payload: Any) -> bytes:
    """The canonical JSON encoding: sorted keys, compact separators."""
    return _ENCODER.encode(payload).encode("utf-8")


def payload_digest(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON bytes."""
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


def result_digest(result: Any) -> str:
    """Digest of a :class:`~repro.sim.SimulationResult` (or its
    already-serialised ``to_dict()`` mapping)."""
    data = result.to_dict() if hasattr(result, "to_dict") else result
    return payload_digest(data)


def events_digest(events: Iterable[Any]) -> str:
    """Order-sensitive digest of a telemetry event stream.

    Accepts events or their wire-format dicts;
    :data:`INFRASTRUCTURE_EVENT_KINDS` are skipped (see module
    docstring).  An empty stream digests to the SHA-256 of nothing —
    a stable, comparable value.
    """
    hasher = hashlib.sha256()
    for event in events:
        data: Mapping[str, Any] = (
            event.to_dict() if hasattr(event, "to_dict") else event
        )
        if data.get("kind") in INFRASTRUCTURE_EVENT_KINDS:
            continue
        hasher.update(canonical_json_bytes(data))
        hasher.update(b"\n")
    return hasher.hexdigest()


__all__ = [
    "INFRASTRUCTURE_EVENT_KINDS",
    "canonical_json_bytes",
    "events_digest",
    "payload_digest",
    "result_digest",
]

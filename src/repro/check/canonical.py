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

:func:`events_digest` does not build each event's dict: per event
class it compiles (on first sight) a line encoder that writes the
canonical line from a template of the class's sorted keys.  A value
is rendered the way the canonical encoder renders it inside a dict:
ints and finite floats by ``repr`` (exactly what :mod:`json` emits),
strings by :func:`json.encoder.encode_basestring`, ``True``/``False``/
``None`` as their JSON literals, anything else (NaN/inf, numpy
scalars, subclasses) by the shared encoder itself — so every line is
byte-identical to ``canonical_json_bytes(event.to_dict())``.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.telemetry.events import EVENT_TYPES, TelemetryEvent

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


#: A line encoder: one event's canonical JSON line (no newline), or
#: ``None`` for an infrastructure event the digest skips.
LineEncoder = Callable[[Any], Optional[str]]

#: Event type -> its line encoder, filled on first sight.
_LINE_ENCODERS: Dict[type, LineEncoder] = {}

#: Lines hashed per ``update`` call: bounds the joined buffer, however
#: long the stream.
_HASH_CHUNK = 1024


def _generic_line(event: Any) -> Optional[str]:
    """Line encoder for dict-form events and unregistered objects."""
    data = event.to_dict() if hasattr(event, "to_dict") else event
    if data.get("kind") in INFRASTRUCTURE_EVENT_KINDS:
        return None
    return _ENCODER.encode(data)


def _compile_line_encoder(cls: type) -> LineEncoder:
    """The line encoder of ``cls``: compiled for a registered event
    class that keeps the base ``to_dict``, generic otherwise (and for
    the rare infrastructure events, which it skips)."""
    kind = getattr(cls, "kind", None)
    if (
        not isinstance(kind, str)
        or EVENT_TYPES.get(kind) is not cls
        or cls.to_dict is not TelemetryEvent.to_dict
        or kind in INFRASTRUCTURE_EVENT_KINDS
    ):
        return _generic_line
    body: List[str] = ["def line(event):", "    d = event.__dict__"]
    template: List[str] = []
    values: List[str] = []
    for key in sorted(cls.__match_args__ + ("kind",)):
        if key == "kind":
            value = _ENCODER.encode(kind).replace("%", "%%")
        else:
            value = "%s"
            var = f"v{len(values)}"
            values.append(var)
            body += [
                f"    {var} = d[{key!r}]",
                f"    t = type({var})",
                f"    {var} = (_repr({var}) if t is int else _str({var})"
                f" if t is str else _repr({var}) if t is float"
                f" and {var} - {var} == 0.0 else 'true' if {var} is True"
                f" else 'false' if {var} is False else 'null' if {var}"
                f" is None else _encode({var}))",
            ]
        template.append(f"{_ENCODER.encode(key)}:{value}")
    line_format = "{" + ",".join(template) + "}"
    body.append(f"    return {line_format!r} % ({', '.join(values)},)")
    source = "\n".join(body)
    namespace: Dict[str, Any] = {}
    exec(
        source,
        {"_repr": repr, "_str": encode_basestring, "_encode": _ENCODER.encode},
        namespace,
    )
    return namespace["line"]


def _line_encoder(cls: type) -> LineEncoder:
    """The (cached) line encoder of event type ``cls``."""
    encode = _LINE_ENCODERS.get(cls)
    if encode is None:
        encode = _LINE_ENCODERS[cls] = _compile_line_encoder(cls)
    return encode


def events_digest(events: Iterable[Any]) -> str:
    """Order-sensitive digest of a telemetry event stream.

    Accepts events or their ``to_dict()`` forms;
    :data:`INFRASTRUCTURE_EVENT_KINDS` are skipped (see module
    docstring).  The hashed bytes are each event's
    :func:`canonical_json_bytes` followed by a newline.  An empty
    stream digests to the SHA-256 of nothing — a stable, comparable
    value.
    """
    hasher = hashlib.sha256()
    encoders = _LINE_ENCODERS
    lines: List[str] = []
    for event in events:
        cls = type(event)
        line = (encoders.get(cls) or _line_encoder(cls))(event)
        if line is not None:
            lines.append(line)
            if len(lines) == _HASH_CHUNK:
                lines.append("")
                hasher.update("\n".join(lines).encode("utf-8"))
                lines.clear()
    if lines:
        lines.append("")
        hasher.update("\n".join(lines).encode("utf-8"))
    return hasher.hexdigest()


__all__ = [
    "INFRASTRUCTURE_EVENT_KINDS",
    "canonical_json_bytes",
    "events_digest",
    "payload_digest",
    "result_digest",
]

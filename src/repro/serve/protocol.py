"""Typed request/response model and JSON wire format of the service.

A serving request is a *cell description*: which design, which Table II
workload, at what :class:`~repro.experiments.runner.Scale`.  The frozen
dataclasses below pin that description down, give it a canonical JSON
form (the ``to_dict``/``from_dict`` conventions of
:mod:`repro.runtime`'s result wire format), and derive from it the
**job digest** that the whole service keys on:

* two requests with the same digest are *the same work* — the
  scheduler coalesces them onto one job, whoever sent them;
* the digest is the job id a client polls at ``GET /v1/jobs/<id>``;
* digests are stable across processes, so a drained queue checkpoint
  resumes under the same ids after a restart.

``client`` and ``priority`` are *scheduling* attributes, not identity:
they steer fair-share and ordering but are excluded from
:meth:`SimRequest.identity`, so identical cells from different tenants
still share one simulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple, Union

from repro.experiments.runner import Scale

#: Version of the serve wire format (requests, responses, checkpoint).
WIRE_VERSION = 1

#: Request ``kind`` tags.
KIND_SIMULATE = "simulate"
KIND_SWEEP = "sweep"


class BadRequest(ValueError):
    """A request that cannot be parsed or validated (HTTP 400)."""


def _require_str(data: Mapping[str, Any], key: str) -> str:
    try:
        value = data[key]
    except KeyError:
        raise BadRequest(f"missing required field {key!r}") from None
    if not isinstance(value, str) or not value:
        raise BadRequest(f"field {key!r} must be a non-empty string")
    return value


def _coerce(value: Any, kind: type, key: str) -> Any:
    try:
        coerced = kind(value)
    except (TypeError, ValueError):
        raise BadRequest(
            f"field {key!r} must be {kind.__name__}, got {value!r}"
        ) from None
    if kind is not bool and coerced < 0:
        raise BadRequest(f"field {key!r} must be >= 0, got {value!r}")
    return coerced


@dataclass(frozen=True)
class SimRequest:
    """One ``(design, workload)`` simulation cell, as requested.

    The scale fields mirror :class:`~repro.experiments.runner.Scale`
    (minus ``benchmarks``, which is the *sibling list* of a sweep and
    not part of a cell's identity); defaults match ``Scale``'s.
    """

    design: str
    workload: str
    fast_mb: float = 4.0
    ratio: int = 5
    accesses_per_core: int = 1500
    warmup_per_core: int = 1500
    num_copies: int = 12
    seed: int = 0
    client: str = "anon"
    priority: int = 0

    #: Scale-shaped fields, in ``Scale`` declaration order.
    SCALE_FIELDS = (
        "fast_mb",
        "ratio",
        "accesses_per_core",
        "warmup_per_core",
        "num_copies",
        "seed",
    )

    @property
    def cell(self) -> Tuple[str, str]:
        return (self.design, self.workload)

    def scale(self) -> Scale:
        """The cell's execution scale (``benchmarks`` is just the one
        workload — cache keys ignore it, see
        :meth:`repro.runtime.ResultCache.describe`)."""
        return Scale(
            fast_mb=self.fast_mb,
            ratio=self.ratio,
            accesses_per_core=self.accesses_per_core,
            warmup_per_core=self.warmup_per_core,
            num_copies=self.num_copies,
            benchmarks=(self.workload,),
            seed=self.seed,
        )

    def scale_key(self) -> Tuple[Any, ...]:
        """Batching compatibility key: cells with equal keys can run
        in one executor sweep (same config, same trace arena)."""
        return tuple(getattr(self, name) for name in self.SCALE_FIELDS)

    def identity(self) -> Dict[str, Any]:
        """What the job digest covers: the cell and its scale — not
        the requesting ``client`` or its ``priority``."""
        data = {name: getattr(self, name) for name in self.SCALE_FIELDS}
        data.update(
            kind=KIND_SIMULATE,
            wire=WIRE_VERSION,
            design=self.design,
            workload=self.workload,
        )
        return data

    @property
    def digest(self) -> str:
        return request_digest(self.identity())

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["kind"] = KIND_SIMULATE
        data["wire"] = WIRE_VERSION
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimRequest":
        """Inverse of :meth:`to_dict`; raises :class:`BadRequest` on
        missing/mistyped fields or unknown keys (a typo'd field name
        must not be silently dropped)."""
        kind = data.get("kind", KIND_SIMULATE)
        if kind != KIND_SIMULATE:
            raise BadRequest(f"expected kind {KIND_SIMULATE!r}, got {kind!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        extras = set(data) - known - {"kind", "wire"}
        if extras:
            raise BadRequest(f"unknown field(s): {', '.join(sorted(extras))}")
        kwargs: Dict[str, Any] = {
            "design": _require_str(data, "design"),
            "workload": _require_str(data, "workload"),
        }
        for name, kind_ in (
            ("fast_mb", float),
            ("ratio", int),
            ("accesses_per_core", int),
            ("warmup_per_core", int),
            ("num_copies", int),
            ("seed", int),
        ):
            if name in data:
                kwargs[name] = _coerce(data[name], kind_, name)
        if "client" in data:
            kwargs["client"] = _require_str(data, "client")
        if "priority" in data:
            try:
                kwargs["priority"] = int(data["priority"])
            except (TypeError, ValueError):
                raise BadRequest("field 'priority' must be int") from None
        return cls(**kwargs)


@dataclass(frozen=True)
class SweepRequest:
    """A ``designs × workloads`` grid request.

    The scheduler expands it into one :class:`SimRequest` per cell —
    each of which dedups/coalesces independently against everything
    else in flight — and the server folds the cell results back into
    one aggregate response.
    """

    designs: Tuple[str, ...]
    workloads: Tuple[str, ...]
    fast_mb: float = 4.0
    ratio: int = 5
    accesses_per_core: int = 1500
    warmup_per_core: int = 1500
    num_copies: int = 12
    seed: int = 0
    client: str = "anon"
    priority: int = 0

    def cells(self) -> Tuple[SimRequest, ...]:
        """The grid, expanded design-major (the same order
        :meth:`SweepExecutor.run` would build it)."""
        return tuple(
            SimRequest(
                design=design,
                workload=workload,
                fast_mb=self.fast_mb,
                ratio=self.ratio,
                accesses_per_core=self.accesses_per_core,
                warmup_per_core=self.warmup_per_core,
                num_copies=self.num_copies,
                seed=self.seed,
                client=self.client,
                priority=self.priority,
            )
            for design in self.designs
            for workload in self.workloads
        )

    def identity(self) -> Dict[str, Any]:
        return {
            "kind": KIND_SWEEP,
            "wire": WIRE_VERSION,
            "designs": list(self.designs),
            "workloads": list(self.workloads),
            "fast_mb": self.fast_mb,
            "ratio": self.ratio,
            "accesses_per_core": self.accesses_per_core,
            "warmup_per_core": self.warmup_per_core,
            "num_copies": self.num_copies,
            "seed": self.seed,
        }

    @property
    def digest(self) -> str:
        return request_digest(self.identity())

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["designs"] = list(self.designs)
        data["workloads"] = list(self.workloads)
        data["kind"] = KIND_SWEEP
        data["wire"] = WIRE_VERSION
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepRequest":
        kind = data.get("kind", KIND_SWEEP)
        if kind != KIND_SWEEP:
            raise BadRequest(f"expected kind {KIND_SWEEP!r}, got {kind!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        extras = set(data) - known - {"kind", "wire"}
        if extras:
            raise BadRequest(f"unknown field(s): {', '.join(sorted(extras))}")
        for key in ("designs", "workloads"):
            value = data.get(key)
            if (
                not isinstance(value, (list, tuple))
                or not value
                or not all(isinstance(v, str) and v for v in value)
            ):
                raise BadRequest(
                    f"field {key!r} must be a non-empty list of strings"
                )
        kwargs: Dict[str, Any] = {
            "designs": tuple(data["designs"]),
            "workloads": tuple(data["workloads"]),
        }
        for name, kind_ in (
            ("fast_mb", float),
            ("ratio", int),
            ("accesses_per_core", int),
            ("warmup_per_core", int),
            ("num_copies", int),
            ("seed", int),
        ):
            if name in data:
                kwargs[name] = _coerce(data[name], kind_, name)
        if "client" in data:
            kwargs["client"] = _require_str(data, "client")
        if "priority" in data:
            try:
                kwargs["priority"] = int(data["priority"])
            except (TypeError, ValueError):
                raise BadRequest("field 'priority' must be int") from None
        return cls(**kwargs)


#: Either request shape.
ServeRequest = Union[SimRequest, SweepRequest]


def request_digest(identity: Mapping[str, Any]) -> str:
    """Job id: SHA-256 over the canonical JSON identity, truncated to
    16 hex chars (64 bits — plenty for an in-memory job table)."""
    canonical = json.dumps(dict(identity), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def canonical_payload(payload: Mapping[str, Any]) -> bytes:
    """The one serialisation every waiter of a job receives:
    sorted-key JSON, UTF-8, trailing newline.  Byte-identical for
    coalesced duplicates and across a drain/restart by construction —
    nothing time- or process-dependent may enter ``payload``."""
    return (json.dumps(dict(payload), sort_keys=True) + "\n").encode()


__all__ = [
    "BadRequest",
    "KIND_SIMULATE",
    "KIND_SWEEP",
    "ServeRequest",
    "SimRequest",
    "SweepRequest",
    "WIRE_VERSION",
    "canonical_payload",
    "request_digest",
]

"""Typed telemetry events — the vocabulary of the event bus.

Every headline claim of the paper is a claim about *event sequences*:
mode-bit flips between PoM and cache mode (Figure 16), swap traffic
under the competing counter (Figure 17), the ISA-Alloc/ISA-Free stream
driving the ABV (Figures 8-14).  Each event class below captures one
such occurrence with enough context to audit SRRT consistency after
the fact (or live, see :mod:`repro.telemetry.auditor`) and to export
the run as a Chrome/Perfetto trace.

Events are frozen dataclasses with a stable ``kind`` tag.  They cross
the :class:`~repro.runtime.SweepExecutor` pool as the objects
themselves (workers fork from the same code, so they pickle as-is);
the ``to_dict``/:func:`event_from_dict` round trip is the form the
JSONL and Chrome-trace exporters write and read.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Type

#: ``SegmentSwap.reason`` values.
SWAP_REASONS = (
    "counter",         # PoM competing counter crossed the threshold
    "restore",         # ISA-Free restoring the stacked home (Figure 11)
    "proactive",       # Chameleon-Opt free-space remap (Figures 12-14)
    "dirty_eviction",  # cache-mode dirty evict+fill pair (Section VI-B)
)


@dataclass(frozen=True)
class TelemetryEvent:
    """Base of every bus event; ``time_ns`` is simulated time."""

    kind: ClassVar[str] = "event"

    time_ns: float

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON dict: the scalar fields in order, then ``kind``."""
        # ``@dataclass`` caches the field names per class: __match_args__.
        data = {name: getattr(self, name) for name in self.__match_args__}
        data["kind"] = self.kind
        return data


@dataclass(frozen=True)
class SegmentSwap(TelemetryEvent):
    """One SRRT remap: the residents of two slots exchanged.

    ``moved_local`` is the off-chip-resident local id pulled toward the
    stacked slot; ``displaced_local`` the previous stacked resident
    pushed out.  ``reason`` is one of :data:`SWAP_REASONS`.
    """

    kind: ClassVar[str] = "segment_swap"

    group: int
    moved_local: int
    displaced_local: int
    reason: str = "counter"


@dataclass(frozen=True)
class ModeTransition(TelemetryEvent):
    """A segment group flipped its SRRT mode bit."""

    kind: ClassVar[str] = "mode_transition"

    group: int
    mode: str  # "pom" | "cache"


@dataclass(frozen=True)
class IsaAllocEvent(TelemetryEvent):
    """One ISA-Alloc (``alloc=True``) or ISA-Free (``alloc=False``).

    The Chameleon designs fill ``group``/``local`` from their group
    geometry.
    """

    kind: ClassVar[str] = "isa_alloc"

    segment: int
    alloc: bool
    group: Optional[int] = None
    local: Optional[int] = None


@dataclass(frozen=True)
class WritebackEvent(TelemetryEvent):
    """A dirty cached segment was written back to its home slot."""

    kind: ClassVar[str] = "writeback"

    group: int
    local: int


@dataclass(frozen=True)
class PageFaultEvent(TelemetryEvent):
    """The OS pager faulted on a non-resident page.

    ``major`` distinguishes SSD swap-ins (Table I latency) from cheap
    first-touch minor faults.
    """

    kind: ClassVar[str] = "page_fault"

    page: int
    major: bool


@dataclass(frozen=True)
class EpochSample(TelemetryEvent):
    """Periodic counter snapshot from the simulation engine.

    Values are *cumulative* over the measured window; consumers that
    want per-epoch rates (e.g. the timeline recorder) difference
    consecutive samples.
    """

    kind: ClassVar[str] = "epoch_sample"

    epoch: int
    accesses: float
    fast_hits: float
    swaps: float
    #: Cumulative page-fault count — an exact integer tally, carried as
    #: ``int`` end-to-end (the engine no longer widens it to float).
    faults: int


@dataclass(frozen=True)
class JobRetryEvent(TelemetryEvent):
    """The sweep executor re-queued a failed cell attempt.

    Emitted on the *parent* bus (host-side, so ``time_ns`` is always
    ``0.0`` — retries have no simulated timestamp): ``attempt`` is the
    attempt about to run, ``reason`` the failure kind of the one that
    died (``crash`` | ``timeout`` | ``error``).  See docs/RUNTIME.md.
    """

    kind: ClassVar[str] = "job_retry"

    design: str
    workload: str
    attempt: int
    reason: str


#: ``ArenaEvent.action`` values, in the order a cell emits them.
ARENA_ACTIONS = (
    "attach",    # the cell found its compiled trace in the arena
    "detach",    # the cell finished replaying it
)


@dataclass(frozen=True)
class ArenaEvent(TelemetryEvent):
    """Trace-arena use by one cell (host-side, ``time_ns`` 0).

    Each simulated cell that replays from the arena emits ``attach``
    before and ``detach`` after its simulation, into its captured
    stream.  ``action`` is one of :data:`ARENA_ACTIONS`; ``segment`` is
    the arena handle and ``bytes`` the size of the cell's own compiled
    trace (:attr:`~repro.workloads.compiled.CompiledTrace.nbytes`).
    """

    kind: ClassVar[str] = "arena"

    action: str
    segment: str
    bytes: int = 0


#: ``ServeEvent.action`` values (the request lifecycle of one job in
#: :mod:`repro.serve`, in the order a worked request passes them).
SERVE_ACTIONS = (
    "admit",        # request accepted into the pending queue
    "coalesce",     # identical in-flight request joined an existing job
    "cache_hit",    # answered from the ResultCache, no worker touched
    "reject",       # admission control bounced it (queue full)
    "dispatch",     # a batch of queued cells went to the executor
    "complete",     # job finished (result or structured error)
    "drain",        # shutdown checkpointed the unserved queue
    "resume",       # a restarted server re-queued checkpointed jobs
)


@dataclass(frozen=True)
class ServeEvent(TelemetryEvent):
    """One :mod:`repro.serve` request-lifecycle step (host-side, so
    ``time_ns`` is always ``0.0`` — serving has no simulated clock).

    ``action`` is one of :data:`SERVE_ACTIONS`; ``job`` the request
    digest, ``client`` the fair-share tenant id, ``queue_depth`` the
    pending-queue depth *after* the step, and ``seconds`` the
    admit-to-complete wall latency (``complete`` only).
    """

    kind: ClassVar[str] = "serve"

    action: str
    job: str = ""
    client: str = ""
    queue_depth: int = 0
    seconds: float = 0.0


#: ``kind`` tag -> event class, for deserialisation.
EVENT_TYPES: Dict[str, Type[TelemetryEvent]] = {
    cls.kind: cls
    for cls in (
        SegmentSwap,
        ModeTransition,
        IsaAllocEvent,
        WritebackEvent,
        PageFaultEvent,
        EpochSample,
        JobRetryEvent,
        ArenaEvent,
        ServeEvent,
    )
}


def _fill_dict_init(cls: Type[TelemetryEvent]) -> None:
    """Give ``cls`` an ``__init__`` that stores its fields straight
    into the instance ``__dict__``.

    The frozen-dataclass ``__init__`` pays one ``object.__setattr__``
    call per field, and events are built on the simulator's hot paths.
    The replacement keeps the same signature and defaults; everything
    else (``FrozenInstanceError`` on assignment, ``==``, ``hash``,
    ``repr``, :func:`dataclasses.fields`, pickling) is the dataclass's
    own and unchanged.
    """
    params, body, defaults = [], [], {}
    for spec in fields(cls):
        name = spec.name
        if spec.default is MISSING:
            params.append(name)
        else:
            defaults[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
        body.append(f"    d[{name!r}] = {name}")
    source = (
        f"def __init__(self, {', '.join(params)}):\n"
        "    d = self.__dict__\n" + "\n".join(body)
    )
    namespace: Dict[str, Any] = {}
    exec(source, defaults, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init  # type: ignore[misc]


for _cls in EVENT_TYPES.values():
    _fill_dict_init(_cls)
del _cls


def event_from_dict(data: Mapping[str, Any]) -> TelemetryEvent:
    """Inverse of :meth:`TelemetryEvent.to_dict`."""
    try:
        cls = EVENT_TYPES[data["kind"]]
    except KeyError:
        raise ValueError(f"unknown event kind {data.get('kind')!r}") from None
    kwargs = {name: data[name] for name in cls.__match_args__ if name in data}
    try:
        return cls(**kwargs)
    except TypeError:  # the only way it fails: a required field is absent
        missing = [f.name for f in fields(cls)
                   if f.name not in kwargs and f.default is MISSING]
        raise ValueError(f"{cls.kind} event missing fields {missing}") from None


__all__ = [
    "ARENA_ACTIONS",
    "ArenaEvent",
    "EVENT_TYPES",
    "EpochSample",
    "IsaAllocEvent",
    "JobRetryEvent",
    "ModeTransition",
    "PageFaultEvent",
    "SERVE_ACTIONS",
    "SegmentSwap",
    "ServeEvent",
    "SWAP_REASONS",
    "TelemetryEvent",
    "WritebackEvent",
    "event_from_dict",
]

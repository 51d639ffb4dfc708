"""Typed telemetry events — the vocabulary of the event bus.

Every headline claim of the paper is a claim about *event sequences*:
mode-bit flips between PoM and cache mode (Figure 16), swap traffic
under the competing counter (Figure 17), the ISA-Alloc/ISA-Free stream
driving the ABV (Figures 8-14).  Each event class below captures one
such occurrence with enough context to audit SRRT consistency after
the fact (or live, see :mod:`repro.telemetry.auditor`) and to export
the run as a Chrome/Perfetto trace.

Events are frozen dataclasses with a stable ``kind`` tag; the
``to_dict``/:func:`event_from_dict` round trip is the wire format used
to ship events out of :class:`~repro.runtime.SweepExecutor` worker
processes and into the JSONL exporter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
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
        """JSON-safe plain dict, ``kind`` tag included."""
        data = asdict(self)
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


#: ``ArenaEvent.action`` values.
ARENA_ACTIONS = (
    "publish",   # parent exported the compiled traces to shared memory
    "attach",    # a cell attached read-only views over the segment
    "detach",    # the cell released its attachment
    "unlink",    # parent destroyed the segment at end of sweep
)


@dataclass(frozen=True)
class ArenaEvent(TelemetryEvent):
    """Shared-memory trace-arena lifecycle (host-side, ``time_ns`` 0).

    The parent emits ``publish``/``unlink`` around a sweep; each
    simulated cell that replays from the arena emits ``attach`` and
    ``detach`` into its captured stream.  ``action`` is one of
    :data:`ARENA_ACTIONS`; ``bytes`` is the segment payload size and
    ``workloads`` the number of compiled traces it holds (1 for
    cell-side events).
    """

    kind: ClassVar[str] = "arena"

    action: str
    segment: str
    bytes: int = 0
    workloads: int = 0


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


def event_from_dict(data: Mapping[str, Any]) -> TelemetryEvent:
    """Inverse of :meth:`TelemetryEvent.to_dict`."""
    try:
        cls = EVENT_TYPES[data["kind"]]
    except KeyError:
        raise ValueError(f"unknown event kind {data.get('kind')!r}") from None
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in names})


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

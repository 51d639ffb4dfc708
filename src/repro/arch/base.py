"""Common interface of every memory architecture."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable

from repro.config import SystemConfig
from repro.dram import HeterogeneousMemory
from repro.stats import CounterSet, Histogram
from repro.telemetry.bus import NULL_BUS, EventBus, NullBus


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one 64B memory access presented to an architecture."""

    latency_ns: float
    fast_hit: bool
    #: True when the access was served from a swap staging buffer.
    buffered: bool = False


class MemoryArchitecture(abc.ABC):
    """A heterogeneous (or flat) memory organisation.

    Subclasses translate OS physical addresses into device accesses,
    manage remapping/caching state, and expose ISA-Alloc/ISA-Free entry
    points (no-ops for designs without OS co-operation).
    """

    name: str = "abstract"

    def __init__(
        self,
        config: SystemConfig,
        counters: CounterSet | None = None,
        telemetry: EventBus | NullBus | None = None,
    ):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        #: Structured event bus (:mod:`repro.telemetry`).  Defaults to
        #: the shared null bus — emit sites gate on
        #: ``self.telemetry.enabled`` so the disabled path costs one
        #: attribute load and a false branch.  Attach a live bus either
        #: here or by assignment (``simulate(..., telemetry=bus)`` does
        #: the latter).
        self.telemetry = telemetry if telemetry is not None else NULL_BUS
        self.memory = HeterogeneousMemory(config, self.counters)
        #: Demand-access latency distribution (ns); exposes the tail
        #: behaviour that averages hide (swap interference shows up as
        #: a long tail well before it moves the mean).
        self.latency_histogram = Histogram(
            [10, 20, 40, 80, 160, 320, 640, 1280, 2560]
        )

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def access_timing(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> tuple[float, bool]:
        """Service one 64B access at OS physical ``address``.

        Returns ``(latency_ns, fast_hit)``.  This is the allocation-free
        demand path: subclasses perform the translation, device access,
        and policy bookkeeping here and return a plain tuple; outcome
        accounting (``arch.*`` counters, latency histogram) is layered
        on by :meth:`access` per access or by
        :meth:`record_access_batch` in bulk.
        """

    def access(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> AccessResult:
        """Service one 64B access and record its outcome.

        Thin wrapper over :meth:`access_timing` kept as the public
        scalar entry point (tests and tools poke architectures one
        access at a time); the chunked kernel skips the per-access
        :class:`AccessResult` allocation by using ``access_timing``
        directly.
        """
        latency_ns, fast_hit = self.access_timing(address, now_ns, is_write)
        result = AccessResult(latency_ns=latency_ns, fast_hit=fast_hit)
        self.record_access_outcome(result)
        return result

    # ------------------------------------------------------------------
    # OS co-design hooks (default: architecture is OS-agnostic)
    # ------------------------------------------------------------------

    def isa_alloc(self, segment_id: int) -> None:
        """The OS allocated segment ``segment_id`` (OS address domain)."""
        self.isa_alloc_many((segment_id,))

    def isa_alloc_many(self, segments: Iterable[int]) -> None:
        """The OS allocated each of ``segments``, in order: one
        ISA-Alloc per segment (Algorithm 1's up-front pass).

        Each design that co-operates with the OS has exactly one
        ISA-Alloc body, this loop; :meth:`isa_alloc` is its one-segment
        case.  A segment's ``(local, group)`` is ``divmod(segment,
        num_fast_segments)``, the arithmetic of
        :meth:`~repro.arch.remap.SegmentGeometry.group_and_local`.
        A loop may tally its counters in local ints and add each once
        at the end: nothing reads ``counters`` between one call's first
        and last segment (the invariant auditor reads only group
        state), and integral tallies are exact in any order.  Events
        are emitted at the same post-state points, in segment order.
        The default does nothing: the architecture is OS-agnostic.
        """

    def isa_free(self, segment_id: int) -> None:
        """The OS freed segment ``segment_id`` (OS address domain)."""

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def os_visible_bytes(self) -> int:
        """Memory capacity the OS can allocate (PoM designs expose both
        memories; caches hide the fast one)."""
        return self.config.total_capacity_bytes

    # ------------------------------------------------------------------
    # Reporting helpers shared by the experiment runners
    # ------------------------------------------------------------------

    def record_access_outcome(self, result: AccessResult) -> None:
        self.counters.add("arch.accesses")
        self.counters.add("arch.latency_ns", result.latency_ns)
        self.latency_histogram.record(result.latency_ns)
        if result.fast_hit:
            self.counters.add("arch.fast_hits")

    def record_access_batch(self, latencies, fast_hits: int) -> None:
        """Bulk form of :meth:`record_access_outcome`.

        ``latencies`` must hold every serviced access's latency in
        issue order; ``fast_hits`` how many of them hit the stacked
        DRAM.  Count increments collapse to one addition (exact for
        integers), the latency sum and histogram fold sequentially —
        so the final stats are bit-identical to per-access recording.
        """
        n = len(latencies)
        if not n:
            return
        self.counters.add("arch.accesses", n)
        self.counters.add_many("arch.latency_ns", latencies)
        self.latency_histogram.observe_array(latencies)
        if fast_hits:
            self.counters.add("arch.fast_hits", fast_hits)

    # ------------------------------------------------------------------
    # Bulk-stats plumbing for the chunked kernel
    # ------------------------------------------------------------------

    def _batch_devices(self) -> tuple:
        """The DRAM devices whose demand-path counters may be deferred
        while a batched run is in flight."""
        return (self.memory.fast, self.memory.slow)

    #: True in bulk-stats mode: demand paths then count their per-access
    #: policy counters in plain ints that :meth:`_flush_arch_tallies`
    #: publishes.
    _batch_stats = False

    def begin_batch_stats(self) -> None:
        """Enter bulk-stats mode: device demand and transfer counters
        and per-access policy counters are tallied locally until flushed
        (see :meth:`repro.dram.DramDevice.flush_deferred_stats`)."""
        for device in self._batch_devices():
            device.begin_deferred_stats()
        self._batch_stats = True

    def flush_batch_stats(self) -> None:
        """Publish pending tallies (e.g. before a counter read or
        reset)."""
        for device in self._batch_devices():
            device.flush_deferred_stats()
        self._flush_arch_tallies()

    def end_batch_stats(self) -> None:
        """Flush pending tallies and leave bulk-stats mode."""
        for device in self._batch_devices():
            device.end_deferred_stats()
        self._flush_arch_tallies()
        self._batch_stats = False

    def _flush_arch_tallies(self) -> None:
        """Publish and zero the design's deferred policy counters.

        Each tally counts ``+1`` increments, so one ``+n`` lands on the
        same value exactly (as for the device tallies).  Designs without
        such counters have nothing to flush.
        """

    @property
    def fast_hit_rate(self) -> float:
        """Stacked-DRAM hit rate as reported in Figure 15."""
        return self.counters.ratio("arch.fast_hits", "arch.accesses")

    @property
    def average_latency_ns(self) -> float:
        return self.counters.ratio("arch.latency_ns", "arch.accesses")

    @property
    def swap_count(self) -> float:
        """Segment swaps (Figure 17's metric)."""
        return self.counters["swap.swaps"]

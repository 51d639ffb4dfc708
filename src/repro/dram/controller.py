"""Heterogeneous memory front end: two devices plus swap buffers.

:class:`HeterogeneousMemory` bundles the fast (stacked) and slow
(off-chip) :class:`~repro.dram.device.DramDevice` instances behind one
interface, and implements the PoM *fast-swap* machinery the paper builds
on (Section V-D1): segments in transit between the memories are staged in
per-controller local buffers, and loads/stores to in-transit segments are
serviced from those buffers at SRAM-buffer latency instead of waiting for
the full swap to complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.dram.device import DramDevice
from repro.stats import CounterSet

#: Latency of hitting a swap-staging SRAM buffer, in nanoseconds.  The
#: buffers are small on-controller SRAM; this matches the few-cycle
#: service the fast-swap design assumes.
BUFFER_HIT_NS = 4.0


@dataclass
class TransferBuffer:
    """A local buffer holding one in-transit segment (fast-swap)."""

    segment_id: int
    dirty: bool = False
    completes_ns: float = 0.0
    touches: int = field(default=0)

    def in_flight(self, now_ns: float) -> bool:
        return now_ns < self.completes_ns


class HeterogeneousMemory:
    """The fast+slow DRAM pair with fast-swap transfer buffers."""

    def __init__(self, config: SystemConfig, counters: CounterSet | None = None):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        self.fast = DramDevice(config.fast_mem, self.counters)
        self.slow = DramDevice(config.slow_mem, self.counters)
        self._buffers: dict[int, TransferBuffer] = {}

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(
        self,
        in_fast: bool,
        device_address: int,
        now_ns: float,
        is_write: bool = False,
        segment_id: int | None = None,
    ) -> float:
        """Service a 64B access; returns latency in ns.

        ``segment_id`` (the remap-domain segment number) lets in-transit
        segments hit the fast-swap buffers.
        """
        if segment_id is not None:
            buffer = self._buffers.get(segment_id)
            # Inlined ``buffer.in_flight(now_ns)`` — one attribute
            # compare instead of a method call on the demand path.
            if buffer is not None and now_ns < buffer.completes_ns:
                buffer.touches += 1
                if is_write:
                    buffer.dirty = True
                self.counters.add("swap.buffer_hits")
                return BUFFER_HIT_NS
        device = self.fast if in_fast else self.slow
        return device.access(device_address, now_ns, is_write)

    # ------------------------------------------------------------------
    # Swap path
    # ------------------------------------------------------------------

    def start_swap(
        self,
        fast_address: int,
        slow_address: int,
        now_ns: float,
        fast_segment_id: int,
        slow_segment_id: int,
    ) -> float:
        """Swap one segment between the memories; returns completion ns.

        Both directions transfer a full segment: each device performs a
        read of its outgoing segment and a write of its incoming one
        (staged through the local buffers), so each device is charged
        two segment transfers — the bandwidth bloat that makes swaps
        expensive (the paper counts dirty cache-mode evictions as swaps
        for exactly this reason).
        """
        seg = self.config.segment_bytes
        fast_read = self.fast.transfer(fast_address, seg, now_ns)
        slow_read = self.slow.transfer(slow_address, seg, now_ns)
        fast_done = self.fast.transfer(fast_address, seg, max(fast_read, slow_read))
        slow_done = self.slow.transfer(slow_address, seg, max(fast_read, slow_read))
        completes = max(fast_done, slow_done)
        self._stage(fast_segment_id, completes)
        self._stage(slow_segment_id, completes)
        self.counters.add("swap.swaps")
        self.counters.add("swap.bytes", 4 * seg)
        return completes

    def start_fill(
        self,
        fast_address: int,
        slow_address: int,
        now_ns: float,
        slow_segment_id: int,
        writeback: bool = False,
    ) -> float:
        """Cache-mode fill: copy a slow segment into a free fast segment.

        When ``writeback`` is set the previously cached segment is first
        written back to the slow memory (dirty eviction), which costs a
        second pair of transfers — the paper accounts such evict+fill
        pairs as swaps, which :mod:`repro.core` mirrors.
        """
        seg = self.config.segment_bytes
        start = now_ns
        if writeback:
            wb_fast = self.fast.transfer(fast_address, seg, start)
            wb_slow = self.slow.transfer(slow_address, seg, start)
            start = max(wb_fast, wb_slow)
            self.counters.add("swap.writebacks")
            self.counters.add("swap.bytes", 2 * seg)
        slow_done = self.slow.transfer(slow_address, seg, start)
        fast_done = self.fast.transfer(fast_address, seg, start)
        completes = max(slow_done, fast_done)
        self._stage(slow_segment_id, completes)
        self.counters.add("swap.fills")
        self.counters.add("swap.bytes", 2 * seg)
        return completes

    def _stage(self, segment_id: int, completes_ns: float) -> None:
        self._buffers[segment_id] = TransferBuffer(
            segment_id=segment_id, completes_ns=completes_ns
        )
        # Bound the buffer map: expired entries are garbage-collected
        # opportunistically to keep the model O(1) in memory.
        if len(self._buffers) > 64:
            expired = [
                sid
                for sid, buf in self._buffers.items()
                if buf.completes_ns <= completes_ns - 1.0
            ]
            for sid in expired:
                del self._buffers[sid]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def swaps(self) -> float:
        return self.counters["swap.swaps"]

    @property
    def fills(self) -> float:
        return self.counters["swap.fills"]

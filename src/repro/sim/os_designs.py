"""OS-managed heterogeneous memory designs (Sections II-B, III-A).

These are the software baselines of Figures 2 and 20: the memories are
exposed to the OS as two NUMA nodes and placement is decided purely in
software.

* :class:`FirstTouchMemory` — the NUMA-aware "local" allocator: pages
  land in the fast node in *allocation order* until it fills, then
  spill to the slow node, and never move again.  Allocation order is
  uncorrelated with hotness, so the stacked hit rate degenerates to
  roughly the capacity ratio (Figure 2a's 18.5%).
* :class:`AutoNumaMemory` — AutoNUMA on top of first-touch: scan epochs
  poison a sample of pages, whose next access takes a NUMA hint fault
  (a trapped minor fault costing microseconds); hot misplaced pages
  migrate into the fast node while it has free space; once full,
  migration fails with -ENOMEM and the hit rate decays with phase churn
  (Figures 2b/2c).  Hint faults and migration copies are the costs that
  keep AutoNUMA below the hardware co-designs in Figure 20.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.config import SystemConfig
from repro.arch.base import MemoryArchitecture
from repro.arch.remap import SegmentGeometry
from repro.osmodel.autonuma import (
    FAST_NODE,
    SLOW_NODE,
    AutoNumaBalancer,
    AutoNumaConfig,
)
from repro.stats import CounterSet


class FirstTouchMemory(MemoryArchitecture):
    """NUMA-aware first-touch allocation, no migration."""

    name = "numa_first_touch"

    def __init__(self, config: SystemConfig, counters: CounterSet | None = None):
        super().__init__(config, counters)
        self.geometry = SegmentGeometry.from_config(config)
        self._placement: Dict[int, bool] = {}  # segment -> in_fast
        self._slot: Dict[int, int] = {}        # segment -> device slot
        self._fast_used = 0
        self._slow_used = 0
        self._free_fast_slots: list[int] = []
        self._free_slow_slots: list[int] = []
        #: Fast segments first-touch may fill before spilling to slow.
        self._fast_budget = self.geometry.num_fast_segments

    def isa_alloc_many(self, segments: Iterable[int]) -> None:
        """Allocation-order placement: fast node until its budget is
        used up; an already placed segment stays where it is."""
        placement = self._placement
        slots = self._slot
        free_fast = self._free_fast_slots
        free_slow = self._free_slow_slots
        budget = self._fast_budget
        num_slow = self.geometry.num_slow_segments
        fast_used = self._fast_used
        slow_used = self._slow_used
        placed_fast = placed_slow = 0
        for segment in segments:
            if segment in placement:
                continue
            if fast_used < budget:
                placement[segment] = True
                slots[segment] = free_fast.pop() if free_fast else fast_used
                fast_used += 1
                placed_fast += 1
            else:
                placement[segment] = False
                slots[segment] = (
                    free_slow.pop() if free_slow else slow_used % num_slow
                )
                slow_used += 1
                placed_slow += 1
        self._fast_used = fast_used
        self._slow_used = slow_used
        if placed_fast:
            self.counters.add("numa.placed_fast", placed_fast)
        if placed_slow:
            self.counters.add("numa.placed_slow", placed_slow)

    def isa_free(self, segment_id: int) -> None:
        in_fast = self._placement.pop(segment_id, None)
        if in_fast is None:
            return
        slot = self._slot.pop(segment_id)
        if in_fast:
            self._fast_used -= 1
            self._free_fast_slots.append(slot)
        else:
            self._free_slow_slots.append(slot)

    def _device_address(self, segment_id: int, in_fast: bool, offset: int) -> int:
        return self._slot[segment_id] * self.geometry.segment_bytes + offset

    def access_timing(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> tuple[float, bool]:
        segment = self.geometry.segment_of(address)
        in_fast = self._placement.get(segment)
        if in_fast is None:
            # Untracked access (first touch happens here for robustness).
            self.isa_alloc(segment)
            in_fast = self._placement[segment]
        offset = address % self.geometry.segment_bytes
        device_address = self._device_address(segment, in_fast, offset)
        latency = (
            self.memory.fast.access(device_address, now_ns, is_write)
            if in_fast
            else self.memory.slow.access(device_address, now_ns, is_write)
        )
        return latency, bool(in_fast)


class AutoNumaMemory(FirstTouchMemory):
    """First-touch placement plus AutoNUMA epoch migration."""

    name = "autonuma"

    #: Cost of one NUMA hint fault (trap, fixup, bookkeeping) in ns.
    HINT_FAULT_NS = 1500.0

    def __init__(
        self,
        config: SystemConfig,
        autonuma: AutoNumaConfig | None = None,
        epoch_accesses: int = 20_000,
        initial_fast_fill: float = 0.9,
        counters: CounterSet | None = None,
    ) -> None:
        super().__init__(config, counters)
        if epoch_accesses <= 0:
            raise ValueError("epoch length must be positive")
        if not 0.0 < initial_fast_fill <= 1.0:
            raise ValueError("initial fill must be in (0, 1]")
        self.autonuma_config = (
            autonuma if autonuma is not None else AutoNumaConfig()
        )
        self.epoch_accesses = epoch_accesses
        self.balancer = AutoNumaBalancer(
            fast_capacity_pages=self.geometry.num_fast_segments,
            config=self.autonuma_config,
            counters=self.counters,
        )
        # First-touch pre-fills only part of the fast node (footnote 3:
        # some stacked pages are pre-allocated; the rest is headroom
        # AutoNUMA migrates into).
        self._fast_budget = int(
            self.geometry.num_fast_segments * initial_fast_fill
        )
        # Epoch length is access-driven in the trace simulator; the
        # cycle-based scan period of the real kernel maps onto it via
        # the workload's access rate.
        self._accesses_this_epoch = 0
        self._epoch_index = 0
        self._epoch_hint_faulted: set[int] = set()

    # -- placement ------------------------------------------------------

    def isa_alloc_many(self, segments: Iterable[int]) -> None:
        """First-touch placement, mirrored into the balancer in the
        same order (the balancer is read only once the call returns)."""
        placement = self._placement
        fresh = [s for s in dict.fromkeys(segments) if s not in placement]
        super().isa_alloc_many(fresh)
        place = self.balancer.place
        for segment in fresh:
            place(segment, FAST_NODE if placement[segment] else SLOW_NODE)

    def isa_free(self, segment_id: int) -> None:
        if segment_id in self._placement:
            self.balancer.release(segment_id)
        super().isa_free(segment_id)

    # -- demand path with hint faults ------------------------------------

    def access_timing(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> tuple[float, bool]:
        segment = self.geometry.segment_of(address)
        if segment not in self._placement:
            self.isa_alloc(segment)
        self.balancer.record_access(segment)
        self._accesses_this_epoch += 1
        if self._accesses_this_epoch >= self.epoch_accesses:
            self._accesses_this_epoch = 0
            self._epoch_index += 1
            self._epoch_hint_faulted.clear()
            report = self.balancer.end_epoch()
            self._apply_migrations(report, now_ns)
        in_fast = self.balancer.node_of(segment) == FAST_NODE
        offset = address % self.geometry.segment_bytes
        device_address = self._device_address(segment, in_fast, offset)
        latency = (
            self.memory.fast.access(device_address, now_ns, is_write)
            if in_fast
            else self.memory.slow.access(device_address, now_ns, is_write)
        )
        latency += self._hint_fault_penalty(segment)
        return latency, in_fast

    def _hint_fault_penalty(self, segment: int) -> float:
        """Charge the trapped minor fault of a poisoned page once per
        scan epoch (the sampling mechanism of Section II-B2)."""
        if segment in self._epoch_hint_faulted:
            return 0.0
        sample = self.autonuma_config.scan_sample_fraction
        # Deterministic poisoning: a segment is sampled this epoch when
        # its (segment, epoch) hash falls inside the sample fraction.
        token = (segment * 2654435761 + self._epoch_index * 40503) & 0xFFFF
        if token >= int(sample * 0x10000):
            return 0.0
        self._epoch_hint_faulted.add(segment)
        self.counters.add("autonuma.hint_faults")
        return self.HINT_FAULT_NS

    def _apply_migrations(self, report, now_ns: float = 0.0) -> None:
        """Sync the placement map with the balancer and charge each
        migration as a slow-read + fast-write segment copy — the data
        movement that makes coarse-grained AutoNUMA migration bursts
        interfere with demand traffic (Section III-A2)."""
        if not report.migrated:
            return
        migrated = 0
        seg_bytes = self.geometry.segment_bytes
        for segment, placed_fast in list(self._placement.items()):
            node_fast = self.balancer.node_of(segment) == FAST_NODE
            if node_fast and not placed_fast:
                self._placement[segment] = True
                old_slot = self._slot[segment]
                self._free_slow_slots.append(old_slot)
                new_slot = (
                    self._free_fast_slots.pop()
                    if self._free_fast_slots
                    else self._fast_used
                )
                self._slot[segment] = new_slot
                self._fast_used += 1
                migrated += 1
                self.memory.slow.transfer(
                    old_slot * seg_bytes, seg_bytes, now_ns
                )
                self.memory.fast.transfer(
                    new_slot * seg_bytes, seg_bytes, now_ns
                )
        self.counters.add("autonuma.page_copies", migrated)

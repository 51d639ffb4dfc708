"""Polymorphic Memory (Chung et al. patent US 2012/0221785).

The Figure 22 comparison point: the hardware leverages OS-visible free
space *in the stacked DRAM only* as a cache, but — unlike PoM and
Chameleon — never swaps frequently used off-chip pages into allocated
stacked segments.  Allocated groups therefore behave like a static flat
mapping, under-utilising the stacked DRAM, which is why Chameleon beats
it by 10.5% despite harvesting the same amount of free space.
"""

from __future__ import annotations

from typing import Iterable

from repro.config import SystemConfig
from repro.arch.base import MemoryArchitecture
from repro.arch.remap import GroupState, GroupTable, Mode
from repro.stats import CounterSet


class PolymorphicMemory(MemoryArchitecture, GroupTable):
    """Free stacked segments cache their group; no hot-page swapping."""

    name = "polymorphic"
    #: Boot state: nothing allocated, stacked slot free => cache.
    boot_mode = Mode.CACHE

    def __init__(self, config: SystemConfig, counters: CounterSet | None = None):
        super().__init__(config, counters)
        self._init_groups(config)

    # ------------------------------------------------------------------
    # ISA hooks (the patent's OS co-operation)
    # ------------------------------------------------------------------

    def isa_alloc_many(self, segments: Iterable[int]) -> None:
        groups = self._groups
        num_fast = self.geometry.num_fast_segments
        to_static = 0
        for segment in segments:
            local, group = divmod(segment, num_fast)
            state = groups.get(group)
            if state is None:
                state = self.group_state(group)
            state.abv[local] = True
            if local == 0:
                # Stacked segment claimed: stop caching (writeback if
                # dirty).
                if state.cached is not None and state.dirty:
                    self._writeback(group, state, 0.0)
                state.cached = None
                state.dirty = False
                state.mode = Mode.POM
                to_static += 1
        if to_static:
            self.counters.add("polymorphic.to_static", to_static)

    def isa_free(self, segment_id: int) -> None:
        group, local = self.geometry.group_and_local(segment_id)
        state = self.group_state(group)
        state.abv[local] = False
        if local == 0 and state.mode is not Mode.CACHE:
            state.mode = Mode.CACHE
            state.cached = None
            state.dirty = False
            self.counters.add("polymorphic.to_cache")

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access_timing(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> tuple[float, bool]:
        segment = self.geometry.segment_of(address)
        group, local = self.geometry.group_and_local(segment)
        offset = address % self.geometry.segment_bytes
        state = self.group_state(group)

        if local == 0:
            # Static mapping: the stacked segment always lives in slot 0.
            in_fast, device_address = self.geometry.slot_device_address(
                group, 0, offset
            )
            latency = self.memory.access(
                in_fast, device_address, now_ns, is_write, segment_id=segment
            )
            return latency, True

        if state.mode is Mode.CACHE and state.cached == local:
            _, cache_address = self.geometry.slot_device_address(
                group, 0, offset
            )
            latency = self.memory.access(
                True, cache_address, now_ns, is_write, segment_id=segment
            )
            if is_write:
                state.dirty = True
            self.counters.add("polymorphic.cache_hits")
            return latency, True

        # Off-chip access at the segment's home location.
        in_fast, device_address = self.geometry.slot_device_address(
            group, local, offset
        )
        latency = self.memory.access(
            in_fast, device_address, now_ns, is_write, segment_id=segment
        )
        if state.mode is Mode.CACHE:
            self._fill(group, state, local, now_ns)
        return latency, False

    # ------------------------------------------------------------------

    def _fill(
        self, group: int, state: GroupState, local: int, now_ns: float
    ) -> None:
        """Cache the just-accessed off-chip segment in the free slot 0."""
        writeback = state.cached is not None and state.dirty
        _, fast_address = self.geometry.slot_device_address(group, 0, 0)
        _, slow_address = self.geometry.slot_device_address(group, local, 0)
        self.memory.start_fill(
            fast_address=fast_address,
            slow_address=slow_address,
            now_ns=now_ns,
            slow_segment_id=self.geometry.segment_at(group, local),
            writeback=writeback,
        )
        state.cached = local
        state.dirty = False
        self.counters.add("polymorphic.fills")

    def _writeback(self, group: int, state: GroupState, now_ns: float) -> None:
        assert state.cached is not None
        _, fast_address = self.geometry.slot_device_address(group, 0, 0)
        _, slow_address = self.geometry.slot_device_address(
            group, state.cached, 0
        )
        segment_bytes = self.geometry.segment_bytes
        self.memory.fast.transfer(fast_address, segment_bytes, now_ns)
        self.memory.slow.transfer(slow_address, segment_bytes, now_ns)
        self.counters.add("polymorphic.writebacks")

    # ------------------------------------------------------------------

    def cache_mode_fraction(self) -> float:
        """Fraction of touched groups currently in cache mode."""
        if not self._groups:
            return 0.0
        in_cache = sum(
            1 for state in self._groups.values() if state.mode is Mode.CACHE
        )
        return in_cache / len(self._groups)

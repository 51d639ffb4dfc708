"""Hardware-managed Part of Memory (Sim et al., MICRO 2014).

The paper's baseline: both memories are OS-visible, 2KB segments are
remapped within segment groups via the SRT, and a per-group *shared
competing counter* decides when a frequently accessed off-chip segment
should swap with the group's stacked-DRAM resident.  Swaps move whole
segments in both directions (the fast-swap local buffers service
in-transit accesses) and are issued regardless of whether the data is
allocated — PoM is free-space agnostic, which is precisely the waste
Chameleon removes.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.arch.base import MemoryArchitecture
from repro.arch.remap import GroupState, GroupTable, Mode
from repro.stats import CounterSet
from repro.telemetry.events import SegmentSwap

#: Default minimum number of competing-counter wins before a swap
#: (Section III-E: PoM gates swaps behind an access-count threshold).
DEFAULT_SWAP_THRESHOLD = 4

#: Group accesses after a swap during which the counter may not trigger
#: another swap in the same group — the trace-level analogue of the PoM
#: baseline's epoch-gated remapping decisions.
DEFAULT_SWAP_COOLDOWN = 64

#: The SRRT mode bit the demand path branches on, bound at module level.
_CACHE = Mode.CACHE


class PoMArchitecture(MemoryArchitecture, GroupTable):
    """PoM with segment-restricted remapping and competing counters."""

    name = "pom"

    def __init__(
        self,
        config: SystemConfig,
        swap_threshold: int = DEFAULT_SWAP_THRESHOLD,
        swap_cooldown: int = DEFAULT_SWAP_COOLDOWN,
        counters: CounterSet | None = None,
    ) -> None:
        if swap_threshold < 1:
            raise ValueError("swap threshold must be >= 1")
        if swap_cooldown < 0:
            raise ValueError("swap cooldown must be >= 0")
        super().__init__(config, counters)
        self.swap_threshold = swap_threshold
        self.swap_cooldown = swap_cooldown
        self._init_groups(config)
        # Hot-path constants mirroring the geometry (attribute chains
        # through the frozen dataclass dominated the demand path).
        self._segment_bytes = self.geometry.segment_bytes
        self._num_fast = self.geometry.num_fast_segments
        self._total_segments = self.geometry.total_segments

    # ------------------------------------------------------------------

    def access_timing(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> tuple[float, bool]:
        # The one PoM-family demand path.  The SRRT lookup is a table
        # read and a mode-bit branch (Section V, Figure 7); the
        # translation is ``geometry.segment_of`` + ``group_and_local``
        # + the offset modulo as one ``divmod`` and plain arithmetic.
        # Cache-mode groups exist only in the Chameleon-family
        # subclasses, which define ``_cache_mode_access``.
        segment_bytes = self._segment_bytes
        segment, offset = divmod(address, segment_bytes)
        if not 0 <= segment < self._total_segments:
            raise ValueError(f"address {address:#x} outside OS memory")
        num_fast = self._num_fast
        if segment < num_fast:
            group = segment
            local = 0
        else:
            rel = segment - num_fast
            group = rel % num_fast
            local = 1 + rel // num_fast
        state = self._groups.get(group)
        if state is None:
            state = self.group_state(group)
        if state.mode is _CACHE:
            return self._cache_mode_access(
                group, state, segment, local, offset, now_ns, is_write
            )
        slot = state.slot_of[local]
        if slot == 0:
            latency = self.memory.access(
                True,
                group * segment_bytes + offset,
                now_ns,
                is_write,
                segment_id=segment,
            )
            return latency, True
        latency = self.memory.access(
            False,
            ((slot - 1) * num_fast + group) * segment_bytes + offset,
            now_ns,
            is_write,
            segment_id=segment,
        )
        self._update_counter(group, state, local, now_ns)
        return latency, False

    def _update_counter(
        self, group: int, state: GroupState, local: int, now_ns: float
    ) -> None:
        """Shared competing counter (majority-element style)."""
        if state.cooldown > 0:
            state.cooldown -= 1
            return
        if state.candidate == local:
            state.count += 1
        else:
            state.count -= 1
            if state.count <= 0:
                state.candidate = local
                state.count = 1
        if state.candidate == local and state.count >= self.swap_threshold:
            self._swap_with_fast(group, state, local, now_ns)
            state.candidate = None
            state.count = 0
            state.cooldown = self.swap_cooldown

    def _swap_with_fast(
        self,
        group: int,
        state: GroupState,
        local: int,
        now_ns: float,
        reason: str = "counter",
    ) -> None:
        """Swap ``local`` (off-chip) with the stacked-slot resident."""
        slot_of = state.slot_of
        slot = slot_of[local]
        if slot == 0:
            return
        # ``geometry.segment_at`` (``local * NF + group``; same range
        # errors), ``slot_device_address`` and ``state.swap_slots(0,
        # slot)`` as plain arithmetic, as in ``access_timing``.
        num_fast = self._num_fast
        if not 0 <= group < num_fast:
            raise ValueError(f"group {group} out of range")
        if not 0 <= local < len(slot_of):
            raise ValueError(f"local id {local} out of range")
        segment_bytes = self._segment_bytes
        seg_at = state.seg_at
        fast_resident = seg_at[0]
        self.memory.start_swap(
            group * segment_bytes,
            ((slot - 1) * num_fast + group) * segment_bytes,
            now_ns,
            fast_resident * num_fast + group,
            local * num_fast + group,
        )
        moved = seg_at[slot]
        seg_at[0], seg_at[slot] = moved, fast_resident
        slot_of[fast_resident], slot_of[moved] = slot, 0
        self.counters.add("pom.swaps")
        bus = self.telemetry
        if bus.enabled:
            # Positional (time_ns, group, moved_local, displaced_local,
            # reason): cheaper than keywords on a per-swap event.
            bus.emit(SegmentSwap(now_ns, group, local, fast_resident, reason))

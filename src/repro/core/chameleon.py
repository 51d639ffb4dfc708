"""Basic Chameleon co-design (Section V-B, Figures 8-11).

Chameleon inherits the whole PoM machinery — segment-restricted
remapping, shared competing counters, fast swaps — and adds the SRRT
extensions of Figure 7.  The basic design only harvests free space in
the *stacked* DRAM: a group whose stacked segment has been ISA-Freed
operates in cache mode, where the stacked slot caches the group's
off-chip segments with no swap threshold (fill on first access, dirty
bit deciding writebacks).  ISA-Alloc of the stacked segment hands the
slot back to the OS and returns the group to PoM mode.

Accounting follows the paper: a *clean* cache-mode fill moves one
segment and is counted as a fill; evicting a *dirty* cached segment
costs a writeback plus the fill — bandwidth on both memories — and is
"effectively still a swap" (Section VI-B), so it increments the swap
counters exactly like a PoM swap.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.arch.pom import DEFAULT_SWAP_THRESHOLD, PoMArchitecture
from repro.arch.remap import GroupState, Mode
from repro.stats import CounterSet
from repro.telemetry.events import (
    IsaAllocEvent,
    ModeTransition,
    WritebackEvent,
)


#: Cache-mode fill policies.  ``"protect"`` evicts the cached incumbent
#: only after it has gone ``PROTECT_MISS_STREAK`` consecutive group
#: misses without a hit (thrash protection for low-spatial-locality
#: patterns: a still-hot incumbent is never ping-ponged out, a cold one
#: is replaced within a couple of misses — far quicker than the PoM
#: competing-counter threshold).  ``"always"`` fills on every miss.
FILL_POLICIES = ("protect", "always")

#: Consecutive incumbent-missing group misses before a fill replaces a
#: recently hit incumbent under the "protect" policy.
PROTECT_MISS_STREAK = 3

#: Group accesses after a cache-mode fill before the next fill — half
#: the PoM swap cooldown, so cache mode adapts twice as fast as the
#: competing counter while still resisting thrash.
FILL_COOLDOWN_DIVISOR = 2


class ChameleonArchitecture(PoMArchitecture):
    """PoM + stacked-DRAM free-space caching, driven by ISA-Alloc/Free."""

    name = "chameleon"

    def __init__(
        self,
        config: SystemConfig,
        swap_threshold: int = DEFAULT_SWAP_THRESHOLD,
        swap_cooldown: int | None = None,
        fill_policy: str = "protect",
        counters: CounterSet | None = None,
    ) -> None:
        if fill_policy not in FILL_POLICIES:
            raise ValueError(
                f"fill_policy must be one of {FILL_POLICIES}, "
                f"got {fill_policy!r}"
            )
        kwargs = {} if swap_cooldown is None else {"swap_cooldown": swap_cooldown}
        super().__init__(config, swap_threshold, counters=counters, **kwargs)
        self.fill_policy = fill_policy
        # Per-access cache-mode outcomes counted while batch stats are
        # on (see ``_flush_arch_tallies``).
        self._hits = 0
        self._misses = 0
        self._fills_skipped = 0

    # ------------------------------------------------------------------
    # Group state: Chameleon groups boot in cache mode (ABV all zero)
    # ------------------------------------------------------------------

    def group_state(self, group: int) -> GroupState:
        state = self._groups.get(group)
        if state is None:
            state = GroupState(
                size=self.geometry.segments_per_group, mode=Mode.CACHE
            )
            self._groups[group] = state
        return state

    # ------------------------------------------------------------------
    # ISA-Alloc (Figure 8)
    # ------------------------------------------------------------------

    def isa_alloc(self, segment_id: int) -> None:
        group, local = self.geometry.group_and_local(segment_id)
        state = self.group_state(group)
        self.counters.add("isa.alloc_seen")
        if local != 0:
            # Flow 1-2-4-5: off-chip alloc, continue in the previous mode.
            state.abv[local] = True
            self._emit_isa(segment_id, group, local, alloc=True)
            return

        # Stacked-DRAM address: the group is in cache mode (the stacked
        # segment was free) and may or may not be caching something.
        if state.cached is None:
            # Flow 1-2-3-7-8: caching nothing; just claim the slot.
            self._clear_segment(group, slot=0)
        else:
            # Flow 1-2-3-6-8: caching off-chip segment Q; write it back
            # if dirty, then claim the slot.
            if state.dirty:
                self._evict_writeback(group, state)
            state.cached = None
            state.dirty = False
            self._clear_segment(group, slot=0)
        state.abv[0] = True
        self._enter_pom(group, state)
        self._emit_isa(segment_id, group, local, alloc=True)

    # ------------------------------------------------------------------
    # ISA-Free (Figure 10)
    # ------------------------------------------------------------------

    def isa_free(self, segment_id: int) -> None:
        group, local = self.geometry.group_and_local(segment_id)
        state = self.group_state(group)
        self.counters.add("isa.free_seen")
        if local != 0:
            # Flow 1-2-4-5: off-chip free, continue in the previous mode.
            state.abv[local] = False
            self._emit_isa(segment_id, group, local, alloc=False)
            return

        # Stacked address: the group was operating in PoM mode.
        if state.slot_of[0] != 0:
            # Flow 1-2-3-6-8: the stacked segment is currently remapped
            # off-chip; proactively swap it back so the stacked slot is
            # the one being freed (Figure 11's example).
            self._swap_with_fast(
                group, state, local=0, now_ns=0.0, reason="restore"
            )
            self.counters.add("chameleon.restore_swaps")
        state.abv[0] = False
        self._clear_segment(group, slot=0)
        self._enter_cache(group, state)
        self._emit_isa(segment_id, group, local, alloc=False)

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def _cache_mode_access(
        self,
        group: int,
        state: GroupState,
        segment: int,
        local: int,
        offset: int,
        now_ns: float,
        is_write: bool,
    ) -> tuple[float, bool]:
        """Cache-mode service, reached from the SRRT mode branch of
        :meth:`PoMArchitecture.access_timing` with the translation in
        hand (``offset`` comes from a ``divmod``, so it is in range)."""
        cached = state.cached
        if local == state.seg_at[0] or local == cached:
            # Either the (free) stacked resident itself — tolerated for
            # robustness — or a cache hit on the cached segment.
            latency = self.memory.access(
                True,
                group * self._segment_bytes + offset,
                now_ns,
                is_write,
                segment_id=segment,
            )
            if local == cached:
                if is_write:
                    state.dirty = True
                state.miss_streak = 0
                if self._batch_stats:
                    self._hits += 1
                else:
                    self.counters.add("chameleon.cache_hits")
            return latency, True

        # Miss: access the segment at its current slot (off-chip: the
        # stacked slot holds ``seg_at[0]``), then fill it into the
        # stacked slot — no competing-counter threshold in cache mode;
        # under the "protect" policy a referenced incumbent survives one
        # challenger before being evicted.
        latency = self.memory.access(
            False,
            ((state.slot_of[local] - 1) * self._num_fast + group)
            * self._segment_bytes
            + offset,
            now_ns,
            is_write,
            segment_id=segment,
        )
        batch_stats = self._batch_stats
        if batch_stats:
            self._misses += 1
        else:
            self.counters.add("chameleon.cache_misses")
        if self.fill_policy != "always" and state.cooldown > 0:
            state.cooldown -= 1
        elif self._should_fill(state):
            self._fill_cache(group, state, local, now_ns, is_write)
        else:
            state.miss_streak += 1
            if batch_stats:
                self._fills_skipped += 1
            else:
                self.counters.add("chameleon.fills_skipped")
        return latency, False

    def _flush_arch_tallies(self) -> None:
        counters = self.counters
        for name, count in (
            ("chameleon.cache_hits", self._hits),
            ("chameleon.cache_misses", self._misses),
            ("chameleon.fills_skipped", self._fills_skipped),
        ):
            if count:
                counters.add(name, count)
        self._hits = self._misses = self._fills_skipped = 0

    def _should_fill(self, state: GroupState) -> bool:
        if state.cached is None or self.fill_policy == "always":
            return True
        return state.miss_streak >= PROTECT_MISS_STREAK

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------

    def _fill_cache(
        self,
        group: int,
        state: GroupState,
        local: int,
        now_ns: float,
        first_access_was_write: bool,
    ) -> None:
        writeback = state.cached is not None and state.dirty
        evicted = state.cached
        _, fast_address = self.geometry.slot_device_address(group, 0, 0)
        _, slow_address = self.geometry.slot_device_address(
            group, state.slot_of[local], 0
        )
        self.memory.start_fill(
            fast_address=fast_address,
            slow_address=slow_address,
            now_ns=now_ns,
            slow_segment_id=self.geometry.segment_at(group, local),
            writeback=writeback,
        )
        if writeback:
            # A dirty eviction consumes bandwidth on both memories and
            # is accounted as a swap (Section VI-B).
            self.counters.add("swap.swaps")
            self.counters.add("chameleon.dirty_evictions")
            bus = self.telemetry
            if bus.enabled:
                bus.emit(
                    WritebackEvent(time_ns=now_ns, group=group, local=evicted)
                )
        state.cached = local
        state.dirty = first_access_was_write
        state.miss_streak = 0
        state.cooldown = max(1, self.swap_cooldown // FILL_COOLDOWN_DIVISOR)
        self.counters.add("chameleon.fills")

    def _evict_writeback(self, group: int, state: GroupState) -> None:
        """Write the dirty cached segment back to its home slot."""
        assert state.cached is not None
        _, fast_address = self.geometry.slot_device_address(group, 0, 0)
        _, slow_address = self.geometry.slot_device_address(
            group, state.slot_of[state.cached], 0
        )
        seg = self.geometry.segment_bytes
        self.memory.fast.transfer(fast_address, seg, 0.0)
        self.memory.slow.transfer(slow_address, seg, 0.0)
        self.counters.add("swap.swaps")
        self.counters.add("chameleon.dirty_evictions")
        bus = self.telemetry
        if bus.enabled:
            bus.emit(
                WritebackEvent(time_ns=0.0, group=group, local=state.cached)
            )

    def _clear_segment(self, group: int, slot: int) -> None:
        """Security clearing on cache<->PoM transitions (Section V-D2)."""
        self.counters.add("chameleon.segments_cleared")

    # ------------------------------------------------------------------
    # Mode transitions
    # ------------------------------------------------------------------

    def _enter_pom(self, group: int, state: GroupState) -> None:
        if state.mode is not Mode.POM:
            state.mode = Mode.POM
            state.cached = None
            state.dirty = False
            state.miss_streak = 0
            self.counters.add("chameleon.to_pom")
            bus = self.telemetry
            if bus.enabled:
                bus.emit(
                    ModeTransition(time_ns=0.0, group=group, mode="pom")
                )

    def _enter_cache(self, group: int, state: GroupState) -> None:
        if state.mode is not Mode.CACHE:
            state.mode = Mode.CACHE
            state.cached = None
            state.dirty = False
            state.miss_streak = 0
            state.candidate = None
            state.count = 0
            self.counters.add("chameleon.to_cache")
            bus = self.telemetry
            if bus.enabled:
                bus.emit(
                    ModeTransition(time_ns=0.0, group=group, mode="cache")
                )

    def _emit_isa(
        self, segment_id: int, group: int, local: int, alloc: bool
    ) -> None:
        """Emit the ISA stream event once the handler's state settled
        (the auditor validates the group against the *post* state)."""
        bus = self.telemetry
        if bus.enabled:
            bus.emit(
                IsaAllocEvent(
                    time_ns=0.0,
                    segment=segment_id,
                    alloc=alloc,
                    group=group,
                    local=local,
                )
            )

    # ------------------------------------------------------------------
    # Reporting (Figures 16 and 21)
    # ------------------------------------------------------------------

    def mode_distribution(self) -> tuple[float, float]:
        """(cache-mode fraction, PoM-mode fraction) over touched groups."""
        if not self._groups:
            return 1.0, 0.0
        cache = sum(
            1 for state in self._groups.values() if state.mode is Mode.CACHE
        )
        total = len(self._groups)
        return cache / total, (total - cache) / total

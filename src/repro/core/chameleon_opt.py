"""Chameleon-Opt: harvest free space anywhere in the system
(Section V-C, Figures 12-14).

The basic design wastes free *off-chip* segments: a group whose stacked
segment is allocated cannot cache even when off-chip segments of the
same group are free.  Chameleon-Opt proactively remaps segments so that
whenever *any* segment of a group is free, a free segment occupies the
stacked slot — leaving it available as cache — and the group operates
in cache mode until every segment is allocated.

Invariant maintained by every transition: **a group is in cache mode
iff at least one of its segments is OS-free, and in cache mode the
nominal resident of the stacked slot is a free segment** (so it can
never produce a stacked hit of its own, Figure 13's discussion).
"""

from __future__ import annotations

from typing import Iterable

from repro.arch.remap import Mode
from repro.core.chameleon import ChameleonArchitecture
from repro.telemetry.events import IsaAllocEvent, ModeTransition, SegmentSwap


class ChameleonOptArchitecture(ChameleonArchitecture):
    """Chameleon with proactive remapping into free off-chip segments."""

    name = "chameleon_opt"

    # ------------------------------------------------------------------
    # ISA-Alloc (Figure 12)
    # ------------------------------------------------------------------

    def isa_alloc_many(self, segments: Iterable[int]) -> None:
        groups = self._groups
        num_fast = self._num_fast
        bus = self.telemetry
        emit = bus.emit if bus.enabled else None
        seen = remaps = cleared = to_pom = 0
        for segment in segments:
            local, group = divmod(segment, num_fast)
            state = groups.get(group)
            if state is None:
                state = self.group_state(group)
            seen += 1
            abv = state.abv
            slot_of = state.slot_of
            if slot_of[local] == 0:
                # P currently resides in the stacked slot (in cache mode
                # the slot's resident is by invariant a free segment —
                # P itself, until this allocation).  If any *other*
                # segment is free, proactively remap P into the
                # lowest-numbered free off-chip slot so the stacked slot
                # stays cacheable (flow 1-2-3-4-7-8, Figure 13).
                for free_local in range(state.size):
                    if (
                        free_local != local
                        and not abv[free_local]
                        and slot_of[free_local] != 0
                    ):
                        state.swap_slots(0, slot_of[free_local])
                        remaps += 1
                        # P is freshly allocated: no valid data to move,
                        # only the security clear of its new location.
                        cleared += 1
                        if emit is not None:
                            # (time_ns, group, moved_local,
                            # displaced_local, reason), positional.
                            emit(
                                SegmentSwap(
                                    0.0, group, free_local, local, "proactive"
                                )
                            )
                        break
            abv[local] = True
            if all(abv):
                # Flow ...-10-6: no free segment left anywhere in the
                # group.
                if state.cached is not None and state.dirty:
                    self._evict_writeback(group, state)
                cleared += 1
                if state.mode is not Mode.POM:
                    state.mode = Mode.POM
                    state.cached = None
                    state.dirty = False
                    state.miss_streak = 0
                    to_pom += 1
                    if emit is not None:
                        emit(ModeTransition(0.0, group, "pom"))
            # Otherwise flow ...-10-11: continue in cache mode.
            if emit is not None:
                emit(IsaAllocEvent(0.0, segment, True, group, local))
        counters = self.counters
        if seen:
            counters.add("isa.alloc_seen", seen)
        if remaps:
            counters.add("chameleon_opt.proactive_remaps", remaps)
        if cleared:
            counters.add("chameleon.segments_cleared", cleared)
        if to_pom:
            counters.add("chameleon.to_pom", to_pom)

    # ------------------------------------------------------------------
    # ISA-Free (Figure 14)
    # ------------------------------------------------------------------

    def isa_free(self, segment_id: int) -> None:
        group, local = self.geometry.group_and_local(segment_id)
        state = self.group_state(group)
        self.counters.add("isa.free_seen")
        state.abv[local] = False

        if state.mode is Mode.CACHE:
            # Flows ...-6 / ...-14: already caching; if the freed segment
            # was the one cached, its contents are dead — drop them.
            if state.cached == local:
                state.cached = None
                state.dirty = False
            self._emit_isa(segment_id, group, local, alloc=False)
            return

        # Group was in PoM mode; the free segment re-enables cache mode.
        freed_slot = state.slot_of[local]
        if freed_slot != 0:
            # Flow 1-2-3-4-5-7 / 12-13: the freed segment lives off-chip;
            # proactively move the allocated stacked resident into the
            # freed slot so the *stacked* slot becomes the free one.
            _, fast_address = self.geometry.slot_device_address(group, 0, 0)
            _, slow_address = self.geometry.slot_device_address(
                group, freed_slot, 0
            )
            self.memory.start_swap(
                fast_address=fast_address,
                slow_address=slow_address,
                now_ns=0.0,
                fast_segment_id=self.geometry.segment_at(
                    group, state.resident_of_fast()
                ),
                slow_segment_id=segment_id,
            )
            state.swap_slots(0, freed_slot)
            self.counters.add("chameleon_opt.proactive_remaps")
            self.counters.add("chameleon.restore_swaps")
            bus = self.telemetry
            if bus.enabled:
                bus.emit(
                    SegmentSwap(
                        time_ns=0.0,
                        group=group,
                        moved_local=local,
                        displaced_local=state.seg_at[freed_slot],
                        reason="proactive",
                    )
                )
        self._clear_segment(group, slot=0)
        self._enter_cache(group, state)
        self._emit_isa(segment_id, group, local, alloc=False)

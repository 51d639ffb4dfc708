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

from repro.arch.remap import GroupState, Mode
from repro.core.chameleon import ChameleonArchitecture
from repro.telemetry.events import SegmentSwap


class ChameleonOptArchitecture(ChameleonArchitecture):
    """Chameleon with proactive remapping into free off-chip segments."""

    name = "chameleon_opt"

    # ------------------------------------------------------------------
    # ISA-Alloc (Figure 12)
    # ------------------------------------------------------------------

    def isa_alloc(self, segment_id: int) -> None:
        group, local = self.geometry.group_and_local(segment_id)
        state = self.group_state(group)
        self.counters.add("isa.alloc_seen")

        if state.slot_of[local] == 0:
            # P currently resides in the stacked slot (in cache mode the
            # slot's resident is by invariant a free segment — P itself,
            # until this allocation).  If any *other* segment is free,
            # proactively remap P into that free off-chip slot so the
            # stacked slot stays cacheable (flow 1-2-3-4-7-8, Figure 13).
            free_local = self._free_offchip_local(state, exclude=local)
            if free_local is not None:
                state.swap_slots(0, state.slot_of[free_local])
                self.counters.add("chameleon_opt.proactive_remaps")
                # P is freshly allocated: no valid data to move, only the
                # security clear of its new location.
                self._clear_segment(group, slot=state.slot_of[local])
                bus = self.telemetry
                if bus.enabled:
                    # (time_ns, group, moved_local, displaced_local,
                    # reason), positional as in ``_emit_isa``.
                    bus.emit(
                        SegmentSwap(0.0, group, free_local, local, "proactive")
                    )

        state.abv[local] = True
        if all(state.abv):
            # Flow ...-10-6: no free segment left anywhere in the group.
            if state.cached is not None and state.dirty:
                self._evict_writeback(group, state)
            self._clear_segment(group, slot=0)
            self._enter_pom(group, state)
        # Otherwise flow ...-10-11: continue in cache mode.
        self._emit_isa(segment_id, group, local, alloc=True)

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

    # ------------------------------------------------------------------

    @staticmethod
    def _free_offchip_local(
        state: GroupState, exclude: int
    ) -> int | None:
        """Lowest-numbered free segment other than ``exclude`` whose slot
        is off-chip (slot != 0)."""
        for candidate in range(state.size):
            if candidate == exclude or state.abv[candidate]:
                continue
            if state.slot_of[candidate] != 0:
                return candidate
        return None

"""Cross-group free-segment sharing (the Section VI-G future work).

Segment-restricted remapping caps Chameleon's cache capacity: a fully
allocated group cannot cache even when a neighbouring group has several
free segments.  The paper sketches exposing the per-group ABV state to
the OS so free segments can be shared across groups; this module
implements that extension in hardware-model form:

* a *donor* group is a cache-mode group with at least two free segments
  that is not currently caching anything — its stacked slot is idle;
* a fully allocated (PoM-mode) *donee* group may borrow a donor's
  stacked slot; its competing-counter winner is then *filled* into the
  borrowed slot instead of swapped, saving the swap bandwidth entirely;
* a borrow is revoked (with writeback when dirty) as soon as the donor
  leaves cache mode or starts caching for itself.

The donor chosen is always the earliest-materialised candidate.  A
lazy min-heap of ``(materialisation order, group)`` finds it without
scanning every group.  Only two steps can turn a group into a
candidate, and both queue it: materialisation, and ISA-Free (which may
drop the cached segment or re-enter cache mode).  ISA-Alloc and demand
fills only take candidacy away, and a loan ends only once its donor
has stopped being a candidate.  Entries that stopped being candidates
are dropped when they surface at the top of the heap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.arch.remap import GroupState, Mode
from repro.core.chameleon_opt import ChameleonOptArchitecture


@dataclass
class _Borrow:
    donor_group: int
    cached_local: Optional[int] = None
    dirty: bool = False
    #: Per-local miss counts feeding the borrowed slot, independent of
    #: the group's main counter (which captures the hottest segment in
    #: the group's own stacked slot).
    miss_counts: Dict[int, int] = None  # type: ignore[assignment]
    #: Misses to wait after a fill before the next fill (thrash pacing,
    #: mirroring the cache-mode fill cooldown).
    cooldown: int = 0

    def __post_init__(self) -> None:
        if self.miss_counts is None:
            self.miss_counts = {}


class ChameleonSharedPool(ChameleonOptArchitecture):
    """Chameleon-Opt plus cross-group stacked-slot borrowing."""

    name = "chameleon_shared"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._borrows: Dict[int, _Borrow] = {}      # donee -> borrow
        self._lent: Dict[int, int] = {}             # donor -> donee
        # Groups never touched by ISA or demand traffic still sit in
        # their boot state (cache mode, fully free): they are donors.
        self._next_virgin_group = 0
        # Donor index: group -> materialisation order, and a min-heap
        # of (order, group) holding every current donor candidate
        # (plus stale entries); ``_queued`` keeps one entry per group.
        self._order: Dict[int, int] = {}
        self._donor_heap: List[Tuple[int, int]] = []
        self._queued: Set[int] = set()

    # ------------------------------------------------------------------
    # Donor management
    # ------------------------------------------------------------------

    def group_state(self, group: int) -> GroupState:
        state = self._groups.get(group)
        if state is None:
            state = super().group_state(group)
            self._order[group] = len(self._order)
            self._queue_donor(group)
        return state

    def isa_free(self, segment_id: int) -> None:
        super().isa_free(segment_id)
        self._queue_donor(self.geometry.group_and_local(segment_id)[0])

    def _queue_donor(self, group: int) -> None:
        """Index ``group`` if it may have become a donor candidate."""
        if group not in self._queued:
            self._queued.add(group)
            heapq.heappush(self._donor_heap, (self._order[group], group))

    def _is_donor_candidate(self, group: int, state: GroupState) -> bool:
        return (
            state.mode is Mode.CACHE
            and state.cached is None
            and group not in self._lent
            and state.size - state.allocated_count >= 2
        )

    def _find_donor(self, exclude: int) -> Optional[int]:
        """The earliest-materialised donor candidate other than
        ``exclude``, else a never-touched group."""
        heap = self._donor_heap
        groups = self._groups
        held: Optional[Tuple[int, int]] = None
        found: Optional[int] = None
        while heap:
            group = heap[0][1]
            if not self._is_donor_candidate(group, groups[group]):
                heapq.heappop(heap)
                self._queued.discard(group)
            elif group == exclude:
                held = heapq.heappop(heap)
            else:
                found = group
                break
        if held is not None:
            heapq.heappush(heap, held)
        if found is not None:
            return found
        # Fall back to a never-touched group, which is free by
        # construction (boot state).
        while self._next_virgin_group < self.geometry.num_groups:
            group = self._next_virgin_group
            self._next_virgin_group += 1
            if group == exclude or group in self._lent:
                continue
            if group in self._groups:
                continue  # already materialised and indexed above
            state = self.group_state(group)
            if self._is_donor_candidate(group, state):
                return group
        return None

    def _revoke_if_invalid(self, donee: int, now_ns: float) -> None:
        borrow = self._borrows.get(donee)
        if borrow is None:
            return
        donor_state = self._groups.get(borrow.donor_group)
        donor_ok = (
            donor_state is not None
            and donor_state.mode is Mode.CACHE
            and donor_state.cached is None
        )
        if donor_ok:
            return
        self._revoke(donee, now_ns)

    def _revoke(self, donee: int, now_ns: float) -> None:
        borrow = self._borrows.pop(donee)
        self._lent.pop(borrow.donor_group, None)
        if borrow.cached_local is not None and borrow.dirty:
            state = self.group_state(donee)
            _, fast_address = self.geometry.slot_device_address(
                borrow.donor_group, 0, 0
            )
            _, slow_address = self.geometry.slot_device_address(
                donee, state.slot_of[borrow.cached_local], 0
            )
            seg = self.geometry.segment_bytes
            self.memory.fast.transfer(fast_address, seg, now_ns)
            self.memory.slow.transfer(slow_address, seg, now_ns)
            self.counters.add("swap.swaps")
        self.counters.add("shared_pool.revocations")

    # ------------------------------------------------------------------
    # Demand path: overlay borrowed-slot hits over the PoM path
    # ------------------------------------------------------------------

    def access_timing(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> tuple[float, bool]:
        # The translation and SRRT lookup of
        # ``PoMArchitecture.access_timing``, needed here to find the
        # group's mode and borrow.
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
        if state.mode is not Mode.POM:
            return self._cache_mode_access(
                group, state, segment, local, offset, now_ns, is_write
            )

        self._revoke_if_invalid(group, now_ns)
        borrow = self._borrows.get(group)
        if borrow is not None and borrow.cached_local == local:
            latency = self.memory.access(
                True,
                borrow.donor_group * segment_bytes + offset,
                now_ns,
                is_write,
                segment_id=segment,
            )
            if is_write:
                borrow.dirty = True
            self.counters.add("shared_pool.borrow_hits")
            return latency, True

        latency, fast_hit = super().access_timing(address, now_ns, is_write)
        if not fast_hit:
            self._maybe_borrow_fill(group, state, local, now_ns)
        return latency, fast_hit

    # ------------------------------------------------------------------

    def _maybe_borrow_fill(
        self, group: int, state: GroupState, local: int, now_ns: float
    ) -> None:
        """After a slow miss in PoM mode, track the segment in the
        borrowed slot's own competing tracker and fill when it wins.

        The group's main counter feeds the group's own stacked slot
        (the hottest segment); the borrowed slot independently captures
        the runner-up."""
        if state.slot_of[local] == 0:
            return  # the access was remapped to fast meanwhile
        borrow = self._borrows.get(group)
        if borrow is None:
            donor = self._find_donor(exclude=group)
            if donor is None:
                return
            borrow = _Borrow(donor_group=donor)
            self._borrows[group] = borrow
            self._lent[donor] = group
            self.counters.add("shared_pool.borrows")
        if borrow.cached_local == local:
            return
        if borrow.cooldown > 0:
            borrow.cooldown -= 1
            return
        misses = borrow.miss_counts.get(local, 0) + 1
        borrow.miss_counts[local] = misses
        if misses < max(2, self.swap_threshold):
            return
        borrow.miss_counts.clear()
        borrow.cooldown = max(1, self.swap_cooldown)
        _, fast_address = self.geometry.slot_device_address(
            borrow.donor_group, 0, 0
        )
        _, slow_address = self.geometry.slot_device_address(
            group, state.slot_of[local], 0
        )
        writeback = borrow.cached_local is not None and borrow.dirty
        if writeback:
            self.counters.add("swap.swaps")
        self.memory.start_fill(
            fast_address=fast_address,
            slow_address=slow_address,
            now_ns=now_ns,
            slow_segment_id=self.geometry.segment_at(group, local),
            writeback=writeback,
        )
        borrow.cached_local = local
        borrow.dirty = False
        self.counters.add("shared_pool.fills")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def active_borrows(self) -> int:
        return len(self._borrows)

"""Segment-restricted remapping machinery (Section V, Figure 6).

Both PoM baselines and Chameleon restrict remapping: a stacked-DRAM
segment may only swap with off-chip segments of the *same segment
group*.  With ``NF`` fast segments and capacity ratio ``1:R`` a group
holds one fast segment and ``R`` off-chip segments; group membership
interleaves so group ``g`` contains fast segment ``g`` and off-chip
segments ``g + k*NF`` for ``k`` in ``0..R-1``.

Terminology used throughout:

* **segment id** — the OS-physical segment number
  (``address // segment_bytes``) over the combined address space, fast
  range first;
* **local id** — a segment's index inside its group: 0 is the group's
  stacked segment, 1..R its off-chip segments;
* **slot** — a physical location in the group, numbered like local ids
  (slot 0 is the stacked location).  The remap table tracks which local
  id currently *resides* in which slot, exactly what the SRRT tag bits
  encode (Figure 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import SystemConfig


class Mode(enum.Enum):
    """Segment-group operating mode (the SRRT mode bit)."""

    POM = "pom"
    CACHE = "cache"


@dataclass(frozen=True)
class SegmentGeometry:
    """Pure address arithmetic between OS addresses, groups and devices."""

    segment_bytes: int
    num_fast_segments: int
    num_slow_segments: int

    @classmethod
    def from_config(cls, config: SystemConfig) -> "SegmentGeometry":
        return cls(
            segment_bytes=config.segment_bytes,
            num_fast_segments=config.num_fast_segments,
            num_slow_segments=config.num_slow_segments,
        )

    def __post_init__(self) -> None:
        if self.num_slow_segments % self.num_fast_segments:
            raise ValueError("slow segments must be a multiple of fast segments")

    @property
    def ratio(self) -> int:
        return self.num_slow_segments // self.num_fast_segments

    @property
    def segments_per_group(self) -> int:
        return self.ratio + 1

    @property
    def num_groups(self) -> int:
        return self.num_fast_segments

    @property
    def total_segments(self) -> int:
        return self.num_fast_segments + self.num_slow_segments

    # -- OS address <-> segment ---------------------------------------

    def segment_of(self, address: int) -> int:
        segment = address // self.segment_bytes
        if not 0 <= segment < self.total_segments:
            raise ValueError(f"address {address:#x} outside OS memory")
        return segment

    def is_fast_segment(self, segment: int) -> bool:
        return segment < self.num_fast_segments

    # -- segment <-> (group, local) ------------------------------------

    def group_and_local(self, segment: int) -> tuple[int, int]:
        if self.is_fast_segment(segment):
            return segment, 0
        offset = segment - self.num_fast_segments
        return offset % self.num_fast_segments, 1 + offset // self.num_fast_segments

    def segment_at(self, group: int, local: int) -> int:
        if not 0 <= group < self.num_groups:
            raise ValueError(f"group {group} out of range")
        if not 0 <= local <= self.ratio:
            raise ValueError(f"local id {local} out of range")
        if local == 0:
            return group
        return self.num_fast_segments + (local - 1) * self.num_fast_segments + group

    # -- slot -> device address ----------------------------------------

    def slot_device_address(self, group: int, slot: int, offset: int = 0) -> tuple[bool, int]:
        """(in_fast, device-local byte address) of a slot."""
        if not 0 <= offset < self.segment_bytes:
            raise ValueError("offset outside segment")
        if slot == 0:
            return True, group * self.segment_bytes + offset
        slow_index = (slot - 1) * self.num_fast_segments + group
        return False, slow_index * self.segment_bytes + offset


@dataclass
class GroupState:
    """Mutable per-group SRRT entry (Figure 7).

    ``seg_at[slot]`` is the local id of the segment currently residing
    in ``slot`` (the tag bits); ``abv`` is the Alloc Bit Vector;
    ``cached``/``dirty`` describe the cache overlay of slot 0 when the
    group operates in cache mode; ``candidate``/``count`` implement the
    PoM shared competing counter.
    """

    size: int
    mode: Mode = Mode.CACHE
    seg_at: List[int] = field(default_factory=list)
    slot_of: List[int] = field(default_factory=list)
    abv: List[bool] = field(default_factory=list)
    cached: Optional[int] = None
    dirty: bool = False
    #: Misses since the cached incumbent last hit; drives the thrash
    #: protection of Chameleon's cache-mode fill policy.
    miss_streak: int = 0
    candidate: Optional[int] = None
    count: int = 0
    #: Remaining group accesses before the competing counter may trigger
    #: another swap (the PoM baseline gates remapping decisions per
    #: epoch; the cooldown caps counter ping-pong between two hot
    #: segments competing for the single stacked slot).
    cooldown: int = 0

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("a group needs the fast segment plus >= 1 slow")
        if not self.seg_at:
            self.seg_at = list(range(self.size))
        if not self.slot_of:
            self.slot_of = list(range(self.size))
        if not self.abv:
            self.abv = [False] * self.size
        self.validate()

    def validate(self) -> None:
        """The remap must stay a permutation; cache state consistent."""
        if sorted(self.seg_at) != list(range(self.size)):
            raise AssertionError("seg_at is not a permutation")
        for slot, local in enumerate(self.seg_at):
            if self.slot_of[local] != slot:
                raise AssertionError("slot_of does not invert seg_at")
        if self.mode is Mode.POM and self.cached is not None:
            raise AssertionError("PoM-mode group cannot hold a cached segment")
        if self.cached is not None and not 0 <= self.cached < self.size:
            raise AssertionError("cached local id out of range")

    def clone(self) -> "GroupState":
        """An independent copy, not re-validated (see GroupTable)."""
        twin = object.__new__(GroupState)
        twin.__dict__.update(self.__dict__)
        twin.seg_at = self.seg_at[:]
        twin.slot_of = self.slot_of[:]
        twin.abv = self.abv[:]
        return twin

    # -- remapping ------------------------------------------------------

    def swap_slots(self, slot_a: int, slot_b: int) -> None:
        """Exchange the residents of two slots (one hardware swap)."""
        seg_a, seg_b = self.seg_at[slot_a], self.seg_at[slot_b]
        self.seg_at[slot_a], self.seg_at[slot_b] = seg_b, seg_a
        self.slot_of[seg_a], self.slot_of[seg_b] = slot_b, slot_a

    def resident_of_fast(self) -> int:
        """Local id currently occupying the stacked slot."""
        return self.seg_at[0]

    @property
    def allocated_count(self) -> int:
        return sum(self.abv)

    @property
    def any_free(self) -> bool:
        return not all(self.abv)

    def is_identity(self) -> bool:
        return all(slot == local for slot, local in enumerate(self.seg_at))


class GroupTable:
    """Mixin: a design's SRRT entries, built on first touch as clones
    of one boot template (identity remap, nothing allocated, mode
    :attr:`boot_mode`) that is validated once, with the design."""

    boot_mode = Mode.POM

    def _init_groups(self, config: SystemConfig) -> None:
        self.geometry = SegmentGeometry.from_config(config)
        self._groups: Dict[int, GroupState] = {}
        self._boot = GroupState(
            size=self.geometry.segments_per_group, mode=self.boot_mode
        )

    def group_state(self, group: int) -> GroupState:
        state = self._groups.get(group)
        if state is None:
            state = self._groups[group] = self._boot.clone()
        return state

"""Virtual memory: address spaces, first-touch mapping, page faults.

Two concerns live here:

* :class:`AddressSpace` / :class:`VirtualMemory` — per-process virtual to
  physical mapping, allocated on first touch from a physical allocator,
  with 4KB base pages and optional 2MB transparent huge pages, wired to
  the ISA hook dispatcher (Algorithms 1-2);
* :class:`PageFaultEngine` — the DRAM<->SSD paging path for workloads
  whose footprint exceeds the OS-visible capacity, with an exact-LRU
  resident set and the Table I fault cost (100K cycles).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.config import PAGE_BYTES, PAGE_FAULT_LATENCY_CYCLES, THP_BYTES
from repro.osmodel.buddy import OutOfMemoryError
from repro.osmodel.hooks import PageHookDispatcher
from repro.stats import CounterSet
from repro.telemetry.bus import NULL_BUS, EventBus, NullBus
from repro.telemetry.events import PageFaultEvent


@dataclass
class Mapping:
    """One virtual->physical mapping."""

    virtual: int
    physical: int
    size: int


class AddressSpace:
    """One process's page table."""

    def __init__(self, pid: int, page_bytes: int = PAGE_BYTES) -> None:
        self.pid = pid
        self.page_bytes = page_bytes
        self._mappings: Dict[int, Mapping] = {}  # vpage -> Mapping
        # One-entry translation cache: consecutive accesses to the same
        # virtual page (the common case in the scalar replay loop) skip
        # the mapping lookup.  Only positive lookups are cached, so new
        # mappings become visible without invalidation; unmap drops it.
        self._cached_vpage = -1
        self._cached_mapping: Optional[Mapping] = None

    def translate(self, vaddr: int) -> Optional[int]:
        """Physical address for ``vaddr``, or None when unmapped."""
        vpage = vaddr // self.page_bytes
        if vpage == self._cached_vpage:
            mapping = self._cached_mapping
            assert mapping is not None
        else:
            mapping = self._mappings.get(vpage)
            if mapping is None:
                return None
            self._cached_vpage = vpage
            self._cached_mapping = mapping
        return mapping.physical + (vaddr - mapping.virtual)

    def map(self, vaddr: int, paddr: int, size: int) -> None:
        if size % self.page_bytes:
            raise ValueError("mapping size must be page aligned")
        first = vaddr // self.page_bytes
        for index in range(size // self.page_bytes):
            vpage = first + index
            if vpage in self._mappings:
                raise ValueError(f"vpage {vpage:#x} already mapped")
            self._mappings[vpage] = Mapping(
                virtual=first * self.page_bytes,
                physical=paddr,
                size=size,
            )

    def unmap(self, vaddr: int) -> Mapping:
        vpage = vaddr // self.page_bytes
        mapping = self._mappings.get(vpage)
        if mapping is None:
            raise KeyError(f"vaddr {vaddr:#x} not mapped")
        first = mapping.virtual // self.page_bytes
        for index in range(mapping.size // self.page_bytes):
            del self._mappings[first + index]
        self._cached_vpage = -1
        self._cached_mapping = None
        return mapping

    def mapped_bytes(self) -> int:
        return len(self._mappings) * self.page_bytes

    def mappings(self):
        """Distinct mappings (one per allocation, not per page)."""
        seen: Dict[int, Mapping] = {}
        for mapping in self._mappings.values():
            seen[mapping.virtual] = mapping
        return list(seen.values())


class VirtualMemory:
    """First-touch virtual memory over a physical allocator.

    ``allocate_backing`` is a callable so NUMA policies (first-touch on
    the fast node, AutoNUMA, Chameleon's plain buddy) can plug in their
    placement decision; it receives the allocation size and returns a
    physical address.
    """

    def __init__(
        self,
        allocate_backing: Callable[[int], int],
        free_backing: Callable[[int], None],
        dispatcher: PageHookDispatcher | None = None,
        counters: CounterSet | None = None,
        thp_enabled: bool = True,
    ) -> None:
        self._allocate = allocate_backing
        self._free = free_backing
        self.dispatcher = dispatcher
        self.counters = counters if counters is not None else CounterSet()
        self.thp_enabled = thp_enabled
        self._spaces: Dict[int, AddressSpace] = {}

    def space(self, pid: int) -> AddressSpace:
        if pid not in self._spaces:
            self._spaces[pid] = AddressSpace(pid)
        return self._spaces[pid]

    def touch(self, pid: int, vaddr: int, prefer_thp: bool = False) -> int:
        """Translate, faulting in a new page on first touch."""
        space = self.space(pid)
        paddr = space.translate(vaddr)
        if paddr is not None:
            return paddr
        size = THP_BYTES if (prefer_thp and self.thp_enabled) else PAGE_BYTES
        vbase = vaddr - vaddr % size
        try:
            physical = self._allocate(size)
        except OutOfMemoryError:
            if size == THP_BYTES:
                # THP allocation falls back to base pages, as in Linux.
                size = PAGE_BYTES
                vbase = vaddr - vaddr % size
                physical = self._allocate(size)
            else:
                raise
        space.map(vbase, physical, size)
        self.counters.add("vm.first_touches")
        self.counters.add("vm.mapped_bytes", size)
        if self.dispatcher is not None:
            self.dispatcher.page_allocated(physical, size)
        translated = space.translate(vaddr)
        assert translated is not None
        return translated

    def release(self, pid: int, vaddr: int) -> None:
        """Unmap and free the allocation containing ``vaddr``."""
        space = self.space(pid)
        mapping = space.unmap(vaddr)
        if self.dispatcher is not None:
            self.dispatcher.page_freed(mapping.physical, mapping.size)
        self._free(mapping.physical)
        self.counters.add("vm.releases")

    def release_all(self, pid: int) -> int:
        """Tear down a whole address space; returns bytes released."""
        space = self.space(pid)
        released = 0
        for mapping in space.mappings():
            space.unmap(mapping.virtual)
            if self.dispatcher is not None:
                self.dispatcher.page_freed(mapping.physical, mapping.size)
            self._free(mapping.physical)
            released += mapping.size
        self.counters.add("vm.releases")
        return released


class PageFaultEngine:
    """Exact-LRU resident-set paging model (DRAM <-> SSD).

    Models the effect Figures 4-5 quantify: when the working footprint
    exceeds OS-visible capacity, accesses to non-resident pages fault and
    cost ``fault_latency_cycles`` (Table I: 100K cycles for an SSD).
    """

    def __init__(
        self,
        capacity_bytes: int,
        page_bytes: int = PAGE_BYTES,
        fault_latency_cycles: int = PAGE_FAULT_LATENCY_CYCLES,
        counters: CounterSet | None = None,
        telemetry: EventBus | NullBus | None = None,
    ) -> None:
        if capacity_bytes < page_bytes:
            raise ValueError("capacity must hold at least one page")
        self.page_bytes = page_bytes
        self.capacity_pages = capacity_bytes // page_bytes
        self.fault_latency_cycles = fault_latency_cycles
        self.counters = counters if counters is not None else CounterSet()
        self.telemetry = telemetry if telemetry is not None else NULL_BUS
        self._resident: "OrderedDict[int, int]" = OrderedDict()  # page -> frame
        self._free_frames: list[int] = []
        self._next_frame = 0
        self._swapped_out: set[int] = set()
        # Dense page -> frame mirror of ``_resident`` (-1 when not
        # resident), kept in lock-step by every insert/evict so
        # :meth:`translate_batch` can resolve whole columns with one
        # vectorised lookup.  Grown geometrically on demand.
        self._frame_table = np.full(1024, -1, dtype=np.int64)

    def _table_set(self, page: int, frame: int) -> None:
        table = self._frame_table
        if page >= table.shape[0]:
            grown = np.full(
                max(2 * (page + 1), 2 * table.shape[0]), -1, dtype=np.int64
            )
            grown[: table.shape[0]] = table
            self._frame_table = grown
            table = grown
        table[page] = frame

    def access(self, address: int) -> int:
        """Access ``address``; returns the fault cost in cycles (0 on hit)."""
        cycles, _ = self.access_translate(address)
        return cycles

    def prime(self, addresses) -> None:
        """Touch pages in order without charging faults.

        Models the application's allocation phase: the footprint is
        written once front to back, so when it exceeds capacity the
        earliest pages are already swapped out when execution starts.
        """
        for address in addresses:
            page = address // self.page_bytes
            if page in self._resident:
                self._resident.move_to_end(page)
                continue
            if len(self._resident) >= self.capacity_pages:
                victim, freed = self._resident.popitem(last=False)
                self._swapped_out.add(victim)
                self._free_frames.append(freed)
                self._frame_table[victim] = -1
            if self._free_frames:
                frame = self._free_frames.pop()
            else:
                frame = self._next_frame
                self._next_frame += 1
            self._resident[page] = frame
            self._table_set(page, frame)

    def access_translate(
        self, address: int, now_ns: float = 0.0
    ) -> tuple[int, int]:
        """Access ``address``; returns (fault cycles, physical address).

        Pages are assigned physical frames on fault; the frame of an
        evicted page is recycled, so the physical working set never
        exceeds the configured capacity.  ``now_ns`` only timestamps
        telemetry events; it does not affect the paging decision.
        """
        page, offset = divmod(address, self.page_bytes)
        frame = self._resident.get(page)
        if frame is not None:
            self._resident.move_to_end(page)
            self.counters.add("fault.resident_hits")
            return 0, frame * self.page_bytes + offset
        # Major faults (SSD swap-in, Table I latency) happen when the
        # page was previously swapped out, or when faulting it in evicts
        # another page (allocation under memory pressure).  A first
        # touch with free capacity is a cheap minor fault — Linux wires
        # the page without touching the SSD.
        major = page in self._swapped_out
        if len(self._resident) >= self.capacity_pages:
            victim, freed = self._resident.popitem(last=False)
            self._swapped_out.add(victim)
            self._free_frames.append(freed)
            self.counters.add("fault.evictions")
            self._frame_table[victim] = -1
            major = True
        if self._free_frames:
            frame = self._free_frames.pop()
        else:
            frame = self._next_frame
            self._next_frame += 1
        self._resident[page] = frame
        self._table_set(page, frame)
        bus = self.telemetry
        if bus.enabled:
            bus.emit(PageFaultEvent(time_ns=now_ns, page=page, major=major))
        if major:
            self.counters.add("fault.page_faults")
            return self.fault_latency_cycles, frame * self.page_bytes + offset
        self.counters.add("fault.minor_faults")
        return 0, frame * self.page_bytes + offset

    # -- vectorised fast path (the chunked kernel's paged case) -------

    def translate_batch(
        self, addresses: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Resolve a column of addresses against the resident set.

        Returns ``(physical, pages, n_resident)``: the translated
        prefix of ``addresses`` up to (excluding) the first lane whose
        page is not resident, the pages of that prefix, and its length.
        ``n_resident == len(addresses)`` means the whole column is
        resident.  The translations hold until the next eviction.
        Pure lookup — no LRU recency update, no counters, no events; the
        caller replays those effects (see
        :meth:`touch_resident` / :meth:`note_resident_hits`) to stay
        bit-identical with the scalar :meth:`access_translate` path.
        """
        pages = addresses // self.page_bytes
        table = self._frame_table
        frames = np.where(
            pages < table.shape[0],
            table[np.minimum(pages, table.shape[0] - 1)],
            -1,
        )
        missing = np.flatnonzero(frames < 0)
        n_resident = int(missing[0]) if missing.size else len(addresses)
        pages = pages[:n_resident]
        physical = frames[:n_resident] * self.page_bytes + (
            addresses[:n_resident] - pages * self.page_bytes
        )
        return physical, pages, n_resident

    def touch_resident(self, page: int) -> None:
        """Replay one resident access's LRU recency update (the
        ``move_to_end`` that :meth:`access_translate` would have done)."""
        self._resident.move_to_end(page)

    def touch_resident_many(self, pages: Iterable[int]) -> None:
        """Replay a run of deferred LRU touches in the given order
        (bulk :meth:`touch_resident` without per-page call overhead)."""
        move = self._resident.move_to_end
        for page in pages:
            move(page)

    def note_resident_hits(self, count: int) -> None:
        """Bulk-account ``count`` resident hits served off the
        vectorised path (one ``fault.resident_hits`` tick each)."""
        if count:
            self.counters.add("fault.resident_hits", count)

    def is_resident(self, page: int) -> bool:
        return page in self._resident

    def eviction_candidate(self) -> Optional[int]:
        """Page the next fault-driven eviction would swap out — the LRU
        head when the resident set is full, else ``None``."""
        if len(self._resident) < self.capacity_pages:
            return None
        return next(iter(self._resident))

    @property
    def page_faults(self) -> int:
        return int(self.counters["fault.page_faults"])

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

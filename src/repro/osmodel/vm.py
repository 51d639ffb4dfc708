"""OS paging: the DRAM<->SSD page-fault engine.

:class:`PageFaultEngine` is the pager the simulation engine attaches to
designs whose OS-visible capacity is smaller than the workload's address
space.  It maps pages into the visible range with an exact-LRU resident
set and charges the Table I fault cost (100K cycles, an SSD swap-in)
when the footprint overflows that capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.config import PAGE_BYTES, PAGE_FAULT_LATENCY_CYCLES
from repro.stats import CounterSet
from repro.telemetry.bus import NULL_BUS, EventBus, NullBus
from repro.telemetry.events import PageFaultEvent


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
            else:
                self._fault_in(page)

    def _fault_in(self, page: int) -> Tuple[int, bool]:
        """Give non-resident ``page`` a frame, swapping out the LRU page
        first when the resident set is full.  Returns ``(frame,
        evicted)``; counting and events are the caller's business."""
        evicted = len(self._resident) >= self.capacity_pages
        if evicted:
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
        return frame, evicted

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
        frame, evicted = self._fault_in(page)
        if evicted:
            self.counters.add("fault.evictions")
            major = True
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
        :meth:`touch_resident_many` / :meth:`note_resident_hits`) to stay
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

    def touch_resident_many(self, pages: Iterable[int]) -> None:
        """Replay a run of deferred LRU touches in the given order (the
        ``move_to_end`` :meth:`access_translate` does on a resident hit)."""
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

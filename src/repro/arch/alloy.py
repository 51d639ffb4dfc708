"""Alloy Cache: the latency-optimised DRAM cache baseline.

Qureshi & Loh (MICRO 2012): the stacked DRAM is a *direct-mapped* cache
with 64B lines where tag and data are fused into one burst (TAD), so a
hit costs a single stacked access and a miss costs the stacked probe
plus the off-chip access plus the fill.  Because the cache duplicates
data, the OS sees only the off-chip capacity — the capacity loss that
makes Alloy page-fault on high-footprint workloads (Figure 18).
"""

from __future__ import annotations

from typing import Dict

from repro.config import CACHELINE_BYTES, SystemConfig
from repro.arch.base import MemoryArchitecture
from repro.stats import CounterSet


class AlloyCache(MemoryArchitecture):
    """Direct-mapped, 64B-line, latency-optimised stacked-DRAM cache."""

    name = "alloy"

    def __init__(self, config: SystemConfig, counters: CounterSet | None = None):
        super().__init__(config, counters)
        self._num_sets = config.fast_mem.capacity_bytes // CACHELINE_BYTES
        if self._num_sets <= 0:
            raise ValueError("stacked DRAM too small for a single line")
        self._os_capacity = config.slow_mem.capacity_bytes
        # Sparse TAD store as two maps keyed by set index — the line's
        # tag and its dirty bit.  Only touched sets are materialised,
        # keeping full-scale configs cheap.
        self._tags: Dict[int, int] = {}
        self._dirty: Dict[int, bool] = {}
        self._fast_access = self.memory.fast.access
        self._slow_access = self.memory.slow.access
        # Per-access outcomes counted while batch stats are on (see
        # ``_flush_arch_tallies``); every miss fills, so misses count
        # the fills too.
        self._hits = 0
        self._misses = 0
        self._writebacks = 0

    # ------------------------------------------------------------------

    def access_timing(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> tuple[float, bool]:
        if not 0 <= address < self._os_capacity:
            raise ValueError(
                f"address {address:#x} outside OS-visible (off-chip) memory"
            )
        num_sets = self._num_sets
        line = address // CACHELINE_BYTES
        set_index = line % num_sets
        tag = line // num_sets
        cache_address = set_index * CACHELINE_BYTES
        resident = self._tags.get(set_index)

        if resident == tag:
            # TAD hit: one stacked burst returns tag+data.
            latency = self._fast_access(cache_address, now_ns, is_write)
            if is_write:
                self._dirty[set_index] = True
            if self._batch_stats:
                self._hits += 1
            else:
                self.counters.add("alloy.hits")
            return latency, True

        # Miss: probe the TAD, then fetch from off-chip memory.  The
        # probe and the off-chip fetch are launched together (Alloy's
        # MAP-I style parallel probe), so the miss latency is their max.
        fast_access = self._fast_access
        slow_access = self._slow_access
        probe_ns = fast_access(cache_address, now_ns, False)
        mem_ns = slow_access(address, now_ns, is_write)
        latency = mem_ns if mem_ns > probe_ns else probe_ns
        batch_stats = self._batch_stats
        if batch_stats:
            self._misses += 1
        else:
            self.counters.add("alloy.misses")

        # Victim writeback (dirty direct-mapped eviction) — issued
        # immediately, off the critical path.
        dirty = self._dirty
        if resident is not None and dirty[set_index]:
            slow_access(
                (resident * num_sets + set_index) * CACHELINE_BYTES,
                now_ns,
                True,
            )
            if batch_stats:
                self._writebacks += 1
            else:
                self.counters.add("alloy.writebacks")

        # Fill the line (consumes stacked bandwidth, off the critical path).
        fast_access(cache_address, now_ns, True)
        self._tags[set_index] = tag
        dirty[set_index] = is_write
        if not batch_stats:
            self.counters.add("alloy.fills")
        return latency, False

    def _flush_arch_tallies(self) -> None:
        counters = self.counters
        for name, count in (
            ("alloy.hits", self._hits),
            ("alloy.misses", self._misses),
            ("alloy.fills", self._misses),
            ("alloy.writebacks", self._writebacks),
        ):
            if count:
                counters.add(name, count)
        self._hits = self._misses = self._writebacks = 0

    @property
    def os_visible_bytes(self) -> int:
        """Caches sacrifice the stacked capacity (Section III-D)."""
        return self._os_capacity

    @property
    def cache_hit_rate(self) -> float:
        return self.counters.ratio("alloy.hits", "arch.accesses")

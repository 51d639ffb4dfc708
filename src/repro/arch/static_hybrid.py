"""KNL-style statically partitioned hybrid memory (Section II-C3).

Knights Landing's MC-DRAM supports boot-time modes: 100% cache, 100%
OS-visible flat memory, or static hybrids with 25% or 50% of the
stacked DRAM operating as cache and the rest as memory.  The partition
is fixed until reboot — exactly the rigidity Chameleon's dynamic
per-segment-group reconfiguration removes.

:class:`StaticHybridMemory` models one such boot configuration: the
cache share of the stacked DRAM is a direct-mapped 64B-line TAD cache
over the off-chip range, the remaining share is OS-visible fast memory
appended below the off-chip range.  It is the one direct-mapped
stacked-DRAM cache in the codebase: the 100%-cache mode *is* the Alloy
Cache (:class:`repro.arch.alloy.AlloyCache`, a thin subclass).
"""

from __future__ import annotations

from typing import Dict

from repro.config import CACHELINE_BYTES, SystemConfig
from repro.arch.base import MemoryArchitecture
from repro.stats import CounterSet


class StaticHybridMemory(MemoryArchitecture):
    """A boot-time split of the stacked DRAM into cache + flat memory."""

    #: Policy counter names: hits, misses (every miss fills, so a fill
    #: counter is a second name for the misses) and victim writebacks.
    HIT_COUNTER = "knl.cache_hits"
    MISS_COUNTERS: tuple[str, ...] = ("knl.cache_misses",)
    WRITEBACK_COUNTER = "knl.writebacks"

    def __init__(
        self,
        config: SystemConfig,
        cache_fraction: float = 0.5,
        counters: CounterSet | None = None,
    ) -> None:
        if not 0.0 <= cache_fraction <= 1.0:
            raise ValueError("cache_fraction must be in [0, 1]")
        super().__init__(config, counters)
        self.cache_fraction = cache_fraction
        fast = config.fast_mem.capacity_bytes
        # The cache partition occupies the low stacked addresses.
        # The 100%-cache mode has no flat partition: a stacked capacity
        # that is not a whole number of lines leaves the remainder unused.
        self._cache_bytes = (
            int(fast * cache_fraction) // CACHELINE_BYTES * CACHELINE_BYTES
        )
        self._flat_fast_bytes = (
            fast - self._cache_bytes if cache_fraction < 1.0 else 0
        )
        self._num_sets = self._cache_bytes // CACHELINE_BYTES
        self._os_capacity = (
            self._flat_fast_bytes + config.slow_mem.capacity_bytes
        )
        self._hit_counter = self.HIT_COUNTER
        self._miss_counters = self.MISS_COUNTERS
        self._writeback_counter = self.WRITEBACK_COUNTER
        # Sparse TAD store as two maps keyed by set index — the line's
        # tag and its dirty bit.  Only touched sets are materialised,
        # keeping full-scale configs cheap.
        self._tags: Dict[int, int] = {}
        self._dirty: Dict[int, bool] = {}
        self._fast_access = self.memory.fast.access
        self._slow_access = self.memory.slow.access
        # Per-access outcomes counted while batch stats are on (see
        # ``_flush_arch_tallies``).
        self._hits = 0
        self._misses = 0
        self._writebacks = 0
        if not self._num_sets:
            # No cache partition: the off-chip range is never cached.
            # Choosing the path here keeps a zero-sets test off the
            # cached demand path.
            self.access_timing = self._uncached_timing

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"knl_hybrid_{int(round(self.cache_fraction * 100))}"

    @property
    def os_visible_bytes(self) -> int:
        """The memory partition of the stacked DRAM plus the off-chip
        (caches sacrifice their stacked capacity, Section III-D)."""
        return self._os_capacity

    # ------------------------------------------------------------------

    def _out_of_range(self, address: int) -> ValueError:
        return ValueError(f"address {address:#x} outside OS-visible memory")

    def _uncached_timing(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> tuple[float, bool]:
        """The demand path when the cache share rounds to no lines (the
        flat partition is then the whole stacked DRAM)."""
        if not 0 <= address < self._os_capacity:
            raise self._out_of_range(address)
        flat = self._flat_fast_bytes
        if address < flat:
            return self._fast_access(address, now_ns, is_write), True
        return self._slow_access(address - flat, now_ns, is_write), False

    def access_timing(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> tuple[float, bool]:
        if not 0 <= address < self._os_capacity:
            raise self._out_of_range(address)
        flat = self._flat_fast_bytes
        if address < flat:
            # Static fast partition: always a stacked hit, never cached.
            latency = self._fast_access(
                self._cache_bytes + address, now_ns, is_write
            )
            return latency, True

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
                self.counters.add(self._hit_counter)
            return latency, True

        # Miss: probe the TAD, then fetch from off-chip memory.  The
        # probe and the off-chip fetch are launched together (Alloy's
        # MAP-I style parallel probe), so the miss latency is their max.
        fast_access = self._fast_access
        slow_access = self._slow_access
        probe_ns = fast_access(cache_address, now_ns, False)
        mem_ns = slow_access(address - flat, now_ns, is_write)
        latency = mem_ns if mem_ns > probe_ns else probe_ns
        batch_stats = self._batch_stats
        counters = self.counters
        if batch_stats:
            self._misses += 1
        else:
            for name in self._miss_counters:
                counters.add(name)

        # Victim writeback (dirty direct-mapped eviction) — issued
        # immediately, off the critical path.  Cached lines all come
        # from at or above the flat partition.
        dirty = self._dirty
        if resident is not None and dirty[set_index]:
            slow_access(
                (resident * num_sets + set_index) * CACHELINE_BYTES - flat,
                now_ns,
                True,
            )
            if batch_stats:
                self._writebacks += 1
            else:
                counters.add(self._writeback_counter)

        # Fill the line (consumes stacked bandwidth, off the critical path).
        fast_access(cache_address, now_ns, True)
        self._tags[set_index] = tag
        dirty[set_index] = is_write
        return latency, False

    def _flush_arch_tallies(self) -> None:
        counters = self.counters
        if self._hits:
            counters.add(self._hit_counter, self._hits)
        if self._misses:
            for name in self._miss_counters:
                counters.add(name, self._misses)
        if self._writebacks:
            counters.add(self._writeback_counter, self._writebacks)
        self._hits = self._misses = self._writebacks = 0

    # ------------------------------------------------------------------

    @property
    def cache_bytes(self) -> int:
        return self._cache_bytes

    @property
    def flat_fast_bytes(self) -> int:
        return self._flat_fast_bytes

    @property
    def cache_hit_rate(self) -> float:
        return self.counters.ratio(self._hit_counter, "arch.accesses")

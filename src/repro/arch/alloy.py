"""Alloy Cache: the latency-optimised DRAM cache baseline.

Qureshi & Loh (MICRO 2012): the stacked DRAM is a *direct-mapped* cache
with 64B lines where tag and data are fused into one burst (TAD), so a
hit costs a single stacked access and a miss costs the stacked probe
plus the off-chip access plus the fill.  Because the cache duplicates
data, the OS sees only the off-chip capacity — the capacity loss that
makes Alloy page-fault on high-footprint workloads (Figure 18).

That is exactly KNL's 100%-cache boot mode, so :class:`AlloyCache` is
:class:`~repro.arch.static_hybrid.StaticHybridMemory` with the whole
stacked DRAM as cache, reporting under its own counter names.
"""

from __future__ import annotations

from repro.config import CACHELINE_BYTES, SystemConfig
from repro.arch.static_hybrid import StaticHybridMemory
from repro.stats import CounterSet


class AlloyCache(StaticHybridMemory):
    """Direct-mapped, 64B-line, latency-optimised stacked-DRAM cache."""

    name = "alloy"

    HIT_COUNTER = "alloy.hits"
    MISS_COUNTERS = ("alloy.misses", "alloy.fills")
    WRITEBACK_COUNTER = "alloy.writebacks"

    def __init__(self, config: SystemConfig, counters: CounterSet | None = None):
        if config.fast_mem.capacity_bytes < CACHELINE_BYTES:
            raise ValueError("stacked DRAM too small for a single line")
        super().__init__(config, cache_fraction=1.0, counters=counters)

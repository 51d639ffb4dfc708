"""Tests for the KNL-style static hybrid (Section II-C3)."""

import pytest

from repro.config import scaled_config
from repro.arch import StaticHybridMemory
from repro.sim import simulate
from repro.workloads import benchmark, build_workload


@pytest.fixture
def config():
    return scaled_config(fast_mb=1.0)


class TestPartitioning:
    def test_fraction_zero_is_all_memory(self, config):
        arch = StaticHybridMemory(config, cache_fraction=0.0)
        assert arch.cache_bytes == 0
        assert arch.os_visible_bytes == config.total_capacity_bytes

    def test_fraction_one_is_all_cache(self, config):
        arch = StaticHybridMemory(config, cache_fraction=1.0)
        assert arch.flat_fast_bytes == 0
        assert arch.os_visible_bytes == config.slow_mem.capacity_bytes

    def test_full_cache_leaves_sub_line_remainder_unused(self):
        odd = scaled_config(fast_mb=0.3)  # 314572 B: 12 B past a line
        assert odd.fast_mem.capacity_bytes % 64
        arch = StaticHybridMemory(odd, cache_fraction=1.0)
        assert arch.flat_fast_bytes == 0
        assert arch.os_visible_bytes == odd.slow_mem.capacity_bytes

    def test_half_split(self, config):
        arch = StaticHybridMemory(config, cache_fraction=0.5)
        fast = config.fast_mem.capacity_bytes
        assert arch.cache_bytes == fast // 2
        assert arch.flat_fast_bytes == fast - fast // 2

    def test_visible_capacity_shrinks_with_cache_share(self, config):
        visible = [
            StaticHybridMemory(config, cache_fraction=f).os_visible_bytes
            for f in (0.0, 0.25, 0.5, 1.0)
        ]
        assert visible == sorted(visible, reverse=True)

    def test_invalid_fraction(self, config):
        with pytest.raises(ValueError):
            StaticHybridMemory(config, cache_fraction=1.5)


class TestAccessBehaviour:
    def test_fast_partition_always_hits(self, config):
        arch = StaticHybridMemory(config, cache_fraction=0.5)
        result = arch.access(0, 0.0)
        assert result.fast_hit

    def test_slow_region_misses_then_caches(self, config):
        arch = StaticHybridMemory(config, cache_fraction=0.5)
        address = arch.flat_fast_bytes + 0x10000
        assert not arch.access(address, 0.0).fast_hit
        assert arch.access(address, 1e5).fast_hit

    def test_pure_memory_mode_never_caches(self, config):
        arch = StaticHybridMemory(config, cache_fraction=0.0)
        address = arch.flat_fast_bytes + 0x10000
        for i in range(5):
            result = arch.access(address, i * 1e5)
        assert not result.fast_hit

    def test_out_of_range_rejected(self, config):
        arch = StaticHybridMemory(config, cache_fraction=0.5)
        with pytest.raises(ValueError):
            arch.access(arch.os_visible_bytes, 0.0)

    def test_dirty_writeback_counted(self, config):
        arch = StaticHybridMemory(config, cache_fraction=0.5)
        base = arch.flat_fast_bytes
        stride = arch.cache_bytes  # same set, different tag
        arch.access(base, 0.0, is_write=True)
        arch.access(base + stride, 1e5)
        assert arch.counters["knl.writebacks"] == 1


class TestStaticVsDynamic:
    def test_static_partitions_trade_capacity_for_hits(self, config):
        """The KNL dilemma: more cache share loses OS-visible capacity
        (faults for big footprints), less loses hit rate."""
        workload = build_workload(config, benchmark("cloverleaf"), num_copies=4)
        all_cache = simulate(
            StaticHybridMemory(config, cache_fraction=1.0),
            workload,
            accesses_per_core=400,
            warmup_per_core=400,
        )
        all_memory = simulate(
            StaticHybridMemory(config, cache_fraction=0.0),
            workload,
            accesses_per_core=400,
            warmup_per_core=400,
        )
        assert all_cache.page_faults > 0  # 23GB-class footprint overflows
        assert all_memory.page_faults == 0
        assert all_memory.fast_hit_rate < all_cache.fast_hit_rate

    def test_chameleon_dominates_static_hybrid_on_big_footprints(self, config):
        from repro.core import ChameleonOptArchitecture

        workload = build_workload(config, benchmark("cloverleaf"), num_copies=4)
        knl = simulate(
            StaticHybridMemory(config, cache_fraction=0.5),
            workload,
            accesses_per_core=600,
            warmup_per_core=600,
        )
        chameleon = simulate(
            ChameleonOptArchitecture(config),
            workload,
            accesses_per_core=600,
            warmup_per_core=600,
        )
        # Chameleon keeps full capacity (no faults) AND caches.
        assert chameleon.page_faults == 0
        assert chameleon.fast_hit_rate > knl.fast_hit_rate * 0.8

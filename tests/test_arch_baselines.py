"""Tests for the baseline architectures: flat, Alloy, PoM, CAMEO,
Polymorphic Memory."""

import pytest

from repro.config import CACHELINE_BYTES, MB, scaled_config
from repro.arch import (
    AlloyCache,
    CameoArchitecture,
    FlatMemory,
    PoMArchitecture,
    PolymorphicMemory,
)
from repro.arch.remap import Mode


@pytest.fixture
def config():
    return scaled_config(fast_mb=1.0)


def seg_addr(arch, group, local, offset=0):
    segment = arch.geometry.segment_at(group, local)
    return segment * arch.geometry.segment_bytes + offset


class TestFlatMemory:
    def test_visible_capacity(self, config):
        flat = FlatMemory(config, capacity_bytes=5 * MB)
        assert flat.os_visible_bytes == 5 * MB

    def test_default_capacity_is_total(self, config):
        assert FlatMemory(config).os_visible_bytes == config.total_capacity_bytes

    def test_never_fast_hits(self, config):
        flat = FlatMemory(config)
        result = flat.access(0, 0.0)
        assert not result.fast_hit
        assert flat.fast_hit_rate == 0.0

    def test_out_of_range_rejected(self, config):
        flat = FlatMemory(config, capacity_bytes=1 * MB)
        with pytest.raises(ValueError):
            flat.access(1 * MB, 0.0)

    def test_invalid_capacity(self, config):
        with pytest.raises(ValueError):
            FlatMemory(config, capacity_bytes=0)


class TestAlloyCache:
    def test_visible_capacity_excludes_stacked(self, config):
        alloy = AlloyCache(config)
        assert alloy.os_visible_bytes == config.slow_mem.capacity_bytes

    def test_miss_then_hit(self, config):
        alloy = AlloyCache(config)
        first = alloy.access(0x1000, 0.0)
        assert not first.fast_hit
        second = alloy.access(0x1000, 1e5)
        assert second.fast_hit

    def test_direct_mapped_conflict(self, config):
        alloy = AlloyCache(config)
        stride = config.fast_mem.capacity_bytes  # same set, distinct tags
        alloy.access(0, 0.0)
        alloy.access(stride, 1e5)  # evicts the first line
        result = alloy.access(0, 2e5)
        assert not result.fast_hit

    def test_line_granularity(self, config):
        alloy = AlloyCache(config)
        alloy.access(0, 0.0)
        assert alloy.access(32, 1e5).fast_hit  # same 64B line
        assert not alloy.access(64, 2e5).fast_hit  # next line misses

    def test_dirty_writeback_counted(self, config):
        alloy = AlloyCache(config)
        stride = config.fast_mem.capacity_bytes
        alloy.access(0, 0.0, is_write=True)
        alloy.access(stride, 1e5)
        assert alloy.counters["alloy.writebacks"] == 1

    def test_isa_hooks_are_noops(self, config):
        alloy = AlloyCache(config)
        alloy.isa_alloc(0)
        alloy.isa_free(0)
        assert alloy.counters["isa.alloc_seen"] == 0

    def test_hit_rate_tracks(self, config):
        alloy = AlloyCache(config)
        alloy.access(0, 0.0)
        alloy.access(0, 1e5)
        assert alloy.cache_hit_rate == pytest.approx(0.5)


class TestPoM:
    def test_visible_capacity_is_total(self, config):
        assert PoMArchitecture(config).os_visible_bytes == (
            config.total_capacity_bytes
        )

    def test_fast_segment_hits_natively(self, config):
        pom = PoMArchitecture(config)
        result = pom.access(seg_addr(pom, 0, 0), 0.0)
        assert result.fast_hit

    def test_swap_after_threshold(self, config):
        pom = PoMArchitecture(config, swap_threshold=4)
        address = seg_addr(pom, 0, 2)
        for i in range(3):
            pom.access(address, i * 1e5)
        assert pom.swap_count == 0
        pom.access(address, 4e5)
        assert pom.swap_count == 1
        # The hot segment now resides in the stacked slot.
        assert pom.access(address, 5e5).fast_hit

    def test_swap_restores_on_competition(self, config):
        pom = PoMArchitecture(config, swap_threshold=2, swap_cooldown=0)
        a = seg_addr(pom, 0, 1)
        b = seg_addr(pom, 0, 2)
        for i in range(40):
            pom.access(a if (i // 4) % 2 == 0 else b, i * 1e5)
        assert pom.swap_count >= 2
        pom.group_state(0).validate()

    def test_cooldown_suppresses_pingpong(self, config):
        eager = PoMArchitecture(config, swap_threshold=2, swap_cooldown=0)
        cooled = PoMArchitecture(config, swap_threshold=2, swap_cooldown=64)
        for i in range(120):
            local = 1 + (i % 2)
            eager.access(seg_addr(eager, 0, local), i * 1e5)
            cooled.access(seg_addr(cooled, 0, local), i * 1e5)
        assert cooled.swap_count <= eager.swap_count

    def test_counter_is_free_space_agnostic(self, config):
        # PoM swaps unallocated (garbage) segments too: no ISA calls
        # were made, yet the swap machinery runs.
        pom = PoMArchitecture(config, swap_threshold=2)
        address = seg_addr(pom, 3, 4)
        for i in range(8):
            pom.access(address, i * 1e5)
        assert pom.swap_count >= 1

    def test_swap_rejects_out_of_range_group_and_local(self, config):
        # The swap keeps ``segment_at``'s range errors and raises them
        # before any transfer or remap.
        pom = PoMArchitecture(config)
        state = pom.group_state(0)
        groups = pom.geometry.num_groups
        with pytest.raises(ValueError, match=f"group {groups} out of range"):
            pom._swap_with_fast(groups, state, 1, 0.0)
        with pytest.raises(ValueError, match="local id -1 out of range"):
            pom._swap_with_fast(0, state, -1, 0.0)
        assert state.is_identity()
        assert pom.swap_count == 0
        assert pom.counters["dram.stacked.transfers"] == 0

    def test_invalid_threshold(self, config):
        with pytest.raises(ValueError):
            PoMArchitecture(config, swap_threshold=0)

    def test_invalid_cooldown(self, config):
        with pytest.raises(ValueError):
            PoMArchitecture(config, swap_cooldown=-1)


class TestCameo:
    def test_uses_cacheline_segments(self, config):
        cameo = CameoArchitecture(config)
        assert cameo.geometry.segment_bytes == CACHELINE_BYTES

    def test_metadata_entries_count(self, config):
        cameo = CameoArchitecture(config)
        assert cameo.metadata_entries == (
            config.fast_mem.capacity_bytes // CACHELINE_BYTES
        )

    def test_swaps_eagerly(self, config):
        cameo = CameoArchitecture(config)
        nf = cameo.geometry.num_fast_segments
        address = (nf + 5) * CACHELINE_BYTES  # off-chip line
        for i in range(80):
            cameo.access(address, i * 1e4)
            if cameo.swap_count:
                break
        assert cameo.swap_count >= 1

    def test_more_adaptive_than_pom_at_line_granularity(self, config):
        # A single hot line: CAMEO migrates it within the cooldown-free
        # threshold-1 window, PoM needs 2KB-segment counter wins.
        cameo = CameoArchitecture(config)
        nf = cameo.geometry.num_fast_segments
        address = (nf + 9) * CACHELINE_BYTES
        for i in range(200):
            result = cameo.access(address, i * 1e4)
        assert result.fast_hit


class TestPolymorphicMemory:
    def test_boot_groups_cache(self, config):
        poly = PolymorphicMemory(config)
        assert poly.group_state(0).mode is Mode.CACHE

    def test_stacked_alloc_goes_static(self, config):
        poly = PolymorphicMemory(config)
        poly.isa_alloc(poly.geometry.segment_at(0, 0))
        assert poly.group_state(0).mode is Mode.POM

    def test_static_groups_never_swap(self, config):
        poly = PolymorphicMemory(config)
        poly.isa_alloc(poly.geometry.segment_at(0, 0))
        address = seg_addr(poly, 0, 3)
        for i in range(100):
            result = poly.access(address, i * 1e4)
        assert not result.fast_hit
        assert poly.swap_count == 0

    def test_free_stacked_slot_caches(self, config):
        poly = PolymorphicMemory(config)
        address = seg_addr(poly, 0, 2)
        poly.access(address, 0.0)
        assert poly.access(address, 1e5).fast_hit
        assert poly.counters["polymorphic.cache_hits"] >= 1

    def test_stacked_alloc_stops_caching(self, config):
        poly = PolymorphicMemory(config)
        address = seg_addr(poly, 0, 2)
        poly.access(address, 0.0)
        poly.isa_alloc(poly.geometry.segment_at(0, 0))
        result = poly.access(address, 1e6)
        assert not result.fast_hit

    def test_free_reenables_caching(self, config):
        poly = PolymorphicMemory(config)
        stacked = poly.geometry.segment_at(0, 0)
        poly.isa_alloc(stacked)
        poly.isa_free(stacked)
        assert poly.group_state(0).mode is Mode.CACHE

    def test_cache_mode_fraction(self, config):
        poly = PolymorphicMemory(config)
        poly.isa_alloc(poly.geometry.segment_at(0, 0))
        poly.group_state(1)  # untouched group stays cache mode
        assert poly.cache_mode_fraction() == pytest.approx(0.5)

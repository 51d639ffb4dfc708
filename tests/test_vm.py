"""Tests for virtual memory and the page-fault engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KB, MB, PAGE_BYTES, THP_BYTES
from repro.osmodel import (
    AddressSpace,
    BuddyAllocator,
    PageFaultEngine,
    PageHookDispatcher,
    VirtualMemory,
)


class RecordingNotifier:
    def __init__(self):
        self.allocs = []
        self.frees = []

    def isa_alloc(self, segment_id):
        self.allocs.append(segment_id)

    def isa_free(self, segment_id):
        self.frees.append(segment_id)


class TestAddressSpace:
    def test_translate_unmapped_is_none(self):
        assert AddressSpace(1).translate(0x1000) is None

    def test_map_and_translate(self):
        space = AddressSpace(1)
        space.map(0x10000, 0x4000, PAGE_BYTES)
        assert space.translate(0x10000) == 0x4000
        assert space.translate(0x10004) == 0x4004

    def test_double_map_rejected(self):
        space = AddressSpace(1)
        space.map(0, 0x1000, PAGE_BYTES)
        with pytest.raises(ValueError):
            space.map(0, 0x2000, PAGE_BYTES)

    def test_unmap(self):
        space = AddressSpace(1)
        space.map(0, 0x1000, 2 * PAGE_BYTES)
        mapping = space.unmap(PAGE_BYTES)  # any page of the mapping
        assert mapping.size == 2 * PAGE_BYTES
        assert space.translate(0) is None

    def test_unmap_missing_raises(self):
        with pytest.raises(KeyError):
            AddressSpace(1).unmap(0)

    def test_mapped_bytes(self):
        space = AddressSpace(1)
        space.map(0, 0x1000, 3 * PAGE_BYTES)
        assert space.mapped_bytes() == 3 * PAGE_BYTES


class TestAddressSpaceLastPageCache:
    """The one-entry last-page cache is a pure lookup shortcut: every
    observable translation must match the uncached walk."""

    def test_repeated_same_page_translations(self):
        space = AddressSpace(1)
        space.map(0x10000, 0x4000, PAGE_BYTES)
        # Second lookup is served by the cache; results identical.
        assert space.translate(0x10000) == 0x4000
        assert space.translate(0x10008) == 0x4008
        assert space.translate(0x10ffc) == 0x4ffc

    def test_cache_does_not_leak_across_pages(self):
        space = AddressSpace(1)
        space.map(0, 0x1000, PAGE_BYTES)
        space.map(PAGE_BYTES, 0x9000, PAGE_BYTES)
        assert space.translate(4) == 0x1004
        assert space.translate(PAGE_BYTES + 4) == 0x9004
        assert space.translate(4) == 0x1004

    def test_unmap_invalidates_cached_page(self):
        space = AddressSpace(1)
        space.map(0, 0x1000, PAGE_BYTES)
        assert space.translate(0) == 0x1000  # now cached
        space.unmap(0)
        assert space.translate(0) is None

    def test_negative_lookup_not_cached(self):
        space = AddressSpace(1)
        assert space.translate(0x2000) is None
        space.map(0x2000, 0x7000, PAGE_BYTES)
        assert space.translate(0x2000) == 0x7000

    def test_remap_after_unmap_translates_fresh(self):
        space = AddressSpace(1)
        space.map(0, 0x1000, PAGE_BYTES)
        assert space.translate(0) == 0x1000
        space.unmap(0)
        space.map(0, 0x5000, PAGE_BYTES)
        assert space.translate(0) == 0x5000

    @given(
        st.lists(
            st.integers(min_value=0, max_value=31), min_size=1, max_size=200
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_cached_translation_matches_model(self, vpages):
        """Arbitrary translate sequences agree with a plain dict model
        — the cache can never change a result (and therefore never a
        fault count or access timing derived from one)."""
        space = AddressSpace(1)
        model = {}
        for vpage in range(0, 32, 2):  # even pages mapped, odd missing
            paddr = 0x100000 + vpage * PAGE_BYTES
            space.map(vpage * PAGE_BYTES, paddr, PAGE_BYTES)
            model[vpage] = paddr
        for vpage in vpages:
            vaddr = vpage * PAGE_BYTES + (vpage % PAGE_BYTES)
            expected = (
                model[vpage] + vpage % PAGE_BYTES
                if vpage in model
                else None
            )
            assert space.translate(vaddr) == expected


class TestTranslateBatch:
    """Vectorised page-table lookups must agree lane-for-lane with the
    scalar resident-set view, and stop at the first non-resident lane."""

    def _engine(self, pages_resident, capacity_pages=8):
        engine = PageFaultEngine(capacity_pages * PAGE_BYTES)
        for page in pages_resident:
            engine.access(page * PAGE_BYTES)
        return engine

    def test_all_resident_column(self):
        engine = self._engine([0, 1, 2, 3])
        addresses = np.array(
            [2 * PAGE_BYTES + 8, 12, 3 * PAGE_BYTES, PAGE_BYTES + 100],
            dtype=np.int64,
        )
        physical, pages, n_resident = engine.translate_batch(addresses)
        assert n_resident == len(addresses)
        assert pages.tolist() == [2, 0, 3, 1]
        # Every lane agrees with the scalar translation.
        for lane, address in enumerate(addresses.tolist()):
            _, expected = engine.access_translate(address)
            assert physical[lane] == expected

    def test_fault_on_lane_zero(self):
        engine = self._engine([0, 1])
        addresses = np.array(
            [5 * PAGE_BYTES, 0, PAGE_BYTES], dtype=np.int64
        )
        physical, pages, n_resident = engine.translate_batch(addresses)
        assert n_resident == 0
        assert len(physical) == 0
        assert len(pages) == 0

    def test_fault_mid_column_cuts_prefix(self):
        engine = self._engine([0, 1, 2])
        addresses = np.array(
            [0, PAGE_BYTES, 7 * PAGE_BYTES, 2 * PAGE_BYTES],
            dtype=np.int64,
        )
        _, pages, n_resident = engine.translate_batch(addresses)
        assert n_resident == 2
        assert pages.tolist() == [0, 1]

    def test_fault_on_last_lane(self):
        engine = self._engine([0, 1])
        addresses = np.array([0, PAGE_BYTES, 9 * PAGE_BYTES], dtype=np.int64)
        _, _, n_resident = engine.translate_batch(addresses)
        assert n_resident == 2

    def test_addresses_beyond_frame_table_are_non_resident(self):
        engine = self._engine([0])
        far = 10_000 * PAGE_BYTES  # page index past the table's extent
        addresses = np.array([0, far], dtype=np.int64)
        _, _, n_resident = engine.translate_batch(addresses)
        assert n_resident == 1

    def test_eviction_invalidates_frame_table(self):
        engine = PageFaultEngine(2 * PAGE_BYTES)
        engine.access(0)
        engine.access(PAGE_BYTES)
        engine.access(2 * PAGE_BYTES)  # evicts page 0 (LRU)
        addresses = np.array([0], dtype=np.int64)
        _, _, n_resident = engine.translate_batch(addresses)
        assert n_resident == 0

    def test_touch_resident_many_orders_lru(self):
        engine = PageFaultEngine(2 * PAGE_BYTES)
        engine.access(0)
        engine.access(PAGE_BYTES)
        engine.touch_resident_many([0])  # page 1 becomes LRU
        engine.access(2 * PAGE_BYTES)    # must evict page 1
        assert engine.access(0) == 0
        assert engine.access(PAGE_BYTES) == engine.fault_latency_cycles

    @given(
        st.lists(
            st.integers(min_value=0, max_value=31), min_size=1, max_size=120
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_prefix_matches_scalar_walk(self, pages):
        """After any access history, translate_batch's prefix equals
        the scalar per-lane walk: resident lanes translate identically
        and the horizon is the first non-resident lane."""
        engine = PageFaultEngine(4 * PAGE_BYTES)
        for page in pages:
            engine.access(page * PAGE_BYTES)
        probe = list(range(0, 32, 3))
        addresses = np.array(
            [p * PAGE_BYTES + 7 for p in probe], dtype=np.int64
        )
        physical, batch_pages, n_resident = engine.translate_batch(addresses)
        for lane, page in enumerate(probe):
            if lane < n_resident:
                assert engine.is_resident(page)
                assert batch_pages[lane] == page
                assert physical[lane] % PAGE_BYTES == 7
                assert (
                    physical[lane] // PAGE_BYTES
                    == engine._resident[page]
                )
            else:
                break
        if n_resident < len(probe):
            assert not engine.is_resident(probe[n_resident])


class TestVirtualMemory:
    def setup_method(self):
        self.buddy = BuddyAllocator(8 * MB)
        self.notifier = RecordingNotifier()
        dispatcher = PageHookDispatcher(2 * KB, PAGE_BYTES, self.notifier)
        self.vm = VirtualMemory(
            allocate_backing=lambda size: self.buddy.alloc(
                max(0, (size // PAGE_BYTES - 1).bit_length())
            ),
            free_backing=self.buddy.free,
            dispatcher=dispatcher,
        )

    def test_first_touch_allocates(self):
        paddr = self.vm.touch(pid=1, vaddr=0x5000)
        assert paddr is not None
        assert self.notifier.allocs  # ISA-Alloc fired (Algorithm 1)

    def test_second_touch_is_stable(self):
        first = self.vm.touch(1, 0x5000)
        second = self.vm.touch(1, 0x5000)
        assert first == second

    def test_thp_touch_maps_2mb(self):
        self.vm.touch(1, 0x200000, prefer_thp=True)
        space = self.vm.space(1)
        assert space.mapped_bytes() == THP_BYTES
        assert len(self.notifier.allocs) == THP_BYTES // (2 * KB)

    def test_thp_fallback_to_base_pages(self):
        # Exhaust so no 2MB block remains but 4KB pages do.
        holds = []
        while self.buddy.free_bytes >= THP_BYTES:
            holds.append(self.buddy.alloc(0))
        self.vm.touch(1, 0x200000, prefer_thp=True)
        assert self.vm.space(1).mapped_bytes() == PAGE_BYTES

    def test_release_frees_and_notifies(self):
        self.vm.touch(1, 0x5000)
        before = self.buddy.free_bytes
        self.vm.release(1, 0x5000)
        assert self.buddy.free_bytes == before + PAGE_BYTES
        assert self.notifier.frees

    def test_release_all(self):
        for page in range(5):
            self.vm.touch(1, page * PAGE_BYTES)
        released = self.vm.release_all(1)
        assert released == 5 * PAGE_BYTES
        assert self.vm.space(1).mapped_bytes() == 0

    def test_isolated_address_spaces(self):
        a = self.vm.touch(1, 0x5000)
        b = self.vm.touch(2, 0x5000)
        assert a != b


class TestPageFaultEngine:
    def test_first_touch_is_minor_with_capacity(self):
        engine = PageFaultEngine(16 * PAGE_BYTES)
        assert engine.access(0) == 0
        assert engine.page_faults == 0

    def test_resident_hit_is_free(self):
        engine = PageFaultEngine(16 * PAGE_BYTES)
        engine.access(0)
        assert engine.access(0) == 0

    def test_refault_after_eviction_is_major(self):
        engine = PageFaultEngine(2 * PAGE_BYTES)
        engine.access(0)
        engine.access(PAGE_BYTES)
        engine.access(2 * PAGE_BYTES)  # evicts page 0
        cost = engine.access(0)
        assert cost == engine.fault_latency_cycles
        assert engine.page_faults >= 1

    def test_lru_eviction_order(self):
        engine = PageFaultEngine(2 * PAGE_BYTES)
        engine.access(0)
        engine.access(PAGE_BYTES)
        engine.access(0)  # page 0 is MRU; page 1 is LRU
        engine.access(2 * PAGE_BYTES)  # must evict page 1
        assert engine.access(0) == 0
        assert engine.access(PAGE_BYTES) > 0

    def test_translation_stays_in_capacity(self):
        capacity = 4 * PAGE_BYTES
        engine = PageFaultEngine(capacity)
        for page in range(50):
            _, physical = engine.access_translate(page * PAGE_BYTES + 12)
            assert 0 <= physical < capacity
            assert physical % PAGE_BYTES == 12

    def test_translation_stable_while_resident(self):
        engine = PageFaultEngine(8 * PAGE_BYTES)
        _, first = engine.access_translate(0)
        _, second = engine.access_translate(0)
        assert first == second

    def test_resident_pages_bounded(self):
        engine = PageFaultEngine(4 * PAGE_BYTES)
        for page in range(100):
            engine.access(page * PAGE_BYTES)
        assert engine.resident_pages <= 4

    def test_prime_marks_overflow_swapped_out(self):
        engine = PageFaultEngine(2 * PAGE_BYTES)
        engine.prime(page * PAGE_BYTES for page in range(4))
        # Pages 0 and 1 were evicted by priming; touching them is major.
        assert engine.access(0) == engine.fault_latency_cycles
        # Pages 2 and 3 are resident.
        assert engine.access(3 * PAGE_BYTES) == 0

    def test_prime_within_capacity_no_faults(self):
        engine = PageFaultEngine(8 * PAGE_BYTES)
        engine.prime(page * PAGE_BYTES for page in range(8))
        for page in range(8):
            assert engine.access(page * PAGE_BYTES) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PageFaultEngine(100)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=63), min_size=1, max_size=400
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_two_distinct_frames_never_alias(self, pages):
        engine = PageFaultEngine(8 * PAGE_BYTES)
        frames = {}
        for page in pages:
            _, physical = engine.access_translate(page * PAGE_BYTES)
            frames[page] = physical // PAGE_BYTES
            # All currently resident pages map to distinct frames.
            resident = {
                p: engine._resident[p] for p in engine._resident
            }
            assert len(set(resident.values())) == len(resident)

"""Tests for the page-fault engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PAGE_BYTES
from repro.osmodel import PageFaultEngine


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
            st.integers(min_value=0, max_value=47), min_size=1, max_size=200
        ),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_prime_matches_access_translate_walk(self, pages, capacity):
        """``prime`` is ``access_translate`` without the charging: the
        same sequence leaves the same LRU order and frames, the same
        swapped-out set and the same batch translations."""
        addresses = [page * PAGE_BYTES + page % 64 for page in pages]
        primed = PageFaultEngine(capacity * PAGE_BYTES)
        primed.prime(addresses)
        walked = PageFaultEngine(capacity * PAGE_BYTES)
        for address in addresses:
            walked.access_translate(address)
        assert list(primed._resident.items()) == list(walked._resident.items())
        assert primed._swapped_out == walked._swapped_out
        for page in range(48):
            column = np.array([page * PAGE_BYTES + 5], dtype=np.int64)
            got = primed.translate_batch(column)
            want = walked.translate_batch(column)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]

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

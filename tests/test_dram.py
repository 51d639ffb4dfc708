"""Tests for the DRAM substrate (banks, devices, hetero front end)."""

import pytest

from repro.config import MB, scaled_config, stacked_dram, offchip_dram, DramTiming
from repro.dram import Bank, DramDevice, HeterogeneousMemory, RowBufferResult
from repro.dram.controller import BUFFER_HIT_NS
from repro.stats import CounterSet


def make_device(capacity_mb=4, fast=True):
    config = stacked_dram(capacity_mb * MB) if fast else offchip_dram(capacity_mb * MB)
    return DramDevice(config)


class TestBank:
    def setup_method(self):
        self.bank = Bank(DramTiming(), clock_hz=1.6e9)

    def test_first_access_is_miss(self):
        _, result = self.bank.access(row=0, now_ns=0.0)
        assert result is RowBufferResult.MISS

    def test_same_row_hits(self):
        self.bank.access(0, 0.0)
        _, result = self.bank.access(0, 1000.0)
        assert result is RowBufferResult.HIT

    def test_different_row_conflicts(self):
        self.bank.access(0, 0.0)
        _, result = self.bank.access(1, 1000.0)
        assert result is RowBufferResult.CONFLICT

    def test_hit_faster_than_miss_faster_than_conflict(self):
        hit_bank = Bank(DramTiming(), 1.6e9)
        hit_bank.access(0, 0.0)
        hit_done, _ = hit_bank.access(0, 1000.0)

        miss_bank = Bank(DramTiming(), 1.6e9)
        miss_done, _ = miss_bank.access(0, 1000.0)

        conflict_bank = Bank(DramTiming(), 1.6e9)
        conflict_bank.access(1, 0.0)
        conflict_done, _ = conflict_bank.access(0, 1000.0)

        assert hit_done < miss_done < conflict_done

    def test_busy_bank_delays_access(self):
        done_first, _ = self.bank.access(0, 0.0)
        done_second, _ = self.bank.access(1, 0.0)
        assert done_second > done_first

    def test_precharge_closes_row(self):
        self.bank.access(0, 0.0)
        self.bank.precharge()
        _, result = self.bank.access(0, 1000.0)
        assert result is RowBufferResult.MISS


class TestDramDevice:
    def test_address_out_of_range_rejected(self):
        device = make_device()
        with pytest.raises(ValueError):
            device.access(4 * MB, 0.0)
        with pytest.raises(ValueError):
            device.access(-1, 0.0)

    def test_channel_interleave_at_line_granularity(self):
        device = make_device()
        channel0, _, _ = device.map_address(0)
        channel1, _, _ = device.map_address(64)
        assert channel0 != channel1

    def test_same_row_addresses_share_bank(self):
        device = make_device()
        _, bank_a, row_a = device.map_address(0)
        _, bank_b, row_b = device.map_address(128)
        assert (bank_a, row_a) == (bank_b, row_b)

    def test_latency_positive_and_finite(self):
        device = make_device()
        latency = device.access(0, 0.0)
        assert 0 < latency < 1e4

    def test_row_hit_cheaper_than_cold_access(self):
        device = make_device()
        cold = device.access(0, 0.0)
        hit = device.access(0, 1e6)
        assert hit < cold

    def test_counters_track_reads_and_writes(self):
        counters = CounterSet()
        device = DramDevice(stacked_dram(4 * MB), counters)
        device.access(0, 0.0, is_write=False)
        device.access(64, 0.0, is_write=True)
        assert counters["dram.stacked.reads"] == 1
        assert counters["dram.stacked.writes"] == 1
        assert counters["dram.stacked.bytes"] == 128

    def test_fast_device_faster_than_slow_under_load(self):
        fast = make_device(4, fast=True)
        slow = make_device(4, fast=False)
        fast_total = sum(fast.access(i * 64 % (4 * MB), i * 2.0) for i in range(200))
        slow_total = sum(slow.access(i * 64 % (4 * MB), i * 2.0) for i in range(200))
        assert fast_total < slow_total

    def test_transfer_occupies_channels(self):
        device = make_device()
        finish = device.transfer(0, 2048, 0.0)
        # A demand access right after the transfer waits for the bus.
        latency = device.access(0, 0.0)
        assert latency >= finish * 0.5

    def test_transfer_size_validation(self):
        with pytest.raises(ValueError):
            make_device().transfer(0, 0, 0.0)

    def test_transfer_counters(self):
        counters = CounterSet()
        device = DramDevice(stacked_dram(4 * MB), counters)
        device.transfer(0, 2048, 0.0)
        assert counters["dram.stacked.transfers"] == 1
        assert counters["dram.stacked.transfer_bytes"] == 2048

    def test_row_hit_rate_reporting(self):
        counters = CounterSet()
        device = DramDevice(stacked_dram(4 * MB), counters)
        device.access(0, 0.0)
        device.access(0, 1e6)
        assert counters["dram.stacked.row_miss"] == 1
        assert counters["dram.stacked.row_hit"] == 1
        assert counters["dram.stacked.row_conflict"] == 0

    def test_monotonic_arrivals_bounded_latency(self):
        device = make_device()
        latencies = [
            device.access((i * 64) % (4 * MB), i * 10.0) for i in range(1000)
        ]
        assert max(latencies) < 1000.0


class TestHeterogeneousMemory:
    def setup_method(self):
        self.config = scaled_config()
        self.memory = HeterogeneousMemory(self.config)

    def test_bandwidth_ratio_is_four(self):
        fast = self.memory.config.fast_mem.peak_bandwidth_bytes_per_sec
        slow = self.memory.config.slow_mem.peak_bandwidth_bytes_per_sec
        assert fast / slow == pytest.approx(4.0)

    def test_access_routes_to_devices(self):
        fast_latency = self.memory.access(True, 0, 0.0)
        slow_latency = self.memory.access(False, 0, 0.0)
        assert fast_latency > 0 and slow_latency > 0

    def test_swap_counts_and_bytes(self):
        seg = self.config.segment_bytes
        self.memory.start_swap(0, 0, 0.0, fast_segment_id=0, slow_segment_id=10)
        assert self.memory.swaps == 1
        assert self.memory.counters["swap.bytes"] == 4 * seg

    def test_fill_cheaper_than_swap(self):
        a = HeterogeneousMemory(self.config)
        b = HeterogeneousMemory(self.config)
        swap_done = a.start_swap(0, 0, 0.0, 0, 10)
        fill_done = b.start_fill(0, 0, 0.0, slow_segment_id=10)
        assert fill_done < swap_done

    def test_dirty_fill_costs_like_swap(self):
        clean = HeterogeneousMemory(self.config)
        dirty = HeterogeneousMemory(self.config)
        clean_done = clean.start_fill(0, 0, 0.0, 10, writeback=False)
        dirty_done = dirty.start_fill(0, 0, 0.0, 10, writeback=True)
        assert dirty_done > clean_done
        assert dirty.counters["swap.writebacks"] == 1

    def test_in_transit_access_hits_buffer(self):
        self.memory.start_swap(0, 0, 0.0, fast_segment_id=0, slow_segment_id=10)
        latency = self.memory.access(False, 0, 1.0, segment_id=10)
        assert latency == BUFFER_HIT_NS
        assert self.memory.counters["swap.buffer_hits"] == 1

    def test_buffer_expires_after_completion(self):
        completes = self.memory.start_swap(0, 0, 0.0, 0, 10)
        latency = self.memory.access(False, 0, completes + 1.0, segment_id=10)
        assert latency != BUFFER_HIT_NS

    def test_buffer_write_marks_dirty(self):
        self.memory.start_swap(0, 0, 0.0, 0, 10)
        self.memory.access(False, 0, 1.0, is_write=True, segment_id=10)
        buffer = self.memory._buffers[10]
        assert buffer.dirty

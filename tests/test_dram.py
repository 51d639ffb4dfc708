"""Tests for the DRAM substrate (banks, devices, hetero front end)."""

import random

import pytest

from repro.config import CACHELINE_BYTES, MB, scaled_config, stacked_dram, offchip_dram, DramTiming
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

    def test_utilisation_flushes_deferred_tallies(self):
        live, deferred = make_device(), make_device()
        deferred.begin_deferred_stats()
        for device in (live, deferred):
            device.access(0, 0.0)
            device.transfer(4096, 2048, 10.0)
            device.access(64, 20.0, is_write=True)
        assert deferred.utilisation(1000.0) == live.utilisation(1000.0) > 0
        assert deferred.counters == live.counters

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

    def test_in_transit_write_hits_buffer(self):
        self.memory.start_swap(0, 0, 0.0, 0, 10)
        latency = self.memory.access(False, 0, 1.0, is_write=True, segment_id=10)
        assert latency == BUFFER_HIT_NS
        assert self.memory.counters["swap.buffer_hits"] == 1


class _ReferenceDevice:
    """The device written out with its reference forms: ``map_address``
    plus :meth:`Bank.access` for the row step, the per-channel ``max()``
    walk for transfers, and one live counter update per event."""

    def __init__(self, config, counters):
        self.config = config
        self.mapper = DramDevice(config)  # only its ``map_address``
        self.banks = [
            Bank(config.timing, config.bus_frequency_hz)
            for _ in range(config.total_banks)
        ]
        self.channel_free_ns = [0.0] * config.channels
        self.counters = counters
        self.scope = f"dram.{config.name}"
        timing = config.timing
        self.refresh = 1.0 + timing.tRFC_ns / timing.tREFI_ns

    def access(self, address, now_ns, is_write):
        channel, bank_index, row = self.mapper.map_address(address)
        data_ready_ns, result = self.banks[bank_index].access(row, now_ns)
        burst_ns = self.config.burst_time_ns(CACHELINE_BYTES)
        start_ns = max(data_ready_ns, self.channel_free_ns[channel])
        finish_ns = start_ns + burst_ns
        self.channel_free_ns[channel] = finish_ns
        scope, counters = self.scope, self.counters
        counters.add(f"{scope}.accesses")
        counters.add(f"{scope}.bytes", CACHELINE_BYTES)
        counters.add(f"{scope}.writes" if is_write else f"{scope}.reads")
        counters.add(f"{scope}.row_{result.value}")
        counters.add(f"{scope}.busy_ns", burst_ns)
        return (finish_ns - now_ns) * self.refresh

    def transfer(self, address, num_bytes, now_ns):
        config = self.config
        _, bank_index, row = self.mapper.map_address(address)
        bank = self.banks[bank_index]
        data_ready_ns, result = bank.access(row, now_ns)
        channels = config.channels
        per_channel_bytes = -(-num_bytes // channels)
        rows_touched = max(1, -(-num_bytes // config.row_bytes))
        extra_opens = (rows_touched - 1) * config.timing.row_miss_cycles
        extra_open_ns = extra_opens / config.bus_frequency_hz * 1e9
        stream_ns = config.burst_time_ns(per_channel_bytes) + extra_open_ns
        finish_ns = data_ready_ns
        for channel in range(channels):
            start_ns = max(data_ready_ns, self.channel_free_ns[channel])
            channel_finish_ns = start_ns + stream_ns
            self.channel_free_ns[channel] = channel_finish_ns
            finish_ns = max(finish_ns, channel_finish_ns)
        bank.ready_ns = max(bank.ready_ns, finish_ns)
        scope, counters = self.scope, self.counters
        counters.add(f"{scope}.transfers")
        counters.add(f"{scope}.transfer_bytes", num_bytes)
        counters.add(f"{scope}.bytes", num_bytes)
        counters.add(f"{scope}.row_{result.value}")
        counters.add(f"{scope}.busy_ns", stream_ns * channels)
        return finish_ns


class TestTransferMatchesReference:
    """``DramDevice`` (fused row step, memoised stream cost, deferred
    demand and transfer tallies) against :class:`_ReferenceDevice`,
    exactly."""

    @staticmethod
    def _assert_same_state(device, reference):
        assert [(b.open_row, b.ready_ns) for b in device._banks] == [
            (b.open_row, b.ready_ns) for b in reference.banks
        ]
        assert device._channel_free_ns == reference.channel_free_ns

    #: Bus occupancy starts at 0, or at 2**51 where the ulp is 0.5: every
    #: burst and stream time here is a multiple of 1/8 ns, so only a
    #: start this large makes the order of the float additions show.
    BUSY_STARTS = [0.0, 2.0**51]

    def _drive(self, seed, fast, busy_start, flush):
        """Interleave 600 accesses and transfers on both sides.

        ``flush`` is ``"live"`` (no deferral: counters agree after
        every event), ``"random"`` (deferred, flushed at seeded-random
        points, where the counters must agree) or ``"end"`` (deferred,
        flushed only at the end).  Deferred counters are not compared
        between flushes: they are not published there.
        """
        config = stacked_dram(4 * MB) if fast else offchip_dram(4 * MB)
        busy = {f"dram.{config.name}.busy_ns": busy_start}
        device = DramDevice(config, CounterSet(busy))
        reference = _ReferenceDevice(config, CounterSet(busy))
        if flush != "live":
            device.begin_deferred_stats()
        rng = random.Random(seed)
        # A few hot rows per bank, so hits, misses and conflicts all
        # occur, on both sides of transfers that hold the buses.
        rows = [rng.randrange(config.capacity_bytes // 4096) for _ in range(6)]
        clock_ns = 0.0
        transfers = flushes = 0
        for _ in range(600):
            clock_ns += rng.choice([0.0, 0.0, 1.5, 7.0, 40.0, 300.0])
            # Swaps issue their second leg later than the demand clock.
            now_ns = clock_ns + rng.choice([0.0, 0.0, 0.0, 25.0, 500.0])
            if rng.random() < 0.3:
                num_bytes = rng.choice([64, 2048, 4096])
                address = rng.choice(rows) * 4096 + rng.randrange(
                    0, 4096, num_bytes
                )
                assert device.transfer(
                    address, num_bytes, now_ns
                ) == reference.transfer(address, num_bytes, now_ns)
                transfers += 1
            else:
                address = rng.choice(rows) * 4096 + rng.randrange(0, 4096, 64)
                is_write = rng.random() < 0.4
                assert device.access(
                    address, now_ns, is_write
                ) == reference.access(address, now_ns, is_write)
            if flush == "live":
                assert device.counters == reference.counters
            elif flush == "random" and rng.random() < 0.05:
                device.flush_deferred_stats()
                flushes += 1
                assert device.counters == reference.counters
            self._assert_same_state(device, reference)
        device.end_deferred_stats()
        assert transfers > 100
        assert flushes > 10 or flush != "random"
        assert device.counters == reference.counters
        for kind in ("hit", "miss", "conflict"):
            assert device.counters[f"dram.{config.name}.row_{kind}"] > 0

    @pytest.mark.parametrize("busy_start", BUSY_STARTS)
    @pytest.mark.parametrize("deferred", [False, True])
    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_accesses_and_transfers(
        self, seed, fast, deferred, busy_start
    ):
        self._drive(seed, fast, busy_start, "random" if deferred else "live")

    @pytest.mark.parametrize("busy_start", BUSY_STARTS)
    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_deferred_until_the_end(self, seed, fast, busy_start):
        self._drive(seed, fast, busy_start, "end")

    @pytest.mark.parametrize("address", [-64, -1, 4 * MB, 4 * MB + 2048])
    def test_out_of_range_transfer_raises_like_map_address(self, address):
        device = make_device()
        with pytest.raises(ValueError) as mapped:
            device.map_address(address)
        with pytest.raises(ValueError) as transferred:
            device.transfer(address, 2048, 0.0)
        assert str(transferred.value) == str(mapped.value) == (
            f"address {address:#x} outside stacked device "
            f"(capacity {4 * MB:#x})"
        )


class _ReferenceStaging(HeterogeneousMemory):
    """``start_swap``/``start_fill`` in their earlier form: ``max()``
    for the completion times and one ``_stage`` (stage, then prune past
    64 entries) per segment."""

    def start_swap(self, fast_address, slow_address, now_ns,
                   fast_segment_id, slow_segment_id):
        seg = self.config.segment_bytes
        fast_read = self.fast.transfer(fast_address, seg, now_ns)
        slow_read = self.slow.transfer(slow_address, seg, now_ns)
        read_done = max(fast_read, slow_read)
        fast_done = self.fast.transfer(fast_address, seg, read_done)
        slow_done = self.slow.transfer(slow_address, seg, read_done)
        completes = max(fast_done, slow_done)
        self._stage(fast_segment_id, completes)
        self._stage(slow_segment_id, completes)
        self.counters.add("swap.swaps")
        self.counters.add("swap.bytes", 4 * seg)
        return completes

    def start_fill(self, fast_address, slow_address, now_ns,
                   slow_segment_id, writeback=False):
        seg = self.config.segment_bytes
        start = now_ns
        if writeback:
            wb_fast = self.fast.transfer(fast_address, seg, start)
            wb_slow = self.slow.transfer(slow_address, seg, start)
            start = max(wb_fast, wb_slow)
            self.counters.add("swap.writebacks")
            self.counters.add("swap.bytes", 2 * seg)
        slow_done = self.slow.transfer(slow_address, seg, start)
        fast_done = self.fast.transfer(fast_address, seg, start)
        completes = max(slow_done, fast_done)
        self._stage(slow_segment_id, completes)
        self.counters.add("swap.fills")
        self.counters.add("swap.bytes", 2 * seg)
        return completes

    def _stage(self, segment_id, completes_ns):
        buffers = self._buffers
        buffers[segment_id] = completes_ns
        if len(buffers) > 64:
            expired = [
                sid
                for sid, done_ns in buffers.items()
                if done_ns <= completes_ns - 1.0
            ]
            for sid in expired:
                del buffers[sid]


class TestStagingMatchesReference:
    """Swap/fill staging and its bounded prune against
    :class:`_ReferenceStaging`, exactly: return values, the buffer map
    and every counter.  The prune rule (drop ``done <= completes - 1``,
    where ``completes`` is the new transfer's) is pinned as it is."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_swaps_and_fills(self, seed):
        config = scaled_config()
        memory = HeterogeneousMemory(config)
        reference = _ReferenceStaging(config)
        sides = (memory, reference)
        rng = random.Random(seed)
        seg = config.segment_bytes
        fast_segments = config.fast_mem.capacity_bytes // seg
        slow_segments = config.slow_mem.capacity_bytes // seg
        clock_ns = 0.0
        pruned = kept = 0
        for step in range(1500):
            clock_ns += rng.choice([0.0, 3.0, 20.0, 150.0, 2000.0])
            now_ns = clock_ns + rng.choice([0.0, 0.0, 60.0])
            before = dict(memory._buffers)
            kind = rng.random()
            if kind < 0.05:
                # Entries still in flight far ahead, so prunes also
                # keep something besides the segments just staged.
                sid, done = rng.randrange(500, 520), now_ns + 1e7
                for side in sides:
                    side._buffers[sid] = done
                continue
            if kind < 0.35:
                in_fast = rng.random() < 0.5
                address = rng.randrange(
                    (fast_segments if in_fast else slow_segments) * seg
                ) // 64 * 64
                sid = rng.randrange(300)
                is_write = rng.random() < 0.3
                results = [
                    side.access(in_fast, address, now_ns, is_write, sid)
                    for side in sides
                ]
            else:
                fast_address = rng.randrange(fast_segments) * seg
                slow_address = rng.randrange(slow_segments) * seg
                staged = [rng.randrange(300), rng.randrange(300)]
                if kind < 0.7:
                    results = [
                        side.start_swap(
                            fast_address, slow_address, now_ns, *staged
                        )
                        for side in sides
                    ]
                else:
                    writeback = rng.random() < 0.5
                    staged = staged[1:]
                    results = [
                        side.start_fill(
                            fast_address, slow_address, now_ns,
                            staged[0], writeback=writeback,
                        )
                        for side in sides
                    ]
                survivors = set(before) - set(staged)
                if not survivors <= set(memory._buffers):
                    pruned += 1
                    kept += bool(survivors & set(memory._buffers))
            assert results[0] == results[1]
            assert memory._buffers == reference._buffers
            assert memory.counters == reference.counters
        assert pruned > 20 and kept > 5
        assert memory.counters["swap.buffer_hits"] > 0
        assert memory.counters["swap.writebacks"] > 0

    @pytest.mark.parametrize("op", ["swap", "fill", "dirty fill"])
    def test_prune_boundary(self, op):
        # 64 staged entries around the completion time ``c`` of the
        # next transfer: the prune that its staging triggers drops
        # exactly those with ``done <= c - 1``.
        config = scaled_config()

        def run(memory):
            if op == "swap":
                return memory.start_swap(0, 0, 100.0, 1, 2)
            return memory.start_fill(
                0, 0, 100.0, 2, writeback=op == "dirty fill"
            )

        c = run(HeterogeneousMemory(config))
        offsets = [-3.0, -1.5, -1.0, -0.5, 0.0, 0.5] * 10 + [-1.0, 0.0, 0.5, 9.0]
        staged = {100 + i: c + d for i, d in enumerate(offsets)}
        results = []
        for memory in (HeterogeneousMemory(config), _ReferenceStaging(config)):
            memory._buffers = dict(staged)
            assert run(memory) == c
            results.append(memory._buffers)
        expected = {sid: done for sid, done in staged.items() if done > c - 1.0}
        expected.update({sid: c for sid in ([1, 2] if op == "swap" else [2])})
        assert results[0] == results[1] == expected

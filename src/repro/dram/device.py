"""A DRAM device: address mapping, banks, channel data buses, refresh.

The device services two kinds of traffic:

* ``access`` — a 64B demand read/write (one burst on one channel);
* ``transfer`` — a bulk multi-burst transfer used for segment swaps;
  it occupies the channel data bus back-to-back and streams through
  banks row by row, which is what makes concurrent demand accesses
  observe queueing delay (swap interference).

Refresh is modelled statistically: each access is inflated by the
device's refresh duty factor ``tRFC / tREFI``, the standard closed-form
approximation for refresh-induced unavailability.
"""

from __future__ import annotations

from repro.config import DramConfig, CACHELINE_BYTES
from repro.dram.bank import Bank
from repro.stats import CounterSet
from repro.stats.counters import fold_repeat


class DramDevice:
    """One memory (stacked or off-chip) with Table I organisation."""

    def __init__(self, config: DramConfig, counters: CounterSet | None = None):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        self._scope = f"dram.{config.name}"
        self._banks = [
            Bank(config.timing, config.bus_frequency_hz)
            for _ in range(config.total_banks)
        ]
        self._channel_free_ns = [0.0] * config.channels
        timing = config.timing
        self._refresh_factor = 1.0 + timing.tRFC_ns / timing.tREFI_ns
        # Hot-path constants: counter names (formatting them per access
        # dominated the demand path) and the fixed 64B burst time.
        self._burst_ns = config.burst_time_ns(CACHELINE_BYTES)
        scope = self._scope
        self._name_accesses = f"{scope}.accesses"
        self._name_bytes = f"{scope}.bytes"
        self._name_reads = f"{scope}.reads"
        self._name_writes = f"{scope}.writes"
        self._name_busy = f"{scope}.busy_ns"
        self._name_transfers = f"{scope}.transfers"
        self._name_transfer_bytes = f"{scope}.transfer_bytes"
        # Row-class counter names, indexed by the row class as a small
        # int (hit 0, miss 1, conflict 2): enum ``.value`` reads and
        # enum-keyed dict lookups run Python-level descriptors/hashes
        # and showed up in profiles, so ``access`` and ``transfer``
        # never build a ``RowBufferResult``.
        self._name_rows = tuple(
            f"{scope}.row_{kind}" for kind in ("hit", "miss", "conflict")
        )
        # Transfer size -> (per-channel stream ns, total bus busy ns).
        self._stream: dict[int, tuple[float, float]] = {}
        # Inlined address-mapping constants (see ``map_address``).
        self._capacity = config.capacity_bytes
        self._channels = config.channels
        self._row_bytes = config.row_bytes
        self._banks_per_channel = (
            config.ranks_per_channel * config.banks_per_rank
        )
        # Deferred accounting (the chunked kernel's bulk stats mode):
        # instead of five counter updates per access or transfer, the
        # device tallies plain ints and flushes them in bulk.  All
        # deferred quantities are integral except bus occupancy, kept
        # in the scalar loop's float order (see ``flush_deferred_stats``).
        self._deferred = False
        self._pending_reads = 0
        self._pending_writes = 0
        self._pending_rows = [0, 0, 0]
        self._pending_transfers = 0
        self._pending_transfer_bytes = 0
        # Demand bursts not yet folded into bus occupancy, and the
        # running ``busy_ns`` total once a deferred transfer seeded it.
        self._pending_bursts = 0
        self._busy_total: float | None = None

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------

    def map_address(self, address: int) -> tuple[int, int, int]:
        """Map a device-local byte address to (channel, bank, row).

        Channels interleave at cache-line granularity for bandwidth;
        banks interleave at row granularity for bank-level parallelism.
        """
        if address < 0 or address >= self.config.capacity_bytes:
            raise self._outside(address)
        line = address // CACHELINE_BYTES
        channel = line % self.config.channels
        row_global = address // self.config.row_bytes
        banks_per_channel = (
            self.config.ranks_per_channel * self.config.banks_per_rank
        )
        bank_in_channel = row_global % banks_per_channel
        bank = channel * banks_per_channel + bank_in_channel
        row = row_global // banks_per_channel
        return channel, bank, row

    def _outside(self, address: int) -> ValueError:
        return ValueError(
            f"address {address:#x} outside {self.config.name} device "
            f"(capacity {self._capacity:#x})"
        )

    # ------------------------------------------------------------------
    # Demand accesses
    # ------------------------------------------------------------------

    def access(
        self, address: int, now_ns: float, is_write: bool = False
    ) -> float:
        """Service one 64B access; returns its latency in ns."""
        # Inlined ``map_address`` (same arithmetic, same error) — the
        # demand path is hot enough that the extra call and the config
        # attribute chains were measurable.
        if address < 0 or address >= self._capacity:
            raise self._outside(address)
        row_global = address // self._row_bytes
        banks_per_channel = self._banks_per_channel
        channel = (address // CACHELINE_BYTES) % self._channels
        bank = self._banks[
            channel * banks_per_channel + row_global % banks_per_channel
        ]
        row = row_global // banks_per_channel
        # Fused :meth:`Bank.access` (the reference form lives there;
        # same classification, same timing, same state updates) with
        # the row class kept as a small int.
        ready = bank.ready_ns
        start_ns = now_ns if now_ns > ready else ready
        open_row = bank.open_row
        if open_row == row:  # None == int is False, so HIT implies open
            data_ready_ns = start_ns + bank._hit_ns
            bank.ready_ns = data_ready_ns
            row_kind = 0
        elif open_row is None:
            data_ready_ns = start_ns + bank._miss_ns
            bank.ready_ns = start_ns + bank._tras_ns
            row_kind = 1
        else:
            data_ready_ns = start_ns + bank._conflict_ns
            bank.ready_ns = start_ns + bank._tras_ns
            row_kind = 2
        bank.open_row = row
        # The data bus is only occupied for the burst itself; bank
        # preparation (ACT/PRE) overlaps with other banks' bursts.
        burst_ns = self._burst_ns
        channel_free = self._channel_free_ns[channel]
        burst_start_ns = (
            data_ready_ns if data_ready_ns > channel_free else channel_free
        )
        finish_ns = burst_start_ns + burst_ns
        self._channel_free_ns[channel] = finish_ns
        latency_ns = (finish_ns - now_ns) * self._refresh_factor

        if self._deferred:
            self._pending_bursts += 1
            if is_write:
                self._pending_writes += 1
            else:
                self._pending_reads += 1
            self._pending_rows[row_kind] += 1
            return latency_ns
        counters = self.counters
        counters.add(self._name_accesses)
        counters.add(self._name_bytes, CACHELINE_BYTES)
        counters.add(self._name_writes if is_write else self._name_reads)
        counters.add(self._name_rows[row_kind])
        counters.add(self._name_busy, burst_ns)
        return latency_ns

    # ------------------------------------------------------------------
    # Bulk transfers (segment swaps / cache fills)
    # ------------------------------------------------------------------

    def transfer(self, address: int, num_bytes: int, now_ns: float) -> float:
        """Stream ``num_bytes`` starting at ``address``; returns finish time.

        The transfer is issued as back-to-back cache-line bursts.  It
        holds the channel data bus, so demand accesses arriving during
        the transfer queue behind it — the swap-interference mechanism.
        """
        cost = self._stream.get(num_bytes)
        if cost is None:
            if num_bytes <= 0:
                raise ValueError("transfer size must be positive")
            # Within each channel the open row streams back-to-back (a
            # 2KB segment is one row in Table I); each further row opens.
            config = self.config
            per_channel_bytes = -(-num_bytes // self._channels)  # ceil
            rows_touched = max(1, -(-num_bytes // self._row_bytes))
            extra_opens = (rows_touched - 1) * config.timing.row_miss_cycles
            extra_open_ns = extra_opens / config.bus_frequency_hz * 1e9
            stream_ns = config.burst_time_ns(per_channel_bytes) + extra_open_ns
            cost = self._stream[num_bytes] = (
                stream_ns, stream_ns * self._channels
            )
        stream_ns, busy_ns = cost
        # Inlined ``map_address`` and the fused :meth:`Bank.access`, as
        # in :meth:`access`: the opening cost of the streamed region.
        if address < 0 or address >= self._capacity:
            raise self._outside(address)
        row_global = address // self._row_bytes
        banks_per_channel = self._banks_per_channel
        channel = (address // CACHELINE_BYTES) % self._channels
        bank = self._banks[
            channel * banks_per_channel + row_global % banks_per_channel
        ]
        row = row_global // banks_per_channel
        ready_ns = bank.ready_ns
        start_ns = now_ns if now_ns > ready_ns else ready_ns
        open_row = bank.open_row
        bank.open_row = row
        if open_row == row:
            data_ready_ns = ready_ns = start_ns + bank._hit_ns
            row_kind = 0
        else:
            ready_ns = start_ns + bank._tras_ns
            if open_row is None:
                data_ready_ns = start_ns + bank._miss_ns
                row_kind = 1
            else:
                data_ready_ns = start_ns + bank._conflict_ns
                row_kind = 2
        # Lines interleave across channels (same mapping as demand
        # accesses), so the stream splits evenly over every channel and
        # runs at the full device rate.
        channel_free_ns = self._channel_free_ns
        finish_ns = data_ready_ns
        for channel, free_ns in enumerate(channel_free_ns):
            if data_ready_ns >= free_ns:  # what ``max()`` picks on a tie
                free_ns = data_ready_ns
            channel_finish_ns = free_ns + stream_ns
            channel_free_ns[channel] = channel_finish_ns
            if channel_finish_ns > finish_ns:
                finish_ns = channel_finish_ns
        bank.ready_ns = finish_ns if finish_ns > ready_ns else ready_ns

        if self._deferred:
            self._pending_transfers += 1
            self._pending_transfer_bytes += num_bytes
            self._pending_rows[row_kind] += 1
            # Bus occupancy in the scalar loop's order: the live total,
            # then the bursts of the demand accesses since the last
            # transfer, then this transfer.
            total = self._busy_total
            if total is None:
                total = self.counters[self._name_busy]
            bursts = self._pending_bursts
            if bursts:
                total = fold_repeat(total, self._burst_ns, bursts)
                self._pending_bursts = 0
            self._busy_total = total + busy_ns
            return finish_ns
        counters = self.counters
        counters.add(self._name_transfers)
        counters.add(self._name_transfer_bytes, num_bytes)
        counters.add(self._name_bytes, num_bytes)
        counters.add(self._name_rows[row_kind])
        counters.add(self._name_busy, busy_ns)
        return finish_ns

    # ------------------------------------------------------------------
    # Deferred accounting (bulk stats mode)
    # ------------------------------------------------------------------

    def begin_deferred_stats(self) -> None:
        """Start tallying demand-access and transfer counters locally
        instead of updating :attr:`counters` per event (see
        :meth:`flush_deferred_stats` for the exactness argument)."""
        self._deferred = True

    def flush_deferred_stats(self) -> None:
        """Publish the pending tallies to :attr:`counters`.

        Integral tallies (access/read/write/row-class/byte/transfer
        counts) are added in one shot: integral float additions below
        2**53 land on the same value in any order.  Bus occupancy is a
        float sum whose order matters (repeated addition of a constant
        is *not* one multiply-add), so it makes the scalar loop's
        additions in its order: each deferred transfer folds the demand
        bursts pending before it, then its own time, into a running
        total seeded from the live counter; the flush folds the bursts
        since the last transfer and writes the total back.

        Between flushes the device's counters hold an earlier state, so
        this is exact only because nothing reads them there: the chunked
        kernel flushes before ``counters.reset()`` and at the end of the
        run, epoch samples read the live ``swap.swaps`` (never
        deferred), power and utilisation are read after the run, and
        :meth:`utilisation` flushes first.
        """
        reads, writes = self._pending_reads, self._pending_writes
        transfers = self._pending_transfers
        if not (reads or writes or transfers):
            return
        counters = self.counters
        accesses = reads + writes
        transfer_bytes = self._pending_transfer_bytes
        for name, count in (
            (self._name_accesses, accesses),
            (self._name_reads, reads),
            (self._name_writes, writes),
            (self._name_transfers, transfers),
            (self._name_transfer_bytes, transfer_bytes),
            (self._name_bytes, accesses * CACHELINE_BYTES + transfer_bytes),
            *zip(self._name_rows, self._pending_rows),
        ):
            if count:
                counters.add(name, count)
        name, burst, n = self._name_busy, self._burst_ns, self._pending_bursts
        if self._busy_total is None:
            counters.add_repeat(name, burst, n)
        else:
            counters[name] = fold_repeat(self._busy_total, burst, n)
        self._pending_reads = self._pending_writes = 0
        self._pending_rows = [0, 0, 0]
        self._pending_transfers = self._pending_transfer_bytes = 0
        self._pending_bursts = 0
        self._busy_total = None

    def end_deferred_stats(self) -> None:
        """Flush and return to per-access counter updates."""
        self.flush_deferred_stats()
        self._deferred = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def utilisation(self, elapsed_ns: float) -> float:
        """Fraction of elapsed time the device's buses were busy."""
        if elapsed_ns <= 0:
            return 0.0
        self.flush_deferred_stats()
        busy = self.counters[self._name_busy]
        return min(1.0, busy / (elapsed_ns * self.config.channels))

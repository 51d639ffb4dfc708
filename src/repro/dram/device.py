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
from repro.dram.bank import Bank, RowBufferResult
from repro.stats import CounterSet


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
        # Row-class counter names, plus the members themselves for
        # identity tests — both enum ``.value`` reads and enum-keyed
        # dict lookups run Python-level descriptors/hashes and showed
        # up in profiles, so the demand path branches on ``is``.
        self._name_row_hit = f"{scope}.row_hit"
        self._name_row_miss = f"{scope}.row_miss"
        self._name_row_conflict = f"{scope}.row_conflict"
        self._name_row = {
            result: f"{scope}.row_{result.value}" for result in RowBufferResult
        }
        # Inlined address-mapping constants (see ``map_address``).
        self._capacity = config.capacity_bytes
        self._channels = config.channels
        self._row_bytes = config.row_bytes
        self._banks_per_channel = (
            config.ranks_per_channel * config.banks_per_rank
        )
        # Deferred demand-access accounting (the chunked kernel's bulk
        # stats mode): instead of five counter updates per access, the
        # device tallies plain ints and flushes them in bulk.  All
        # deferred quantities are integral except bus occupancy, which
        # is ``n`` repeats of the constant per-burst time — both flush
        # bit-identically (see ``flush_deferred_stats``).
        self._deferred = False
        self._pending_accesses = 0
        self._pending_reads = 0
        self._pending_writes = 0
        self._pending_row_hit = 0
        self._pending_row_miss = 0
        self._pending_row_conflict = 0

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------

    def map_address(self, address: int) -> tuple[int, int, int]:
        """Map a device-local byte address to (channel, bank, row).

        Channels interleave at cache-line granularity for bandwidth;
        banks interleave at row granularity for bank-level parallelism.
        """
        if address < 0 or address >= self.config.capacity_bytes:
            raise ValueError(
                f"address {address:#x} outside {self.config.name} device "
                f"(capacity {self.config.capacity_bytes:#x})"
            )
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
            raise ValueError(
                f"address {address:#x} outside {self.config.name} device "
                f"(capacity {self._capacity:#x})"
            )
        row_global = address // self._row_bytes
        banks_per_channel = self._banks_per_channel
        channel = (address // CACHELINE_BYTES) % self._channels
        bank = self._banks[
            channel * banks_per_channel + row_global % banks_per_channel
        ]
        row = row_global // banks_per_channel
        # Fused :meth:`Bank.access` (the reference form lives there;
        # same classification, same timing, same state updates) with
        # the row class kept as a small int — the per-access enum costs
        # (``.value`` descriptors, Python-level ``__hash__``) were
        # measurable.
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
            self._pending_accesses += 1
            if is_write:
                self._pending_writes += 1
            else:
                self._pending_reads += 1
            if row_kind == 0:
                self._pending_row_hit += 1
            elif row_kind == 1:
                self._pending_row_miss += 1
            else:
                self._pending_row_conflict += 1
            return latency_ns
        counters = self.counters
        counters.add(self._name_accesses)
        counters.add(self._name_bytes, CACHELINE_BYTES)
        counters.add(self._name_writes if is_write else self._name_reads)
        if row_kind == 0:
            counters.add(self._name_row_hit)
        elif row_kind == 1:
            counters.add(self._name_row_miss)
        else:
            counters.add(self._name_row_conflict)
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
        if num_bytes <= 0:
            raise ValueError("transfer size must be positive")
        if self._deferred:
            # Transfers share the ``busy_ns`` counter with deferred
            # demand accesses; flush the pending tallies first so the
            # float accumulation order matches the undeferred path.
            self.flush_deferred_stats()
        _, bank_index, row = self.map_address(address)
        bank = self._banks[bank_index]
        # Opening cost: the first access in the streamed region.
        data_ready_ns, result = bank.access(row, now_ns)
        # Lines interleave across channels (same mapping as demand
        # accesses), so the stream splits evenly over every channel and
        # runs at the full device rate; within each channel the open row
        # streams back-to-back (a 2KB segment is one row in Table I).
        channels = self.config.channels
        per_channel_bytes = -(-num_bytes // channels)  # ceil division
        rows_touched = max(1, -(-num_bytes // self.config.row_bytes))
        extra_opens = (rows_touched - 1) * self.config.timing.row_miss_cycles
        extra_open_ns = extra_opens / self.config.bus_frequency_hz * 1e9
        stream_ns = self.config.burst_time_ns(per_channel_bytes) + extra_open_ns
        finish_ns = data_ready_ns
        for channel in range(channels):
            burst_start_ns = max(
                data_ready_ns, self._channel_free_ns[channel]
            )
            channel_finish_ns = burst_start_ns + stream_ns
            self._channel_free_ns[channel] = channel_finish_ns
            finish_ns = max(finish_ns, channel_finish_ns)
        bank.ready_ns = max(bank.ready_ns, finish_ns)

        self.counters.add(f"{self._scope}.transfers")
        self.counters.add(f"{self._scope}.transfer_bytes", num_bytes)
        self.counters.add(self._name_bytes, num_bytes)
        self.counters.add(self._name_row[result])
        self.counters.add(self._name_busy, stream_ns * channels)
        return finish_ns

    # ------------------------------------------------------------------
    # Deferred demand-access accounting (bulk stats mode)
    # ------------------------------------------------------------------

    def begin_deferred_stats(self) -> None:
        """Start tallying demand-access counters locally instead of
        updating :attr:`counters` per access (see
        :meth:`flush_deferred_stats` for the exactness argument)."""
        self._deferred = True

    def flush_deferred_stats(self) -> None:
        """Publish the pending tallies to :attr:`counters`.

        Integral tallies (access/read/write/row-class/byte counts) are
        added in one shot — ``n`` repeated ``+1`` float additions equal
        a single ``+n`` exactly for any count below 2**53.  Bus
        occupancy is ``n`` repeats of the constant per-burst time,
        flushed as ``n`` sequential additions (:meth:`CounterSet
        .add_repeat`) because repeated float addition of a constant is
        *not* equivalent to one multiply-add.
        """
        n = self._pending_accesses
        if not n:
            return
        counters = self.counters
        counters.add(self._name_accesses, n)
        counters.add(self._name_bytes, n * CACHELINE_BYTES)
        if self._pending_reads:
            counters.add(self._name_reads, self._pending_reads)
        if self._pending_writes:
            counters.add(self._name_writes, self._pending_writes)
        if self._pending_row_hit:
            counters.add(self._name_row_hit, self._pending_row_hit)
        if self._pending_row_miss:
            counters.add(self._name_row_miss, self._pending_row_miss)
        if self._pending_row_conflict:
            counters.add(self._name_row_conflict, self._pending_row_conflict)
        counters.add_repeat(self._name_busy, self._burst_ns, n)
        self._pending_accesses = 0
        self._pending_reads = 0
        self._pending_writes = 0
        self._pending_row_hit = 0
        self._pending_row_miss = 0
        self._pending_row_conflict = 0

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
        busy = self.counters[f"{self._scope}.busy_ns"]
        return min(1.0, busy / (elapsed_ns * self.config.channels))

"""System configuration for the Chameleon reproduction.

The dataclasses here mirror Table I of the paper (the simulated baseline
configuration): a 12-core out-of-order CPU with a three-level cache
hierarchy, a 4GB high-bandwidth stacked DRAM, a 20GB off-chip DRAM, and an
SSD-backed page-fault path costing 100K CPU cycles.

All capacities are expressed in bytes, all clocks in Hz, and all DRAM
timings in device clock cycles (the usual tCAS-tRCD-tRP-tRAS notation).
Helper constructors build the paper's exact configurations, including the
1:3 / 1:5 / 1:7 stacked-to-off-chip capacity ratios used in the
sensitivity studies (Figures 21 and 23).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Paper default: 2KB segments, as in the PoM baseline (Sim et al.).
DEFAULT_SEGMENT_BYTES = 2 * KB

#: CAMEO-style fine-grain segments.
CACHELINE_BYTES = 64

#: Base OS page size (4KB).
PAGE_BYTES = 4 * KB

#: Page-fault service latency in CPU cycles (Table I, SSD-backed).
PAGE_FAULT_LATENCY_CYCLES = 100_000


@dataclass(frozen=True)
class CoreConfig:
    """A single out-of-order core (Table I: 12 cores at 3.6GHz, ALPHA)."""

    frequency_hz: float = 3.6e9
    issue_width: int = 4
    #: Base cycles-per-instruction when no off-chip memory stall occurs.
    base_cpi: float = 0.40
    #: Effective memory-level parallelism: number of outstanding LLC
    #: misses whose latencies overlap.  Used by the analytic timing model.
    mlp: float = 4.0

    # The ns <-> cycle conversions below are the *only* forms used
    # throughout the simulator (engine, timing model, reporting).  They
    # deliberately keep the historical operand order — ``x / f * 1e9``
    # and ``ns * 1e-9 * f`` — so the refactor that centralised them
    # changed no result bit.

    @property
    def ns_per_instruction(self) -> float:
        """Wall time of one instruction at base CPI, in ns."""
        return self.base_cpi / self.frequency_hz * 1e9

    @property
    def ns_per_cycle(self) -> float:
        """Duration of one core clock cycle in ns."""
        return 1 / self.frequency_hz * 1e9

    def cycles_to_ns(self, cycles: float) -> float:
        """Core clock cycles -> nanoseconds."""
        return cycles / self.frequency_hz * 1e9

    def ns_to_cycles(self, ns: float) -> float:
        """Nanoseconds -> core clock cycles."""
        return ns * 1e-9 * self.frequency_hz


@dataclass(frozen=True)
class CacheLevelConfig:
    """One level of the SRAM cache hierarchy."""

    capacity_bytes: int
    associativity: int
    line_bytes: int = 64
    latency_cycles: int = 2
    shared: bool = False

    @property
    def num_sets(self) -> int:
        lines = self.capacity_bytes // self.line_bytes
        return max(1, lines // self.associativity)


@dataclass(frozen=True)
class DramTiming:
    """DRAM device timing parameters, in device clock cycles.

    Matches Table I: both memories use tCAS-tRCD-tRP-tRAS = 11-11-11-28;
    the stacked DRAM has tRFC = 138ns, the off-chip DRAM 530ns.
    """

    tCAS: int = 11
    tRCD: int = 11
    tRP: int = 11
    tRAS: int = 28
    tRFC_ns: float = 138.0
    #: Refresh interval (standard 64ms retention / 8192 rows).
    tREFI_ns: float = 7800.0
    #: Burst length in bus transfers (DDR: 8 transfers per burst).
    burst_length: int = 8

    @property
    def row_hit_cycles(self) -> int:
        """Cycles to read from an already-open row (CAS latency)."""
        return self.tCAS

    @property
    def row_miss_cycles(self) -> int:
        """Closed-row access: activate then CAS."""
        return self.tRCD + self.tCAS

    @property
    def row_conflict_cycles(self) -> int:
        """Row conflict: precharge, activate, then CAS."""
        return self.tRP + self.tRCD + self.tCAS


@dataclass(frozen=True)
class DramConfig:
    """One DRAM memory (stacked or off-chip) as in Table I."""

    name: str
    capacity_bytes: int
    bus_frequency_hz: float
    bus_width_bits: int
    channels: int
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 2 * KB
    timing: DramTiming = field(default_factory=DramTiming)

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def peak_bandwidth_bytes_per_sec(self) -> float:
        """DDR peak bandwidth: 2 transfers per bus clock per channel."""
        per_channel = self.bus_frequency_hz * 2 * (self.bus_width_bits / 8)
        return per_channel * self.channels

    def burst_time_ns(self, burst_bytes: int) -> float:
        """Data-bus occupancy to transfer ``burst_bytes`` on one channel."""
        bytes_per_cycle = (self.bus_width_bits / 8) * 2  # DDR
        cycles = burst_bytes / bytes_per_cycle
        return cycles / self.bus_frequency_hz * 1e9


def stacked_dram(capacity_bytes: int = 4 * GB) -> DramConfig:
    """Table I stacked DRAM: 1.6GHz DDR (3.2GT/s), 128-bit, 2 channels."""
    return DramConfig(
        name="stacked",
        capacity_bytes=capacity_bytes,
        bus_frequency_hz=1.6e9,
        bus_width_bits=128,
        channels=2,
        timing=DramTiming(tRFC_ns=138.0),
    )


def offchip_dram(capacity_bytes: int = 20 * GB) -> DramConfig:
    """Table I off-chip DRAM: 800MHz DDR (1.6GT/s), 64-bit, 2 channels."""
    return DramConfig(
        name="offchip",
        capacity_bytes=capacity_bytes,
        bus_frequency_hz=0.8e9,
        bus_width_bits=64,
        channels=2,
        timing=DramTiming(tRFC_ns=530.0),
    )


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated system (Table I)."""

    num_cores: int = 12
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(32 * KB, 4, latency_cycles=2)
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(256 * KB, 8, latency_cycles=10)
    )
    l3: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(
            12 * MB, 16, latency_cycles=30, shared=True
        )
    )
    fast_mem: DramConfig = field(default_factory=stacked_dram)
    slow_mem: DramConfig = field(default_factory=offchip_dram)
    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    page_bytes: int = PAGE_BYTES
    page_fault_latency_cycles: int = PAGE_FAULT_LATENCY_CYCLES

    def __post_init__(self) -> None:
        if self.fast_mem.capacity_bytes <= 0 or self.slow_mem.capacity_bytes <= 0:
            raise ValueError("memory capacities must be positive")
        if self.segment_bytes <= 0 or self.segment_bytes & (self.segment_bytes - 1):
            raise ValueError("segment_bytes must be a positive power of two")
        if self.slow_mem.capacity_bytes % self.fast_mem.capacity_bytes:
            raise ValueError(
                "slow memory capacity must be an integer multiple of fast "
                "memory capacity (segment-restricted remapping requires a "
                "whole number of slow segments per group)"
            )

    @property
    def ns_per_instruction(self) -> float:
        """Shorthand for :attr:`CoreConfig.ns_per_instruction`."""
        return self.core.ns_per_instruction

    @property
    def ns_per_cycle(self) -> float:
        """Shorthand for :attr:`CoreConfig.ns_per_cycle`."""
        return self.core.ns_per_cycle

    @property
    def capacity_ratio(self) -> int:
        """Slow:fast capacity ratio R; a segment group has R+1 segments."""
        return self.slow_mem.capacity_bytes // self.fast_mem.capacity_bytes

    @property
    def total_capacity_bytes(self) -> int:
        return self.fast_mem.capacity_bytes + self.slow_mem.capacity_bytes

    @property
    def num_fast_segments(self) -> int:
        return self.fast_mem.capacity_bytes // self.segment_bytes

    @property
    def num_slow_segments(self) -> int:
        return self.slow_mem.capacity_bytes // self.segment_bytes

    @property
    def num_segment_groups(self) -> int:
        """One group per fast segment (segment-restricted remapping)."""
        return self.num_fast_segments

    @property
    def segments_per_group(self) -> int:
        return 1 + self.capacity_ratio

    def with_segment_bytes(self, segment_bytes: int) -> "SystemConfig":
        return replace(self, segment_bytes=segment_bytes)


def paper_config(
    fast_gb: float = 4.0,
    slow_gb: float = 20.0,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
) -> SystemConfig:
    """The paper's evaluated system: 4GB stacked + 20GB off-chip (1:5)."""
    return SystemConfig(
        fast_mem=stacked_dram(int(fast_gb * GB)),
        slow_mem=offchip_dram(int(slow_gb * GB)),
        segment_bytes=segment_bytes,
    )


#: Scaled-down configuration used throughout tests and benchmarks so that
#: pure-Python simulation stays fast while preserving every architectural
#: ratio of the paper system (1:5 capacity ratio, 2KB segments).
def scaled_config(
    fast_mb: float = 4.0,
    ratio: int = 5,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
) -> SystemConfig:
    fast = int(fast_mb * MB)
    return SystemConfig(
        fast_mem=stacked_dram(fast),
        slow_mem=offchip_dram(fast * ratio),
        segment_bytes=segment_bytes,
    )

"""Long-horizon real-system model behind Figures 3, 4 and 5.

The paper ran 12-copy rate-mode workloads sequentially for 53.8 hours on
a Xeon with 24GB DRAM and an SSD, sampling free memory with ``numastat``
every two minutes (Figure 3), then swept the OS-visible capacity from
16GB to 28GB (Figures 4-5).  This module reproduces that setup
analytically:

* each :class:`WorkloadSpec` carries the rate-mode footprint (Table II),
  a nominal fault-free duration, a page-touch rate, and a temporal
  locality factor;
* when the footprint exceeds capacity, the resident-set model yields a
  fault rate; each fault costs the SSD service time and stalls the task
  in the uninterruptible "D" state, stretching wall-clock duration and
  depressing CPU utilisation — exactly the mechanics of Section III-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import GB, MB
from repro.stats import Timeline

#: SSD page-fault service time (Table I: 100K cycles ~ 36 microseconds).
FAULT_SECONDS = 36e-6


@dataclass(frozen=True)
class WorkloadSpec:
    """One 12-copy rate-mode workload.

    ``page_touch_rate`` is distinct-page accesses per second of compute
    (driven by the workload's MPKI); ``locality`` in [0, 1) is the
    fraction of touches absorbed by the resident hot set even when the
    footprint overflows capacity.
    """

    name: str
    footprint_bytes: int
    base_seconds: float
    page_touch_rate: float = 2.0e5
    locality: float = 0.6
    alloc_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.footprint_bytes <= 0:
            raise ValueError("footprint must be positive")
        if self.base_seconds <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.locality < 1.0:
            raise ValueError("locality must be in [0, 1)")
        if not 0.0 < self.alloc_fraction < 1.0:
            raise ValueError("alloc_fraction must be in (0, 1)")


@dataclass
class CapacityRunResult:
    """One workload executed under one OS-visible capacity."""

    spec: WorkloadSpec
    capacity_bytes: int
    duration_seconds: float
    page_faults: float
    cpu_utilisation: float

    @property
    def fault_millions(self) -> float:
        return self.page_faults / 1e6


class LongRunSimulator:
    """Analytic executor for workload sequences under a capacity."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes

    # ------------------------------------------------------------------
    # Single-workload model (Figures 4 and 5)
    # ------------------------------------------------------------------

    def fault_rate_per_second(self, spec: WorkloadSpec) -> float:
        """Page faults per second of compute under this capacity."""
        overflow = spec.footprint_bytes - self.capacity_bytes
        if overflow <= 0:
            return 0.0
        miss_fraction = overflow / spec.footprint_bytes
        return spec.page_touch_rate * miss_fraction * (1.0 - spec.locality)

    def run(self, spec: WorkloadSpec) -> CapacityRunResult:
        fault_rate = self.fault_rate_per_second(spec)
        stall_per_compute_second = fault_rate * FAULT_SECONDS
        duration = spec.base_seconds * (1.0 + stall_per_compute_second)
        faults = fault_rate * spec.base_seconds
        utilisation = 1.0 / (1.0 + stall_per_compute_second)
        return CapacityRunResult(
            spec=spec,
            capacity_bytes=self.capacity_bytes,
            duration_seconds=duration,
            page_faults=faults,
            cpu_utilisation=utilisation,
        )

    # ------------------------------------------------------------------
    # Sequential schedule (Figure 3)
    # ------------------------------------------------------------------

    def free_memory_timeline(
        self,
        schedule: Sequence[WorkloadSpec],
        sample_seconds: float = 120.0,
        os_reserved_bytes: int = int(0.8 * GB),
    ) -> Timeline:
        """Free memory (MB) sampled over the sequential schedule.

        Each workload ramps its allocation linearly during its first
        ``alloc_fraction`` of runtime, holds its footprint, then frees
        everything at completion — matching the allocate-at-start /
        free-at-exit behaviour the paper observed (Section VI-B).
        """
        if sample_seconds <= 0:
            raise ValueError("sample interval must be positive")
        timeline = Timeline(["free_mb", "workload_index"])
        clock = 0.0
        usable = self.capacity_bytes - os_reserved_bytes
        for index, spec in enumerate(schedule):
            result = self.run(spec)
            duration = result.duration_seconds
            alloc_end = duration * spec.alloc_fraction
            resident_cap = min(spec.footprint_bytes, usable)
            steps = max(1, int(duration // sample_seconds))
            for step in range(steps):
                offset = step * sample_seconds
                if offset < alloc_end:
                    allocated = resident_cap * (offset / alloc_end)
                else:
                    allocated = resident_cap
                free_mb = max(0.0, (usable - allocated) / MB)
                timeline.sample(
                    clock + offset,
                    free_mb=free_mb,
                    workload_index=float(index),
                )
            clock += duration
            timeline.sample(
                clock, free_mb=usable / MB, workload_index=float(index)
            )
        return timeline

    def total_seconds(self, schedule: Sequence[WorkloadSpec]) -> float:
        return sum(self.run(spec).duration_seconds for spec in schedule)


def capacity_sweep(
    specs: Sequence[WorkloadSpec],
    capacities_bytes: Sequence[int],
) -> List[List[CapacityRunResult]]:
    """Run every spec at every capacity; rows ordered like ``specs``."""
    return [
        [LongRunSimulator(cap).run(spec) for cap in capacities_bytes]
        for spec in specs
    ]


def improvement_percent(
    baseline: CapacityRunResult, other: CapacityRunResult
) -> float:
    """Equation 1: percent execution-time improvement over ``baseline``."""
    base = baseline.duration_seconds
    return (base - other.duration_seconds) / base * 100.0

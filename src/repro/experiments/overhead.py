"""Section VI-F: ISA-Alloc / ISA-Free overhead analysis.

The paper estimates, with conservative assumptions, that the swaps the
two new instructions may trigger cost 1.06% of end-to-end execution
time over the Figure 3 schedule: 242.8M ISA events, each potentially
one 2KB segment swap at 700 CPU cycles per 64B line, against 53.8 hours
of wall clock on a 2.25GHz Xeon.

This runner reproduces that arithmetic from this repository's own
models: the ISA event count comes from the long-run schedule's
allocation churn (one ISA event per segment allocated or freed,
Algorithms 1-2), the per-swap cost from the Table I configuration, and
the denominator from the simulated schedule duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import GB, SystemConfig, paper_config
from repro.experiments.longrun_figures import paper_schedule
from repro.osmodel.longrun import LongRunSimulator

#: The paper's observed PoM per-64B swap service latency (Figure 19).
SWAP_CYCLES_PER_LINE = 700

#: The paper's Xeon frequency for the analysis (average of base/turbo).
ANALYSIS_FREQUENCY_HZ = 2.25e9


@dataclass(frozen=True)
class OverheadReport:
    """The §VI-F arithmetic, end to end."""

    isa_events: float
    swap_seconds: float
    total_seconds: float

    @property
    def overhead_percent(self) -> float:
        return self.swap_seconds / self.total_seconds * 100.0

    @property
    def summary(self) -> Dict[str, float]:
        return {
            "isa_events": self.isa_events,
            "overhead_percent": self.overhead_percent,
        }

    def render(self) -> str:
        total_hours = self.total_seconds / 3600
        return "\n".join(
            [
                "Section VI-F: ISA-Alloc/ISA-Free overhead",
                f"  ISA events : {self.isa_events / 1e6:,.1f}M (paper 242.8M)",
                f"  swap time  : {self.swap_seconds:,.0f}s (paper 2071.89s)",
                f"  total time : {total_hours:,.1f}h (paper 53.8h)",
                f"  overhead   : {self.overhead_percent:.2f}% (paper 1.06%)",
            ]
        )


def run_overhead_analysis(
    config: SystemConfig | None = None,
    base_seconds: float = 16140.0,
    capacity_gb: float = 24.0,
    allocation_cycles: int = 2,
) -> OverheadReport:
    """Reproduce the §VI-F estimate on the Figure 3 schedule.

    ``allocation_cycles`` counts how many times each workload's
    footprint is allocated and freed over its run (the paper's schedule
    allocates at start and frees at exit, and several workloads run
    more than once over the 53.8 hours; 2 cycles ≈ one alloc + one free
    per segment per execution).  The default ``base_seconds`` makes the
    fault-free schedule last the paper's 53.8 hours.
    """
    config = config if config is not None else paper_config()
    schedule = paper_schedule(base_seconds)
    simulator = LongRunSimulator(int(capacity_gb * GB))
    total_seconds = simulator.total_seconds(schedule)

    segment_bytes = config.segment_bytes
    isa_events = sum(
        spec.footprint_bytes / segment_bytes * allocation_cycles
        for spec in schedule
    )
    lines_per_segment = segment_bytes / 64
    swap_cycles = isa_events * SWAP_CYCLES_PER_LINE * lines_per_segment
    swap_seconds = swap_cycles / ANALYSIS_FREQUENCY_HZ
    return OverheadReport(
        isa_events=isa_events,
        swap_seconds=swap_seconds,
        total_seconds=total_seconds,
    )

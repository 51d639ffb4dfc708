"""Rate-mode multiprogrammed workload builder.

A paper workload is 12 copies of one benchmark (Section III-B).  The
builder scales the Table II footprint to the simulated system's size —
experiments run on proportionally scaled configurations, so footprints
are expressed as a fraction of the paper's 24GB machine — places the
footprint over the physical space, partitions it among the copies, and
hands each copy a seeded synthetic access generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from repro.config import SystemConfig
from repro.trace.batch import RecordBatch
from repro.trace.records import AccessRecord
from repro.workloads.compiled import CompiledTrace
from repro.workloads.placement import contiguous_placement, scattered_placement
from repro.workloads.suites import BenchmarkSpec
from repro.workloads.synthetic import SyntheticAccessGenerator

#: The paper's machine: 24GB total OS-visible capacity.
PAPER_TOTAL_GB = 24.0


@dataclass
class MultiprogramWorkload:
    """A placed, ready-to-run multiprogrammed workload."""

    config: SystemConfig
    spec: BenchmarkSpec
    num_copies: int
    segments: List[int]
    per_core_segments: List[List[int]] = field(repr=False)
    seed: int = 0
    #: Optional precompiled trace (e.g. one a sweep's trace arena
    #: published); when set, ``streams``/``stream_batches`` replay it
    #: instead of regenerating — byte-identical either way, since the
    #: trace is compiled from the same seeded generators.
    trace: CompiledTrace | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def footprint_bytes(self) -> int:
        return len(self.segments) * self.config.segment_bytes

    @property
    def occupancy(self) -> float:
        """Fraction of OS-visible (PoM) capacity the workload occupies."""
        total = self.config.num_fast_segments + self.config.num_slow_segments
        return len(self.segments) / total

    def generators(self) -> List[SyntheticAccessGenerator]:
        """One seeded generator per copy (core)."""
        return [
            SyntheticAccessGenerator(
                spec=self.spec,
                segments=core_segments,
                segment_bytes=self.config.segment_bytes,
                seed=self.seed * 1000 + core,
            )
            for core, core_segments in enumerate(self.per_core_segments)
        ]

    def attach_trace(self, trace: CompiledTrace) -> "MultiprogramWorkload":
        """Serve future streams from ``trace`` instead of regenerating.

        The trace must have been compiled from an identically built
        workload (same name, same core count); the per-request record
        count is validated by :class:`CompiledTrace` itself.
        """
        if trace.workload != self.name:
            raise ValueError(
                f"trace is for workload {trace.workload!r}, "
                f"this workload is {self.name!r}"
            )
        if trace.num_cores != self.num_copies:
            raise ValueError(
                f"trace has {trace.num_cores} cores, "
                f"workload has {self.num_copies}"
            )
        self.trace = trace
        return self

    def detach_trace(self) -> None:
        """Drop an attached trace (streams regenerate again)."""
        self.trace = None

    def streams(self, accesses_per_core: int) -> List[Iterator[AccessRecord]]:
        if self.trace is not None:
            return self.trace.streams(accesses_per_core)
        return [
            generator.stream(accesses_per_core)
            for generator in self.generators()
        ]

    def stream_batches(
        self, accesses_per_core: int
    ) -> List[Iterator[RecordBatch]]:
        """Column-batch form of :meth:`streams` (same records, same
        seeds) for the chunked replay kernel."""
        if self.trace is not None:
            return self.trace.stream_batches(accesses_per_core)
        return [
            generator.stream_batches(accesses_per_core)
            for generator in self.generators()
        ]

    def apply_allocations(self, architecture) -> None:
        """Issue ISA-Alloc for every allocated segment (Algorithm 1).

        The paper's simulated snippets observe workloads that allocated
        everything up front (Section VI-B); this reproduces that state
        in one :meth:`~repro.arch.base.MemoryArchitecture.isa_alloc_many`
        pass.
        """
        architecture.isa_alloc_many(self.segments)

    def release_allocations(self, architecture) -> None:
        """Issue ISA-Free for every segment (workload teardown)."""
        for segment in self.segments:
            architecture.isa_free(segment)


def build_workload(
    config: SystemConfig,
    spec: BenchmarkSpec,
    num_copies: int = 12,
    scattered: bool = True,
    seed: int = 0,
    footprint_override_fraction: float | None = None,
    exclude_segments: "set[int] | None" = None,
) -> MultiprogramWorkload:
    """Place ``spec``'s footprint on ``config`` and split it 12 ways.

    ``footprint_override_fraction`` overrides the Table II footprint
    (as a fraction of total capacity) for sensitivity experiments.
    ``exclude_segments`` keeps the placement disjoint from segments
    already owned by a co-resident workload (multi-tenant scenarios).
    """
    if num_copies < 1:
        raise ValueError("need at least one copy")
    total_segments = config.num_fast_segments + config.num_slow_segments
    fraction = (
        footprint_override_fraction
        if footprint_override_fraction is not None
        else spec.footprint_gb / PAPER_TOTAL_GB
    )
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"footprint fraction {fraction} out of (0, 1]")
    # The OS allocates whole pages, so placement works at page
    # granularity and expands to the segments each page covers; with
    # segments smaller than a page the covered segments land in
    # *adjacent* groups, so the per-group free statistics match a pure
    # per-segment scatter.
    segments_per_unit = max(1, config.page_bytes // config.segment_bytes)
    total_units = total_segments // segments_per_unit
    units_needed = max(
        -(-num_copies // segments_per_unit),
        int(round(total_units * fraction)),
    )
    units_needed = min(units_needed, total_units)
    excluded_units: set[int] = set()
    if exclude_segments:
        excluded_units = {
            segment // segments_per_unit for segment in exclude_segments
        }
    if excluded_units:
        allowed = [
            unit for unit in range(total_units) if unit not in excluded_units
        ]
        if units_needed > len(allowed):
            raise ValueError(
                "footprint does not fit alongside the excluded segments"
            )
        if scattered:
            picks = scattered_placement(len(allowed), units_needed, seed=seed)
            units = [allowed[index] for index in picks]
        else:
            units = allowed[:units_needed]
    elif scattered:
        units = scattered_placement(total_units, units_needed, seed=seed)
    else:
        units = contiguous_placement(total_units, units_needed)
    segments = [
        unit * segments_per_unit + index
        for unit in units
        for index in range(segments_per_unit)
    ]
    per_core = [segments[core::num_copies] for core in range(num_copies)]
    return MultiprogramWorkload(
        config=config,
        spec=spec,
        num_copies=num_copies,
        segments=segments,
        per_core_segments=per_core,
        seed=seed,
    )

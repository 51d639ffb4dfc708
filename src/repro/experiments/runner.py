"""Shared experiment infrastructure: scales and design sweeps.

Experiments run on proportionally scaled configurations (see DESIGN.md):
capacities shrink by a constant factor while every architectural ratio
of Table I — the 1:5 stacked:off-chip split, 2KB segments, channel and
bank counts, timings — is preserved, and workload footprints are
fractions of total capacity exactly as in the paper.  ``Scale`` bundles
the knobs; :func:`run_design_sweep` executes a set of designs over the
Table II workloads through :mod:`repro.runtime` — a process-pool
executor with an optional persistent result cache — plus a
process-local memo so the five main-results figures (15-19) share one
sweep.

The design registry lives in :mod:`repro.experiments.designs`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MB, SystemConfig, offchip_dram, stacked_dram
from repro.experiments.designs import REGISTRY
from repro.runtime import SweepExecutor, SweepResults, get_default_executor
from repro.workloads import benchmark_names


@dataclass(frozen=True)
class Scale:
    """Execution scale of an experiment run."""

    fast_mb: float = 4.0
    ratio: int = 5
    accesses_per_core: int = 1500
    warmup_per_core: int = 1500
    num_copies: int = 12
    benchmarks: Tuple[str, ...] = tuple(benchmark_names())
    seed: int = 0

    def config(self) -> SystemConfig:
        fast = int(self.fast_mb * MB)
        return SystemConfig(
            fast_mem=stacked_dram(fast),
            slow_mem=offchip_dram(fast * self.ratio),
        )

    def with_ratio(self, ratio: int) -> "Scale":
        """Same total capacity, different stacked:off-chip split
        (Figures 21/23: 24 total units split 6+18, 4+20, 3+21)."""
        total_mb = self.fast_mb * (1 + self.ratio)
        return replace(self, fast_mb=total_mb / (ratio + 1), ratio=ratio)


#: Small scale for unit/integration tests.
SMOKE_SCALE = Scale(
    fast_mb=1.0,
    accesses_per_core=300,
    warmup_per_core=300,
    num_copies=4,
    benchmarks=("mcf", "bwaves", "comd"),
)

#: Benchmark scale: full Table II workload list.
DEFAULT_SCALE = Scale(
    fast_mb=4.0,
    accesses_per_core=2000,
    warmup_per_core=6000,
)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

_sweep_cache: Dict[Tuple, SweepResults] = {}


def run_design_sweep(
    scale: Scale,
    designs: Sequence[str],
    use_cache: bool = True,
    executor: Optional[SweepExecutor] = None,
) -> SweepResults:
    """Simulate each (design, workload) pair; returns results keyed by
    ``(design, workload)``.

    Execution goes through ``executor`` (default: the process-wide
    serial :func:`repro.runtime.get_default_executor`), which handles
    worker fan-out and the persistent disk cache.  On top of that,
    results are memoised in-process per (scale, design) so the figures
    sharing the Section VI-B sweep do not re-simulate — the memo
    returns the *same* result objects on repeat calls.
    """
    results: SweepResults = {}
    missing: List[str] = []
    for design in designs:
        if design not in REGISTRY:
            raise KeyError(f"unknown design {design!r}")
        key = (scale, design)
        if use_cache and key in _sweep_cache:
            results.update(_sweep_cache[key])
        else:
            missing.append(design)
    if missing:
        if executor is None:
            executor = get_default_executor()
        fresh = executor.run(scale, missing)
        if use_cache:
            for design in missing:
                _sweep_cache[(scale, design)] = {
                    cell: result
                    for cell, result in fresh.items()
                    if cell[0] == design
                }
        results.update(fresh)
    return results


def clear_sweep_cache() -> None:
    _sweep_cache.clear()


def geomean_by_design(
    results: SweepResults, designs: Sequence[str], workloads: Sequence[str]
) -> Dict[str, float]:
    """Geometric mean of per-workload geomean IPCs, per design."""
    from repro.stats import geomean

    return {
        design: geomean(
            results[(design, name)].geomean_ipc for name in workloads
        )
        for design in designs
    }

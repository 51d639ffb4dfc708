"""Runners for the OS-solution motivation figures (2a, 2b, 2c)."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.experiments.designs import REGISTRY
from repro.experiments.figures import (
    FigureResult,
    _hit_percent,
    _per_workload_table,
)
from repro.experiments.runner import Scale
from repro.osmodel.autonuma import AutoNumaConfig
from repro.runtime import SweepExecutor
from repro.sim import AutoNumaMemory, simulate
from repro.stats import Timeline
from repro.workloads import benchmark, build_workload


def run_fig2a(
    scale: Scale, executor: SweepExecutor | None = None
) -> FigureResult:
    """Stacked DRAM hit rate under the NUMA-aware first-touch allocator.

    Paper average: 18.5% for the high-footprint workloads.
    """
    result = _per_workload_table(
        scale,
        REGISTRY.figure_labels("fig2a"),
        _hit_percent,
        "Figure 2a: first-touch allocator stacked DRAM hit rate [%]",
        executor,
        headers=["workload", "hit rate %"],
    )
    result.summary = {"average": result.summary["numaAware"]}
    return result


def run_fig2b(
    scale: Scale, executor: SweepExecutor | None = None
) -> FigureResult:
    """AutoNUMA hit rates for 70/80/90% thresholds (paper avg 64.4%,
    higher thresholds better).

    The paper reports *cumulative* hit rates over whole runs, which are
    dominated by how quickly each threshold migrates the misplaced
    pages — so this figure measures from a cold start (no warm-up), the
    adaptation phase included.
    """
    cold_scale = dataclasses.replace(
        scale,
        warmup_per_core=0,
        accesses_per_core=scale.accesses_per_core + scale.warmup_per_core,
    )
    return _per_workload_table(
        cold_scale,
        REGISTRY.figure_labels("fig2b"),
        _hit_percent,
        "Figure 2b: AutoNUMA stacked DRAM hit rate [%]",
        executor,
    )


def run_fig2c(
    scale: Scale,
    workload_name: str = "cloverleaf",
    threshold: float = 0.9,
    epoch_accesses: int = 1500,
) -> Tuple[Timeline, FigureResult]:
    """The Cloverleaf AutoNUMA timeline: migrations per epoch and hit
    rate over time (paper: peak ≈77.1% at epoch 81, decays to 30.7%
    once the stacked node fills and -ENOMEM blocks migration).

    Returns the raw timeline plus a table of (epoch, migrated, hit).
    """
    config = scale.config()
    # Faster churn than the steady-state sweeps so the rise-peak-decay
    # dynamics fit the simulated window, mirroring the paper's
    # hour-scale timeline.
    spec = dataclasses.replace(
        benchmark(workload_name), churn=0.3, phase_accesses=2000
    )
    workload = build_workload(
        config, spec, num_copies=scale.num_copies, seed=scale.seed
    )
    arch = AutoNumaMemory(
        config,
        autonuma=AutoNumaConfig(threshold=threshold),
        epoch_accesses=epoch_accesses,
    )
    simulate(
        arch,
        workload,
        accesses_per_core=scale.accesses_per_core * 4,
        warmup_per_core=0,
    )
    timeline = arch.balancer.timeline
    headers = ["epoch", "migrated", "hit rate %"]
    rows: List[List] = [
        [int(time), values["migrated"], values["hit_rate"] * 100.0]
        for time, values in timeline.rows()
    ]
    peak_epoch, peak = timeline.peak("hit_rate")
    summary: Dict[str, float] = {
        "peak_hit_percent": peak * 100.0,
        "peak_epoch": peak_epoch,
        "final_hit_percent": timeline.last("hit_rate") * 100.0,
        "total_migrated": sum(timeline.series("migrated")),
    }
    figure = FigureResult(
        f"Figure 2c: {workload_name} AutoNUMA timeline "
        f"(threshold {threshold:.0%})",
        headers,
        rows,
        summary,
    )
    return timeline, figure

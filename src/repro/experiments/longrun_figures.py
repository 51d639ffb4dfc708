"""Runners for the real-system motivation figures (3, 4, 5).

These reproduce the Intel Xeon experiments of Section III-B/C: a
sequential schedule of 12-copy rate-mode workloads running for two-plus
days on a 24GB machine with an SSD, and a 16GB-28GB capacity sweep.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import GB
from repro.experiments.figures import FigureResult, _mean
from repro.osmodel.longrun import (
    CapacityRunResult,
    LongRunSimulator,
    WorkloadSpec,
    capacity_sweep,
    improvement_percent,
)
from repro.stats import Timeline
from repro.workloads.suites import TABLE2_BENCHMARKS

#: The 12 workloads shown on Figure 4's X axis (Figure 3 runs the same
#: set sequentially).
FIG4_WORKLOADS = (
    "bwaves",
    "leslie3d",
    "GemsFDTD",
    "lbm",
    "mcf",
    "hpccg",
    "SP",
    "stream",
    "cloverleaf",
    "comd",
    "miniFE",
    "cactusADM",
)

#: Capacities swept in Figures 4 and 5 (GB).
CAPACITIES_GB = (16, 18, 20, 22, 24, 26, 28)


def longrun_spec(name: str, base_seconds: float = 3600.0) -> WorkloadSpec:
    """A :class:`WorkloadSpec` for one Table II benchmark.

    The page-touch rate scales with the benchmark's LLC-MPKI (memory
    intensity), and temporal locality follows the synthesis personality.
    """
    for spec in TABLE2_BENCHMARKS:
        if spec.name == name:
            return WorkloadSpec(
                name=name,
                footprint_bytes=int(spec.footprint_gb * GB),
                base_seconds=base_seconds,
                # Distinct-page touch rate: every workload sweeps its
                # footprint (hence the large MPKI-independent term) and
                # memory-intensive ones re-touch it faster.
                page_touch_rate=4.0e5 + 2.0e4 * spec.llc_mpki,
                locality=0.6,
            )
    raise KeyError(f"unknown benchmark {name!r}")


def paper_schedule(base_seconds: float = 3600.0) -> List[WorkloadSpec]:
    """The sequential schedule behind Figure 3 (53.8 hours of wall
    clock in the paper; scaled by ``base_seconds`` per workload here)."""
    return [longrun_spec(name, base_seconds) for name in FIG4_WORKLOADS]


# ----------------------------------------------------------------------
# Figure 3: free memory over time
# ----------------------------------------------------------------------

def run_fig3(
    capacity_gb: float = 24.0,
    base_seconds: float = 3600.0,
    sample_seconds: float = 120.0,
) -> tuple[Timeline, FigureResult]:
    """Free-memory timeline for the sequential schedule.

    The paper's Figure 3 shows free space swinging between a few MB and
    several GB as workloads allocate at start and free at exit.
    """
    simulator = LongRunSimulator(int(capacity_gb * GB))
    schedule = paper_schedule(base_seconds)
    timeline = simulator.free_memory_timeline(
        schedule, sample_seconds=sample_seconds
    )
    free = timeline.series("free_mb")
    summary: Dict[str, float] = {
        "min_free_mb": min(free),
        "max_free_mb": max(free),
        "mean_free_mb": _mean(free),
        "total_hours": timeline.times[-1] / 3600.0,
        "samples": float(len(timeline)),
    }
    headers = ["time [s]", "free MB", "workload#"]
    rows = [
        [time, values["free_mb"], int(values["workload_index"])]
        for time, values in timeline.rows()
    ]
    return timeline, FigureResult(
        "Figure 3: free memory over the workload sequence",
        headers,
        rows,
        summary,
    )


def _capacity_grid(
    base_seconds: float,
) -> Tuple[List[WorkloadSpec], List[List[CapacityRunResult]]]:
    """The Figure 4 workloads run alone at every swept capacity."""
    specs = [longrun_spec(name, base_seconds) for name in FIG4_WORKLOADS]
    grid = capacity_sweep(specs, [int(gb * GB) for gb in CAPACITIES_GB])
    return specs, grid


# ----------------------------------------------------------------------
# Figure 4: execution-time improvement vs capacity
# ----------------------------------------------------------------------

def run_fig4(base_seconds: float = 3600.0) -> FigureResult:
    """Percent execution-time improvement over the 16GB system
    (Equation 1) for 18GB...28GB.

    Paper: average improvement grows from 29.5% at 18GB to 75.4% at
    24GB, saturating at 26/28GB.
    """
    specs, grid = _capacity_grid(base_seconds)
    headers = ["workload"] + [f"{gb}GB" for gb in CAPACITIES_GB[1:]]
    rows = []
    for spec_index, spec in enumerate(specs):
        baseline = grid[spec_index][0]
        rows.append(
            [spec.name]
            + [
                improvement_percent(baseline, run)
                for run in grid[spec_index][1:]
            ]
        )
    summary = {
        header: _mean(row[column] for row in rows)
        for column, header in enumerate(headers[1:], start=1)
    }
    rows.append(["Average"] + list(summary.values()))
    return FigureResult(
        "Figure 4: execution-time improvement vs 16GB [%]",
        headers,
        rows,
        summary,
    )


# ----------------------------------------------------------------------
# Figure 5: page faults and CPU utilisation vs capacity
# ----------------------------------------------------------------------

def run_fig5(base_seconds: float = 3600.0) -> FigureResult:
    """Page faults (millions) and CPU utilisation per capacity.

    Paper: faults fall and utilisation rises to 100% as capacity grows;
    at low capacities tasks sit in the uninterruptible "D" state.
    """
    specs, grid = _capacity_grid(base_seconds)
    headers = ["workload", "capacity", "faults [M]", "CPU util %"]
    rows = []
    for spec_index, spec in enumerate(specs):
        for cap_index, gb in enumerate(CAPACITIES_GB):
            run = grid[spec_index][cap_index]
            rows.append(
                [
                    spec.name,
                    f"{gb}GB",
                    run.fault_millions,
                    run.cpu_utilisation * 100.0,
                ]
            )
    summary = {}
    for cap_index, gb in enumerate(CAPACITIES_GB):
        runs = [row[cap_index] for row in grid]
        summary[f"faults_M@{gb}GB"] = _mean(r.fault_millions for r in runs)
        summary[f"util@{gb}GB"] = _mean(
            r.cpu_utilisation * 100.0 for r in runs
        )
    return FigureResult(
        "Figure 5: page faults and CPU utilisation vs capacity",
        headers,
        rows,
        summary,
    )

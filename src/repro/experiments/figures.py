"""Runners for the main-results figures (15-23)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.experiments.designs import REGISTRY
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    Scale,
    geomean_by_design,
    run_design_sweep,
)
from repro.runtime import SweepExecutor
from repro.sim.engine import SimulationResult
from repro.stats import geomean

#: The 20GB flat system every normalised-IPC figure divides by.
_BASELINE = "baseline_20GB_DDR3"


@dataclass
class FigureResult:
    """One regenerated figure: headers + rows + the rendered table."""

    figure: str
    headers: List[str]
    rows: List[List]
    summary: Dict[str, float]

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.figure)


def _mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _hit_percent(result: SimulationResult) -> float:
    return result.fast_hit_rate * 100.0


def _cache_mode_percent(result: SimulationResult) -> float:
    return (result.cache_mode_fraction or 0.0) * 100.0


def _per_workload_table(
    scale: Scale,
    designs: Sequence[str],
    metric: Callable[[SimulationResult], float],
    title: str,
    executor: SweepExecutor | None = None,
    headers: List[str] | None = None,
    total: Tuple[str, Callable[[Iterable[float]], float]] = ("Average", _mean),
) -> FigureResult:
    """One row per workload holding ``metric`` for each design, then a
    ``total`` row (label, aggregate over the workloads) that is also
    the summary."""
    results = run_design_sweep(scale, designs, executor=executor)
    rows: List[List] = [
        [name] + [metric(results[(design, name)]) for design in designs]
        for name in scale.benchmarks
    ]
    label, aggregate = total
    summary = {
        design: aggregate(row[column] for row in rows)
        for column, design in enumerate(designs, start=1)
    }
    rows.append([label] + list(summary.values()))
    headers = headers or ["workload"] + list(designs)
    return FigureResult(title, headers, rows, summary)


def _normalised_ipc(
    scale: Scale,
    designs: Sequence[str],
    title: str,
    executor: SweepExecutor | None = None,
) -> Tuple[FigureResult, Dict[str, float]]:
    """Per-workload IPC normalised to the 20GB flat baseline, then a
    ``GeoMean`` row; returns the figure and each design's raw geomean."""
    results = run_design_sweep(scale, designs, executor=executor)
    rows: List[List] = []
    for name in scale.benchmarks:
        base = results[(_BASELINE, name)].geomean_ipc
        rows.append(
            [name]
            + [
                results[(design, name)].geomean_ipc / base
                for design in designs
            ]
        )
    means = geomean_by_design(results, designs, scale.benchmarks)
    summary = {design: means[design] / means[_BASELINE] for design in designs}
    rows.append(["GeoMean"] + list(summary.values()))
    headers = ["workload"] + list(designs)
    return FigureResult(title, headers, rows, summary), means


# ----------------------------------------------------------------------
# Figures 15 and 16: hit rates and the cache/PoM mode distribution
# ----------------------------------------------------------------------

def run_fig15(
    scale: Scale, executor: SweepExecutor | None = None
) -> FigureResult:
    """Stacked DRAM hit rate per workload for Alloy/PoM/Chameleon/Opt.

    Paper averages: Alloy 62.4%, PoM 81%, Chameleon 84.6%, Opt 89.4%.
    """
    return _per_workload_table(
        scale,
        REGISTRY.figure_labels("fig15"),
        _hit_percent,
        "Figure 15: Stacked DRAM hit rate [%]",
        executor,
    )


def run_fig16(
    scale: Scale, executor: SweepExecutor | None = None
) -> FigureResult:
    """Segment-group mode split for Chameleon and Chameleon-Opt.

    Paper averages: 9.2% cache mode (Chameleon), 40.6% (Chameleon-Opt).
    """
    designs = REGISTRY.figure_labels("fig16")
    return _per_workload_table(
        scale,
        designs,
        _cache_mode_percent,
        "Figure 16: cache-mode segment groups [%]",
        executor,
        headers=["workload"] + [f"{d} cache-mode %" for d in designs],
    )


# ----------------------------------------------------------------------
# Figure 17: normalised swaps
# ----------------------------------------------------------------------

def run_fig17(
    scale: Scale, executor: SweepExecutor | None = None
) -> FigureResult:
    """Segment swaps normalised to PoM.

    Paper averages: Chameleon 0.856, Chameleon-Opt 0.569 (i.e. -14.4%
    and -43.1% swaps vs PoM).
    """
    designs = REGISTRY.figure_labels("fig17")
    results = run_design_sweep(scale, designs, executor=executor)
    headers = ["workload"] + list(designs)
    rows = []
    for name in scale.benchmarks:
        base = max(1.0, results[("PoM", name)].swaps)
        rows.append(
            [name]
            + [results[(design, name)].swaps / base for design in designs]
        )
    totals = {
        design: sum(
            results[(design, name)].swaps for name in scale.benchmarks
        )
        for design in designs
    }
    base_total = max(1.0, totals["PoM"])
    summary = {design: totals[design] / base_total for design in designs}
    rows.append(["Average"] + [summary[d] for d in designs])
    return FigureResult(
        "Figure 17: swaps normalised to PoM", headers, rows, summary
    )


# ----------------------------------------------------------------------
# Figure 18: normalised IPC, six designs
# ----------------------------------------------------------------------

def run_fig18(
    scale: Scale, executor: SweepExecutor | None = None
) -> FigureResult:
    """Per-workload IPC normalised to the 20GB flat baseline.

    Paper geomeans vs that baseline: 24GB +35.6%, PoM +85.2%,
    Chameleon +96.8%, Chameleon-Opt +106.3%.
    """
    return _normalised_ipc(
        scale,
        REGISTRY.figure_labels("fig18"),
        "Figure 18: IPC normalised to baseline_20GB_DDR3",
        executor,
    )[0]


# ----------------------------------------------------------------------
# Figure 19: average memory access latency
# ----------------------------------------------------------------------

def run_fig19(
    scale: Scale, executor: SweepExecutor | None = None
) -> FigureResult:
    """Average memory access latency in CPU cycles (PoM vs Chameleons).

    The paper's ordering: PoM highest, Chameleon lower, Opt lowest.
    """
    config = scale.config()
    return _per_workload_table(
        scale,
        REGISTRY.figure_labels("fig19"),
        lambda result: result.average_latency_cycles(config),
        "Figure 19: average memory access latency [CPU cycles]",
        executor,
        total=("GeoMean", lambda col: geomean(max(1e-9, v) for v in col)),
    )


# ----------------------------------------------------------------------
# Figure 20: comparison with OS-based solutions
# ----------------------------------------------------------------------

def run_fig20(
    scale: Scale, executor: SweepExecutor | None = None
) -> FigureResult:
    """IPC of OS-managed designs vs Chameleon, normalised to 20GB flat.

    Paper: Chameleon +28.7%/+19.1% over first-touch/AutoNUMA;
    Chameleon-Opt +34.8%/+24.9%.
    """
    return _normalised_ipc(
        scale,
        REGISTRY.figure_labels("fig20"),
        "Figure 20: IPC vs OS-based solutions (normalised)",
        executor,
    )[0]


# ----------------------------------------------------------------------
# Figures 21 and 23: capacity-ratio sensitivity
# ----------------------------------------------------------------------

def run_fig21(
    scale: Scale,
    ratios: Tuple[int, ...] = (3, 5, 7),
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """Cache-mode fraction of Chameleon-Opt across capacity ratios.

    Paper averages: 33% (1:3), 40.6% (1:5), 48.7% (1:7).
    """
    headers = ["ratio", "Chameleon-Opt cache-mode %", "Chameleon cache-mode %"]
    rows = []
    summary: Dict[str, float] = {}
    for ratio in ratios:
        means = _per_workload_table(
            scale.with_ratio(ratio),
            REGISTRY.figure_labels("fig21"),
            _cache_mode_percent,
            "",
            executor,
        ).summary
        rows.append([f"1:{ratio}", means["Chameleon-Opt"], means["Chameleon"]])
        summary[f"1:{ratio}"] = means["Chameleon-Opt"]
    return FigureResult(
        "Figure 21: cache-mode groups vs capacity ratio [%]",
        headers,
        rows,
        summary,
    )


def run_fig23(
    scale: Scale,
    ratios: Tuple[int, ...] = (3, 7),
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """Normalised IPC across capacity ratios (1:3 and 1:7).

    Paper: Chameleon/Opt beat PoM by 5.9%/7.6% at 1:3 and 8.1%/12.4%
    at 1:7.
    """
    designs = REGISTRY.figure_labels("fig23")
    rows = []
    summary: Dict[str, float] = {}
    for ratio in ratios:
        # Each row is the GeoMean row of the ratio's normalised-IPC table.
        table, means = _normalised_ipc(
            scale.with_ratio(ratio), designs, "", executor
        )
        rows.append([f"1:{ratio}"] + table.rows[-1][1:])
        for key, design in (("opt", "Chameleon-Opt"), ("cham", "Chameleon")):
            summary[f"1:{ratio}:{key}_vs_pom"] = (
                means[design] / means["PoM"] - 1.0
            ) * 100.0
    return FigureResult(
        "Figure 23: normalised IPC vs capacity ratio",
        ["ratio"] + list(designs),
        rows,
        summary,
    )


# ----------------------------------------------------------------------
# Figure 22: Polymorphic Memory comparison
# ----------------------------------------------------------------------

def run_fig22(
    scale: Scale, executor: SweepExecutor | None = None
) -> FigureResult:
    """Chameleon vs the Polymorphic Memory patent.

    Paper: Chameleon +10.5%, Chameleon-Opt +15.8% over Polymorphic.
    """
    result, means = _normalised_ipc(
        scale,
        REGISTRY.figure_labels("fig22"),
        "Figure 22: Polymorphic Memory comparison (normalised IPC)",
        executor,
    )
    for key, design in (
        ("cham_vs_poly_percent", "Chameleon"),
        ("opt_vs_poly_percent", "Chameleon-Opt"),
    ):
        result.summary[key] = (
            means[design] / means["Polymorphic"] - 1.0
        ) * 100.0
    return result

"""The paper's evaluation, one registry entry per table and figure.

Each artefact (Tables I-II, Figs 2a-c, 3-5, 15-23 and §VI-F) is one
frozen :class:`Artefact`: its CLI id, its runner, what the CLI prints,
the paper's numbers and the shape the result must have, as
:class:`Check` data.  ``python -m repro.experiments list`` prints the
ids in order; ``benchmarks/bench_paper.py`` runs every entry at
``DEFAULT_SCALE`` and asserts its checks.

A check tagged with a ``deviation`` number is not the paper's shape
but a known deviation, numbered as in EXPERIMENTS.md "Known
deviations", held to the band measured at ``DEFAULT_SCALE``, seed 0:
narrowing one fails its row until the band and the doc move together.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter, methodcaller
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.experiments import figures, longrun_figures, os_figures, tables
from repro.experiments.figures import FigureResult
from repro.experiments.overhead import run_overhead_analysis
from repro.experiments.reporting import format_series
from repro.experiments.runner import Scale
from repro.runtime import SweepExecutor


@dataclass(frozen=True)
class Check:
    """One shape assertion over a runner's summary, with no slack.

    ``order``: the keys' values ascend strictly, each above ``factor``
    times the one before.  ``band``: every value lies strictly inside
    (``low``, ``high``).  ``exact``: every value equals ``low``.
    ``same``: all values are equal.
    """

    kind: str
    keys: Tuple[str, ...]
    low: float = -math.inf
    high: float = math.inf
    factor: float = 1.0
    deviation: int = 0

    def holds(self, summary: Mapping[str, float]) -> bool:
        values = [summary[key] for key in self.keys]
        if self.kind == "order":
            return all(b > self.factor * a for a, b in zip(values, values[1:]))
        if self.kind == "band":
            return all(self.low < value < self.high for value in values)
        if self.kind == "exact":
            return all(value == self.low for value in values)
        return len(set(values)) == 1

    def __str__(self) -> str:
        if self.kind == "order":
            step = " < " if self.factor == 1.0 else f" < {self.factor:g}x "
            text = step.join(self.keys)
        elif self.kind == "band":
            text = f"{self.low:g} < {', '.join(self.keys)} < {self.high:g}"
        elif self.kind == "exact":
            text = f"{', '.join(self.keys)} == {self.low:g}"
        else:
            text = " == ".join(self.keys)
        if self.deviation:
            text += f" [deviation {self.deviation}]"
        return text


def order(*keys: str, factor: float = 1.0) -> Check:
    return Check("order", keys, factor=factor)


def band(low: float, high: float, *keys: str) -> Check:
    return Check("band", keys, low=low, high=high)


def exact(value: float, *keys: str) -> Check:
    return Check("exact", keys, low=value)


def same(*keys: str) -> Check:
    return Check("same", keys)


def deviation(number: int, *checks: Check) -> Tuple[Check, ...]:
    return tuple(replace(check, deviation=number) for check in checks)


def _timeline_summary(result: Tuple[Any, FigureResult]) -> Dict[str, float]:
    return result[1].summary


def _series(
    channels: Tuple[str, ...],
    result: Tuple[Any, FigureResult],
    max_points: int = 40,
) -> str:
    timeline, figure = result
    return format_series(
        timeline.times,
        {name: timeline.series(name) for name in channels},
        title=figure.figure,
        max_points=max_points,
    )


@dataclass(frozen=True)
class Artefact:
    """One table or figure: how to regenerate it, print it and judge it."""

    id: str
    runner: Callable[..., Any]
    scaled: bool
    paper: str
    checks: Tuple[Check, ...]
    render: Callable[[Any], str] = methodcaller("render")
    summarise: Callable[[Any], Dict[str, float]] = attrgetter("summary")

    def run(self, scale: Scale, executor: SweepExecutor | None = None) -> Any:
        """Run at ``scale`` if the runner takes one, on ``executor``."""
        if not self.scaled:
            return self.runner()
        if "executor" in inspect.signature(self.runner).parameters:
            return self.runner(scale, executor=executor)
        return self.runner(scale)

    def failures(self, summary: Mapping[str, float]) -> List[str]:
        """Each check that ``summary`` breaks, with the values it read."""
        failures = []
        for check in self.checks:
            if not check.holds(summary):
                read = {key: summary[key] for key in check.keys}
                failures.append(f"{self.id}: {check} is false for {read}")
        return failures


_AUTONUMA = ("autoNUMA_70percent", "autoNUMA_80percent", "autoNUMA_90percent")
_OPT_VS_POM = ("1:3:opt_vs_pom", "1:7:opt_vs_pom")

_ENTRIES = (
    Artefact(
        "table1", tables.run_table1, False,
        "12 cores @3.6GHz, 4GB stacked (128b/ch @1.6GHz DDR), 20GB off-chip "
        "(64b/ch @0.8GHz DDR), 11-11-11-28, 100K-cycle faults",
        (exact(4.0, "peak_bw_ratio"), exact(5.0, "capacity_ratio")),
    ),
    Artefact(
        "table2", tables.run_table2, False,
        "14 rate-mode workloads, MPKI 0.19 (miniGhost) to 59.8 (mcf), "
        "footprints 19.17GB to 23.18GB",
        (band(-math.inf, 0.05, "max_mpki_relative_error"),),
    ),
    Artefact(
        "fig2a", os_figures.run_fig2a, True,
        "average hit rate 18.5% (capacity-share bound)",
        # Hugs the stacked capacity share, far below any hardware design.
        (band(5.0, 40.0, "average"),),
    ),
    Artefact(
        "fig2b", os_figures.run_fig2b, True,
        "avg 64.4%; 90% threshold > 80% > 70%",
        (order(*_AUTONUMA), band(25.0, 90.0, "autoNUMA_90percent")),
    ),
    Artefact(
        "fig2c", os_figures.run_fig2c, True,
        "peak 77.1% at epoch 81, final 30.7%",
        # Rise-peak-decay: the end sits below the peak.
        (band(0.0, math.inf, "total_migrated"),
         order("final_hit_percent", "peak_hit_percent")),
        render=partial(_series, ("migrated", "hit_rate")),
        summarise=_timeline_summary,
    ),
    Artefact(
        "fig3", longrun_figures.run_fig3, False,
        "free memory varies from a few MB to several GB over 53.8 hours; "
        "regions 1-5 drop below 6GB free",
        (band(-math.inf, 2048.0, "min_free_mb"),
         band(16_000.0, math.inf, "max_free_mb")),
        render=partial(_series, ("free_mb",), max_points=30),
        summarise=_timeline_summary,
    ),
    Artefact(
        "fig4", longrun_figures.run_fig4, False,
        "average improvement 29.5% @18GB -> 75.4% @24GB, flat after",
        (order("18GB", "20GB", "24GB"), same("24GB", "26GB", "28GB"),
         band(15.0, 45.0, "18GB"), band(55.0, 90.0, "24GB")),
    ),
    Artefact(
        "fig5", longrun_figures.run_fig5, False,
        "utilisation ~10-40% at 16GB rising to 100% at 24GB+; faults drop "
        "to zero",
        (order("util@16GB", "util@20GB", "util@24GB"),
         band(99.9, math.inf, "util@24GB"), exact(0.0, "faults_M@24GB"),
         order("faults_M@20GB", "faults_M@16GB")),
    ),
    Artefact(
        "fig15", figures.run_fig15, True,
        "averages: Alloy 62.4 / PoM 81.0 / Chameleon 84.6 / Opt 89.4",
        (order("Alloy-Cache", "PoM", "Chameleon", "Chameleon-Opt"),
         band(45.0, 75.0, "Alloy-Cache"), band(70.0, 92.0, "PoM"),
         band(75.0, 95.0, "Chameleon-Opt")),
    ),
    Artefact(
        "fig16", figures.run_fig16, True,
        "averages: Chameleon 9.2% cache mode, Chameleon-Opt 40.6%",
        # With scattered occupancy p: basic ~ (1-p), Opt ~ (1-p^6).
        (band(5.0, 20.0, "Chameleon"), band(30.0, 55.0, "Chameleon-Opt"),
         order("Chameleon", "Chameleon-Opt", factor=2.5)),
    ),
    Artefact(
        "fig17", figures.run_fig17, True,
        "Chameleon 0.856x PoM swaps, Chameleon-Opt 0.569x",
        (exact(1.0, "PoM"), order("Chameleon-Opt", "Chameleon", "PoM"),
         band(0.45, 0.85, "Chameleon-Opt")),
    ),
    Artefact(
        "fig18", figures.run_fig18, True,
        "geomean vs 20GB baseline: 24GB 1.356, PoM 1.852, Chameleon 1.968, "
        "Opt 2.063",
        (exact(1.0, "baseline_20GB_DDR3"),
         order("baseline_20GB_DDR3", "Alloy-Cache", "baseline_24GB_DDR3",
               "PoM", "Chameleon", "Chameleon-Opt"),
         band(1.5, math.inf, "PoM")),
    ),
    Artefact(
        "fig19", figures.run_fig19, True,
        "geomean AMAT: PoM > Chameleon > Chameleon-Opt",
        (order("Chameleon-Opt", "Chameleon", "PoM"),
         band(20.0, 1500.0, "PoM")),
    ),
    Artefact(
        "fig20", figures.run_fig20, True,
        "Chameleon +28.7%/+19.1% over first-touch/AutoNUMA; Opt "
        "+34.8%/+24.9%",
        (order("numaAware", _AUTONUMA[0], "Chameleon", "Chameleon-Opt"),
         order("numaAware", _AUTONUMA[1], "Chameleon"),
         order("numaAware", _AUTONUMA[2], "Chameleon"),
         *deviation(6, order(*reversed(_AUTONUMA)),
                    band(2.13, 2.17, *_AUTONUMA))),
    ),
    Artefact(
        "fig21", figures.run_fig21, True,
        "Opt cache-mode: 33% @1:3, 40.6% @1:5, 48.7% @1:7",
        (order("1:3", "1:5", "1:7"), band(20.0, 45.0, "1:3"),
         band(38.0, 62.0, "1:7")),
    ),
    Artefact(
        "fig22", figures.run_fig22, True,
        "Chameleon +10.5%, Chameleon-Opt +15.8% over Polymorphic",
        (band(0.0, math.inf, "opt_vs_poly_percent"),
         order("cham_vs_poly_percent", "opt_vs_poly_percent")),
    ),
    Artefact(
        "fig23", figures.run_fig23, True,
        "Opt over PoM: +7.6% @1:3, +12.4% @1:7 (gains grow with ratio)",
        (band(0.0, math.inf, *_OPT_VS_POM),
         *deviation(5, order(*reversed(_OPT_VS_POM)),
                    band(2.5, 3.2, _OPT_VS_POM[0]),
                    band(1.5, 2.2, _OPT_VS_POM[1]))),
    ),
    Artefact(
        "overhead", run_overhead_analysis, False,
        "242.8M ISA events, 2071.89s of swaps over 53.8h: 1.06%",
        (band(1e8, 5e8, "isa_events"), band(0.3, 3.0, "overhead_percent")),
    ),
)

#: Every artefact, keyed by CLI id, in the paper's order.
ARTEFACTS: Dict[str, Artefact] = {entry.id: entry for entry in _ENTRIES}

"""Table II: the benchmark catalogue and synthesis personalities.

``llc_mpki`` and ``footprint_gb`` are taken verbatim from Table II
(12-copy rate-mode workloads).  The remaining fields are the synthesis
personality — the knobs of :class:`repro.workloads.synthetic.
SyntheticAccessGenerator` chosen per benchmark class:

* ``zipf_alpha`` — temporal reuse skew over segments (streaming codes
  get low skew, pointer-chasing codes like mcf get moderate skew over a
  large set, stencil codes get high skew);
* ``run_length`` — average sequential 64B-line run inside a segment
  (spatial locality; streaming codes run long, mcf short);
* ``write_fraction`` — store share of LLC misses;
* ``phase_accesses`` / ``churn`` — how often and how strongly the hot
  ranking rotates, driving swap churn and the AutoNUMA decay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class BenchmarkSpec:
    """One rate-mode workload (12 copies of one application)."""

    name: str
    suite: str
    llc_mpki: float
    footprint_gb: float
    zipf_alpha: float
    run_length: int
    write_fraction: float
    working_set_fraction: float = 0.15
    #: Fraction of access runs that touch a uniformly random segment of
    #: the whole footprint instead of the working set — the cold tail
    #: that drives steady-state paging on capacity-limited systems.
    tail_fraction: float = 0.05
    phase_accesses: int = 8000
    churn: float = 0.1

    def __post_init__(self) -> None:
        if self.llc_mpki <= 0:
            raise ValueError("MPKI must be positive")
        if self.footprint_gb <= 0:
            raise ValueError("footprint must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write fraction must be in [0, 1]")
        if self.run_length < 1:
            raise ValueError("run length must be >= 1")
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn must be in [0, 1]")
        if not 0.0 < self.working_set_fraction <= 1.0:
            raise ValueError("working_set_fraction must be in (0, 1]")
        if not 0.0 <= self.tail_fraction < 1.0:
            raise ValueError("tail_fraction must be in [0, 1)")

    @property
    def icount_gap(self) -> int:
        """Instructions between LLC misses implied by the MPKI."""
        return max(1, round(1000.0 / self.llc_mpki))


def _spec(
    name: str,
    suite: str,
    mpki: float,
    footprint: float,
    alpha: float,
    run: int,
    writes: float,
    ws: float = 0.15,
    churn: float = 0.1,
) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name,
        suite=suite,
        llc_mpki=mpki,
        footprint_gb=footprint,
        zipf_alpha=alpha,
        run_length=run,
        write_fraction=writes,
        working_set_fraction=ws,
        churn=churn,
    )


#: Table II, in the paper's row order.
TABLE2_BENCHMARKS: List[BenchmarkSpec] = [
    _spec("bwaves", "SPEC2006", 12.91, 21.86, 1.10, 16, 0.30, ws=0.15),
    _spec("lbm", "SPEC2006", 29.55, 19.17, 0.95, 24, 0.45, ws=0.18),
    _spec("cactusADM", "SPEC2006", 2.03, 20.12, 1.10, 12, 0.35, ws=0.12),
    _spec("leslie3d", "SPEC2006", 12.18, 21.65, 1.05, 16, 0.30, ws=0.15),
    _spec("mcf", "SPEC2006", 59.804, 19.65, 0.90, 2, 0.25, ws=0.30, churn=0.15),
    _spec("GemsFDTD", "SPEC2006", 20.783, 22.56, 1.00, 16, 0.35, ws=0.16),
    _spec("SP", "NAS", 0.87, 21.72, 1.10, 12, 0.30, ws=0.12),
    _spec("stream", "Stream", 35.77, 21.66, 0.40, 32, 0.40, ws=0.60, churn=0.30),
    _spec("cloverleaf", "Mantevo", 30.33, 23.01, 0.95, 24, 0.40, ws=0.20, churn=0.20),
    _spec("comd", "Mantevo", 0.71, 23.18, 1.10, 8, 0.25, ws=0.12),
    _spec("miniAMR", "Mantevo", 1.44, 22.40, 1.05, 12, 0.30, ws=0.13),
    _spec("hpccg", "Mantevo", 7.81, 22.15, 1.00, 20, 0.30, ws=0.15),
    _spec("miniFE", "Mantevo", 0.48, 22.55, 1.05, 16, 0.30, ws=0.13),
    _spec("miniGhost", "Mantevo", 0.19, 20.68, 1.10, 12, 0.30, ws=0.12),
]

_BY_NAME: Dict[str, BenchmarkSpec] = {
    spec.name: spec for spec in TABLE2_BENCHMARKS
}


def benchmark(name: str) -> BenchmarkSpec:
    """Look a benchmark up by its Table II name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


def benchmark_names() -> List[str]:
    return [spec.name for spec in TABLE2_BENCHMARKS]

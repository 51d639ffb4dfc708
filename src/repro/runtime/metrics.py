"""Sweep progress accounting: per-cell wall time, cache hit rate,
worker utilisation.

Every :class:`repro.runtime.executor.SweepExecutor` owns one
:class:`SweepMetrics` and records into it across all of its sweeps, so
a CLI invocation that triggers several sweeps (``fig21`` runs one per
capacity ratio) still reports one coherent summary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Where a finished cell's result came from.
SOURCE_SIMULATED = "simulated"
SOURCE_DISK = "disk-cache"

#: Failure kinds recorded by :meth:`SweepMetrics.record_failure`.
FAILURE_CRASH = "crash"
FAILURE_TIMEOUT = "timeout"
FAILURE_ERROR = "error"

#: Callback fired as each cell completes: ``(stat, done, total)`` where
#: ``done``/``total`` count cells within the current sweep.
ProgressCallback = Callable[["CellStat", int, int], None]


@dataclass(frozen=True)
class CellStat:
    """One completed ``(design, workload)`` cell."""

    design: str
    workload: str
    seconds: float
    source: str  # SOURCE_SIMULATED | SOURCE_DISK


@dataclass
class SweepMetrics:
    """Accumulated accounting over an executor's lifetime."""

    jobs: int = 1
    cells: List[CellStat] = field(default_factory=list)
    wall_seconds: float = 0.0
    sweeps: int = 0
    #: Failed attempts, by kind (see docs/RUNTIME.md fault tolerance).
    crashes: int = 0
    timeouts: int = 0
    errors: int = 0
    #: Attempts re-queued after a failure (failures that were absorbed).
    retries: int = 0
    #: The executor gave up on its worker pool and finished serially.
    degraded: bool = False
    #: Trace-arena accounting: payload bytes published
    #: (across sweeps) and cells dispatched with an arena available.
    arena_bytes: int = 0
    arena_hits: int = 0
    #: Simulated cells by replay kernel: ``"kernel[reason]"`` -> count
    #: (the :class:`~repro.sim.KernelDecision` each design resolved to).
    kernels: Dict[str, int] = field(default_factory=dict)

    def record_cell(self, stat: CellStat) -> None:
        self.cells.append(stat)

    def record_sweep(self, wall_seconds: float) -> None:
        self.sweeps += 1
        self.wall_seconds += wall_seconds

    def record_failure(self, kind: str) -> None:
        """Count one failed attempt (``crash``/``timeout``/``error``)."""
        if kind == FAILURE_CRASH:
            self.crashes += 1
        elif kind == FAILURE_TIMEOUT:
            self.timeouts += 1
        else:
            self.errors += 1

    def record_retry(self) -> None:
        self.retries += 1

    def record_arena(self, nbytes: int) -> None:
        """Count one published trace arena of ``nbytes`` payload."""
        self.arena_bytes += nbytes

    def record_arena_hit(self) -> None:
        """Count one cell simulated with a published arena attached."""
        self.arena_hits += 1

    def record_kernel(self, decision) -> None:
        """Count one simulated cell's resolved replay kernel
        (a :class:`~repro.sim.KernelDecision` or ``(kernel, reason)``)."""
        key = f"{decision[0]}[{decision[1]}]"
        self.kernels[key] = self.kernels.get(key, 0) + 1

    # -- derived -------------------------------------------------------

    @property
    def cells_total(self) -> int:
        return len(self.cells)

    def _count(self, source: str) -> int:
        return sum(1 for c in self.cells if c.source == source)

    @property
    def simulated(self) -> int:
        return self._count(SOURCE_SIMULATED)

    @property
    def disk_hits(self) -> int:
        return self._count(SOURCE_DISK)

    @property
    def memory_hits(self) -> int:
        """Deprecated, always 0: no executor path serves a cell from
        memory (the ``run_design_sweep`` memo records no cells)."""
        return _retired("memory_hits", "no cell is served from memory")

    @property
    def resumed(self) -> int:
        """Deprecated, always 0: a re-run interrupted sweep counts its
        finished cells in :attr:`disk_hits`."""
        return _retired("resumed", "read disk_hits instead")

    @property
    def failures(self) -> int:
        """Total failed attempts, every kind."""
        return self.crashes + self.timeouts + self.errors

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cells served without simulating, 0..1."""
        if not self.cells:
            return 0.0
        return 1.0 - self.simulated / len(self.cells)

    @property
    def busy_seconds(self) -> float:
        """Total simulation time, summed over cells (not wall time)."""
        return sum(c.seconds for c in self.cells)

    @property
    def mean_cell_seconds(self) -> float:
        simulated = [c.seconds for c in self.cells if c.source == SOURCE_SIMULATED]
        return sum(simulated) / len(simulated) if simulated else 0.0

    @property
    def worker_utilisation(self) -> float:
        """``busy / (jobs * wall)`` — how full the worker pool ran.

        1.0 means every worker simulated for the whole wall time; a
        fully cache-served sweep reports 0.0.
        """
        denom = self.jobs * self.wall_seconds
        if denom <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / denom)

    def summary(self) -> str:
        """One-line human summary (the CLI's ``[runtime]`` trailer)."""
        line = (
            f"cells={self.cells_total}"
            f" simulated={self.simulated}"
            f" disk-hits={self.disk_hits}"
            f" hit-rate={self.cache_hit_rate:.1%}"
            f" wall={self.wall_seconds:.2f}s"
            f" jobs={self.jobs}"
            f" util={self.worker_utilisation:.1%}"
            f" retries={self.retries}"
            f" timeouts={self.timeouts}"
            f" crashes={self.crashes}"
        )
        if self.arena_bytes:
            line += (
                f" arena-bytes={self.arena_bytes}"
                f" arena-hits={self.arena_hits}"
            )
        if self.kernels:
            line += " kernels=" + ",".join(
                f"{key}:{count}"
                for key, count in sorted(self.kernels.items())
            )
        if self.degraded:
            line += " degraded=serial"
        return line


def _retired(name: str, hint: str) -> int:
    warnings.warn(
        f"SweepMetrics.{name} is deprecated and always 0 ({hint}); "
        "it will be removed in 1.6.0",
        DeprecationWarning,
        stacklevel=3,
    )
    return 0


def print_progress(stat: CellStat, done: int, total: int) -> None:
    """Default progress printer: one stderr line per completed cell."""
    import sys

    print(
        f"[{done:>4}/{total}] {stat.design}/{stat.workload}"
        f" {stat.seconds:.2f}s ({stat.source})",
        file=sys.stderr,
    )


__all__ = [
    "CellStat",
    "FAILURE_CRASH",
    "FAILURE_ERROR",
    "FAILURE_TIMEOUT",
    "ProgressCallback",
    "SOURCE_DISK",
    "SOURCE_SIMULATED",
    "SweepMetrics",
    "print_progress",
]

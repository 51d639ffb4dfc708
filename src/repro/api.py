"""Stable public facade for the CHAMELEON reproduction (API v3).

Everything a downstream script or notebook needs lives here, with one
spelling per concept and keyword-only configuration arguments:

* :func:`scaled_config` — a paper-ratio :class:`SystemConfig` at
  laptop scale;
* :func:`designs` / :func:`workloads` / :func:`benchmark` — enumerate
  the Table I design registry and the Table II benchmark suite;
* :func:`build_design` / :func:`build_workload` — construct a
  :class:`MemoryArchitecture` or :class:`MultiprogramWorkload`;
* :func:`simulate` — one (design, workload) cell, accepting either
  registry labels / benchmark names or pre-built objects;
* :func:`sweep` — a full design × workload grid through the
  fault-tolerant parallel runtime (precompiled trace arena, result
  cache that doubles as the sweep checkpoint), returning a
  :class:`SweepOutcome`;
* :class:`ServeClient` / :class:`SimRequest` / :class:`SweepRequest` —
  talk to a running ``repro.serve`` simulation service (see
  docs/SERVING.md).

Compatibility policy: names exported here — and their call
signatures, frozen by ``tests/test_public_api.py`` — only change with
a deprecation cycle of at least one minor release (warn in ``1.x``,
remove in ``1.x+1`` at the earliest); see docs/API.md.  Modules
outside this facade (``repro.sim``, ``repro.runtime``, ...) are
importable and stable in practice, but only :mod:`repro.api` carries
the guarantee.

Quickstart::

    from repro import api

    result = api.simulate(design="Chameleon-Opt", workload="mcf")
    print(result.fast_hit_rate, result.geomean_ipc)

    outcome = api.sweep(designs=("PoM", "Chameleon-Opt"), jobs=4)
    print(outcome.metrics.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro._version import __version__ as __version__
from repro.config import (
    GB as GB,
    KB as KB,
    MB as MB,
    DEFAULT_SEGMENT_BYTES,
    SystemConfig as SystemConfig,
)
from repro.config import scaled_config as _scaled_config
from repro.arch.base import MemoryArchitecture as MemoryArchitecture
from repro.sim import SimulationResult as SimulationResult
from repro.sim import simulate as _simulate
from repro.workloads import (
    TABLE2_BENCHMARKS,
    BenchmarkSpec as BenchmarkSpec,
    MultiprogramWorkload as MultiprogramWorkload,
)
from repro.workloads import benchmark as _benchmark
from repro.workloads import build_workload as _build_workload
from repro.experiments.designs import (
    CATEGORIES as CATEGORIES,
    REGISTRY,
    DesignSpec as DesignSpec,
)
from repro.experiments.runner import Scale as Scale
from repro.runtime import (
    ResultCache,
    SweepExecutor,
    SweepMetrics as SweepMetrics,
)
from repro.serve.client import Client as ServeClient
from repro.serve.protocol import (
    SimRequest as SimRequest,
    SweepRequest as SweepRequest,
)
from repro.telemetry import (
    EventBus as EventBus,
    EventLog as EventLog,
    TelemetryEvent,
    TimelineRecorder as TimelineRecorder,
)
from repro.cachesim import (
    CacheHierarchy as CacheHierarchy,
    CoherentHierarchy as CoherentHierarchy,
)
from repro.trace.io import read_trace as read_trace
from repro.trace.io import write_trace as write_trace
from repro.trace.stats import characterize as characterize
from repro.osmodel.longrun import (
    LongRunSimulator as LongRunSimulator,
    WorkloadSpec as WorkloadSpec,
    improvement_percent as improvement_percent,
)

#: Version of this facade.  Bumped only on a breaking surface change
#: (which itself requires a deprecation cycle first).  v3 adds the
#: serving surface (``ServeClient``/``SimRequest``/``SweepRequest``)
#: and ``sweep(timeout=, retries=)`` — strictly additive; every v2
#: call keeps working unchanged.
API_VERSION = 3


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

def scaled_config(
    *,
    fast_mb: float = 4.0,
    ratio: int = 5,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
) -> SystemConfig:
    """Paper-ratio system at reduced scale (Table I shrunk uniformly).

    ``fast_mb`` is the stacked-DRAM capacity; off-chip capacity is
    ``fast_mb * ratio`` (the paper's 4GB:20GB split is ``ratio=5``).
    """
    return _scaled_config(
        fast_mb=fast_mb, ratio=ratio, segment_bytes=segment_bytes
    )


# ----------------------------------------------------------------------
# Registry views
# ----------------------------------------------------------------------

def designs(
    *,
    figure: Optional[str] = None,
    category: Optional[str] = None,
) -> Tuple[DesignSpec, ...]:
    """Registered design specs — all of them, one figure's line-up in
    plot order, or one category (``hardware``/``baseline``/``os``)."""
    if figure is not None and category is not None:
        raise ValueError("pass at most one of figure= and category=")
    if figure is not None:
        return REGISTRY.by_figure(figure)
    if category is not None:
        return REGISTRY.by_category(category)
    return tuple(REGISTRY)


def workloads() -> Tuple[BenchmarkSpec, ...]:
    """The Table II benchmark suite, in table order."""
    return tuple(TABLE2_BENCHMARKS)


def benchmark(name: str) -> BenchmarkSpec:
    """Look a benchmark up by its Table II name (KeyError if unknown)."""
    return _benchmark(name)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def build_design(
    label: str,
    config: Optional[SystemConfig] = None,
) -> MemoryArchitecture:
    """Instantiate a registered design on ``config`` (default:
    :func:`scaled_config`)."""
    if config is None:
        config = scaled_config()
    return REGISTRY.get(label).factory(config)


def build_workload(
    name: Union[str, BenchmarkSpec],
    *,
    config: Optional[SystemConfig] = None,
    num_copies: int = 12,
    scattered: bool = True,
    seed: int = 0,
    footprint_override_fraction: Optional[float] = None,
    exclude_segments: Optional[set] = None,
) -> MultiprogramWorkload:
    """Place a benchmark's footprint on ``config`` and split it into
    ``num_copies`` rate-mode copies (the paper runs 12).

    ``footprint_override_fraction`` replaces the Table II footprint
    with a fraction of total capacity (sensitivity/co-tenancy
    scenarios); ``exclude_segments`` keeps the placement off another
    workload's segments.
    """
    if config is None:
        config = scaled_config()
    spec = _benchmark(name) if isinstance(name, str) else name
    return _build_workload(
        config,
        spec,
        num_copies=num_copies,
        scattered=scattered,
        seed=seed,
        footprint_override_fraction=footprint_override_fraction,
        exclude_segments=exclude_segments,
    )


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------

def simulate(
    *,
    design: Union[str, MemoryArchitecture],
    workload: Union[str, MultiprogramWorkload],
    config: Optional[SystemConfig] = None,
    accesses_per_core: int = 2000,
    warmup_per_core: Optional[int] = None,
    num_copies: int = 12,
    seed: int = 0,
    kernel: str = "auto",
    apply_isa: bool = True,
    telemetry: Optional[EventBus] = None,
) -> SimulationResult:
    """Run one (design, workload) cell and summarise.

    ``design`` is a registry label or a pre-built architecture;
    ``workload`` is a Table II name or a pre-built workload.  String
    forms are resolved against ``config`` (default
    :func:`scaled_config`); pre-built objects are used as-is and
    ``config``/``num_copies``/``seed`` do not apply to them.
    """
    if config is None:
        config = scaled_config()
    architecture = (
        build_design(design, config) if isinstance(design, str) else design
    )
    built = (
        build_workload(
            workload, config=config, num_copies=num_copies, seed=seed
        )
        if isinstance(workload, str)
        else workload
    )
    return _simulate(
        architecture,
        built,
        accesses_per_core=accesses_per_core,
        apply_isa=apply_isa,
        warmup_per_core=warmup_per_core,
        telemetry=telemetry,
        kernel=kernel,
    )


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepOutcome:
    """Everything one :func:`sweep` produced.

    ``results`` maps ``(design label, workload name)`` to the cell's
    :class:`SimulationResult`; ``metrics`` is the runtime's counter
    block (``metrics.summary()`` is the CLI's ``[runtime]`` line);
    ``events`` holds per-cell telemetry streams when the sweep ran
    with ``audit=True``.
    """

    results: Mapping[Tuple[str, str], SimulationResult]
    metrics: SweepMetrics
    events: Mapping[Tuple[str, str], List[TelemetryEvent]] = field(
        default_factory=dict
    )

    def result(self, design: str, workload: str) -> SimulationResult:
        """One cell, with a helpful error for unknown keys."""
        try:
            return self.results[(design, workload)]
        except KeyError:
            known = ", ".join(sorted({d for d, _ in self.results}))
            raise KeyError(
                f"no cell ({design!r}, {workload!r}); designs swept: {known}"
            ) from None

    def designs(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(d for d, _ in self.results))

    def workloads(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(w for _, w in self.results))


def sweep(
    *,
    designs: Optional[Sequence[str]] = None,
    scale: Optional[Scale] = None,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    audit: bool = False,
    arena: bool = True,
    arena_budget: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> SweepOutcome:
    """Simulate a design × workload grid through the sweep runtime.

    Defaults: every registered design, the default :class:`Scale`,
    serial execution, no persistent cache.  ``jobs>1`` fans out over
    supervised worker processes (results are bit-identical at any
    worker count); ``cache_dir`` enables the content-addressed disk
    cache (re-running an interrupted sweep on the same ``cache_dir``
    simulates only the cells it did not finish); ``arena`` compiles each workload's trace once per sweep and
    shares it with every cell (``arena_budget`` bounds its bytes;
    over-budget grids regenerate per cell); ``timeout``
    (seconds per cell) and ``retries`` (re-dispatches before a cell is
    abandoned) tune the runtime's fault tolerance — ``None`` keeps the
    runtime defaults.
    """
    if designs is None:
        designs = REGISTRY.labels()
    if scale is None:
        scale = Scale()
    cache = ResultCache(Path(cache_dir)) if cache_dir is not None else None
    executor = SweepExecutor(
        jobs=jobs,
        cache=cache,
        audit=audit,
        arena=arena,
        arena_budget=arena_budget,
        timeout=timeout,
        retries=retries,
    )
    results: Dict[Tuple[str, str], SimulationResult] = dict(
        executor.run(scale, designs)
    )
    return SweepOutcome(
        results=results,
        metrics=executor.metrics,
        events=dict(executor.events),
    )


__all__ = [
    "API_VERSION",
    "BenchmarkSpec",
    "CATEGORIES",
    "CacheHierarchy",
    "CoherentHierarchy",
    "DesignSpec",
    "EventBus",
    "EventLog",
    "GB",
    "KB",
    "LongRunSimulator",
    "MB",
    "MemoryArchitecture",
    "MultiprogramWorkload",
    "Scale",
    "ServeClient",
    "SimRequest",
    "SimulationResult",
    "SweepMetrics",
    "SweepOutcome",
    "SweepRequest",
    "SystemConfig",
    "TimelineRecorder",
    "WorkloadSpec",
    "__version__",
    "benchmark",
    "build_design",
    "build_workload",
    "characterize",
    "designs",
    "improvement_percent",
    "read_trace",
    "scaled_config",
    "simulate",
    "sweep",
    "workloads",
    "write_trace",
]

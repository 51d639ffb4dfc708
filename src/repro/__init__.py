"""repro — a reproduction of CHAMELEON (MICRO 2018).

Chameleon is a hardware-software co-designed heterogeneous memory
system that dynamically reconfigures segment groups between
Part-of-Memory mode (maximum OS-visible capacity) and cache mode
(opportunistic use of OS-free space as a hardware-managed stacked-DRAM
cache), driven by two new ISA instructions the OS issues from its page
allocator.

Quickstart — the stable facade is :mod:`repro.api` (see docs/API.md
for the full surface and the compatibility policy)::

    from repro import api

    result = api.simulate(
        design="Chameleon-Opt", workload="mcf",
        accesses_per_core=20_000,
    )
    print(result.fast_hit_rate, result.geomean_ipc)

    outcome = api.sweep(designs=("PoM", "Chameleon-Opt"), jobs=4)
    print(outcome.metrics.summary())

The flat re-exports below (``repro.simulate``, ``repro.build_workload``
...) remain for existing code; new code should prefer ``repro.api``.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.
"""

from repro.config import (
    GB,
    KB,
    MB,
    CoreConfig,
    DramConfig,
    DramTiming,
    SystemConfig,
    offchip_dram,
    paper_config,
    scaled_config,
    stacked_dram,
)
from repro.arch import (
    AlloyCache,
    CameoArchitecture,
    FlatMemory,
    MemoryArchitecture,
    PoMArchitecture,
    PolymorphicMemory,
    StaticHybridMemory,
)
from repro.core import (
    ChameleonArchitecture,
    ChameleonOptArchitecture,
    ChameleonSharedPool,
)
from repro.sim import (
    KERNELS,
    AutoNumaMemory,
    FirstTouchMemory,
    KernelDecision,
    SimulationResult,
    select_kernel,
    simulate,
)
from repro.workloads import (
    TABLE2_BENCHMARKS,
    BenchmarkSpec,
    MultiprogramWorkload,
    benchmark,
    benchmark_names,
    build_workload,
)
from repro.stats import geomean
from repro.cachesim import CacheHierarchy, CoherentHierarchy
from repro.dram import system_energy
from repro.trace.stats import characterize

from repro._version import __version__
from repro import api

__all__ = [
    "api",
    "GB",
    "KB",
    "MB",
    "CoreConfig",
    "DramConfig",
    "DramTiming",
    "SystemConfig",
    "offchip_dram",
    "paper_config",
    "scaled_config",
    "stacked_dram",
    "AlloyCache",
    "CameoArchitecture",
    "FlatMemory",
    "MemoryArchitecture",
    "PoMArchitecture",
    "PolymorphicMemory",
    "StaticHybridMemory",
    "ChameleonArchitecture",
    "ChameleonOptArchitecture",
    "ChameleonSharedPool",
    "KERNELS",
    "KernelDecision",
    "AutoNumaMemory",
    "FirstTouchMemory",
    "SimulationResult",
    "select_kernel",
    "simulate",
    "TABLE2_BENCHMARKS",
    "BenchmarkSpec",
    "MultiprogramWorkload",
    "benchmark",
    "benchmark_names",
    "build_workload",
    "geomean",
    "CacheHierarchy",
    "CoherentHierarchy",
    "system_energy",
    "characterize",
    "__version__",
]

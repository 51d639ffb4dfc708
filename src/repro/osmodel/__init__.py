"""Operating-system model.

The paper's OS side is Algorithms 1-2: the page allocator issues one
ISA-Alloc / ISA-Free for each hardware segment a page covers.  Every
figure here allocates the footprint before the measured window
(Section VI-B), so that stream is one ISA-Alloc per allocated segment,
issued up front by
:meth:`repro.workloads.multiprog.MultiprogramWorkload.apply_allocations`.
This package holds the rest of the OS side:

* :mod:`repro.osmodel.vm` — the SSD-backed page-fault engine (exact-LRU
  resident set, minor vs major faults) for designs whose OS-visible
  capacity is smaller than the footprint;
* :mod:`repro.osmodel.autonuma` — Linux AutoNUMA balancing with scan
  epochs, migration thresholds and the -ENOMEM capacity failure
  (Section II-B2 / III-A2); the first-touch placement it starts from is
  :class:`repro.sim.os_designs.FirstTouchMemory`;
* :mod:`repro.osmodel.longrun` — the multi-day workload-sequence model
  behind Figures 3, 4 and 5.
"""

from repro.osmodel.vm import PageFaultEngine
from repro.osmodel.autonuma import AutoNumaBalancer, AutoNumaConfig
from repro.osmodel.longrun import LongRunSimulator, WorkloadSpec

__all__ = [
    "PageFaultEngine",
    "AutoNumaBalancer",
    "AutoNumaConfig",
    "LongRunSimulator",
    "WorkloadSpec",
]

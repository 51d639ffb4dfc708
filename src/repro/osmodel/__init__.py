"""Operating-system model.

The paper's co-design hinges on the OS side: the Linux buddy allocator's
``alloc_pages`` / ``free_one_page`` routines are instrumented to issue
ISA-Alloc / ISA-Free for every hardware segment covered by the page
(Algorithms 1 and 2).  This package reproduces that substrate:

* :mod:`repro.osmodel.buddy` — a buddy physical-page allocator with
  per-order free lists and coalescing;
* :mod:`repro.osmodel.hooks` — the Algorithm 1/2 instrumentation layer
  that fans page allocations out into per-segment ISA calls;
* :mod:`repro.osmodel.vm` — per-process address spaces, first-touch
  mapping, 4KB pages and 2MB transparent huge pages, and the SSD-backed
  page-fault engine;
* :mod:`repro.osmodel.autonuma` — Linux AutoNUMA balancing with scan
  epochs, migration thresholds and the -ENOMEM capacity failure
  (Section II-B2 / III-A2); the first-touch placement it starts from is
  :class:`repro.sim.os_designs.FirstTouchMemory`;
* :mod:`repro.osmodel.longrun` — the multi-day workload-sequence model
  behind Figures 3, 4 and 5.
"""

from repro.osmodel.buddy import BuddyAllocator, OutOfMemoryError
from repro.osmodel.hooks import IsaNotifier, NullNotifier, PageHookDispatcher
from repro.osmodel.vm import AddressSpace, PageFaultEngine, VirtualMemory
from repro.osmodel.autonuma import AutoNumaBalancer, AutoNumaConfig
from repro.osmodel.longrun import (
    LongRunSimulator,
    WorkloadPhase,
    WorkloadSpec,
)

__all__ = [
    "BuddyAllocator",
    "OutOfMemoryError",
    "IsaNotifier",
    "NullNotifier",
    "PageHookDispatcher",
    "AddressSpace",
    "PageFaultEngine",
    "VirtualMemory",
    "AutoNumaBalancer",
    "AutoNumaConfig",
    "LongRunSimulator",
    "WorkloadPhase",
    "WorkloadSpec",
]

"""Chameleon and Chameleon-Opt: the paper's contribution.

Both designs extend the hardware-managed PoM baseline
(:class:`repro.arch.pom.PoMArchitecture`) with the augmented SRRT of
Figure 7 — per-group Alloc Bit Vector, mode bit and dirty bit — driven
by the ISA-Alloc / ISA-Free instructions the OS issues for each segment
a page covers (Algorithms 1-2).  Every experiment allocates its
footprint up front, so the stream is one ISA-Alloc per allocated
segment, issued by
:meth:`repro.workloads.multiprog.MultiprogramWorkload.apply_allocations`:

* :class:`repro.core.chameleon.ChameleonArchitecture` — the basic
  co-design: a segment group whose *stacked* segment is OS-free flips
  into cache mode and uses the stacked slot as a hardware-managed,
  threshold-free cache for the group's off-chip segments (Figures 8-11);
* :class:`repro.core.chameleon_opt.ChameleonOptArchitecture` — the
  optimised co-design: free *off-chip* segments are harvested too, by
  proactively remapping the allocated stacked resident into a free
  off-chip slot so the group stays in cache mode while *any* segment of
  the group is free (Figures 12-14);
* :class:`repro.core.shared_pool.ChameleonSharedPool` — the Section VI-G
  future-work extension: OS-exposed ABV state lets groups with no free
  segment borrow cache slots from groups with more than one.
"""

from repro.core.chameleon import ChameleonArchitecture
from repro.core.chameleon_opt import ChameleonOptArchitecture
from repro.core.shared_pool import ChameleonSharedPool

__all__ = [
    "ChameleonArchitecture",
    "ChameleonOptArchitecture",
    "ChameleonSharedPool",
]

"""Heterogeneous memory architectures evaluated in the paper.

Every design implements :class:`repro.arch.base.MemoryArchitecture`:

* :class:`repro.arch.flat.FlatMemory` — the DDR-only 20GB / 24GB
  baselines of Figure 18;
* :class:`repro.arch.alloy.AlloyCache` — the latency-optimised
  direct-mapped 64B stacked-DRAM cache (Qureshi & Loh, MICRO 2012),
  i.e. the 100%-cache :class:`~repro.arch.static_hybrid.StaticHybridMemory`;
* :class:`repro.arch.pom.PoMArchitecture` — hardware-managed Part of
  Memory with 2KB segments, segment-restricted remapping and a shared
  competing counter (Sim et al., MICRO 2014) — the paper's baseline;
* :class:`repro.arch.cameo.CameoArchitecture` — CAMEO-style 64B
  congruence groups (Chou et al., MICRO 2014);
* :class:`repro.arch.polymorphic.PolymorphicMemory` — the Chung et al.
  patent: stacked free space used as cache, no hot-segment swapping
  (Figure 22's comparison point);
* :class:`repro.arch.static_hybrid.StaticHybridMemory` — KNL-style
  boot-time cache/memory partitioning of the stacked DRAM
  (Section II-C3's statically reconfigurable hybrid); its cache share
  is the codebase's one direct-mapped TAD cache.

Chameleon and Chameleon-Opt, the paper's contribution, live in
:mod:`repro.core` and share the remap machinery in
:mod:`repro.arch.remap`.
"""

from repro.arch.base import AccessResult, MemoryArchitecture
from repro.arch.remap import GroupState, Mode, SegmentGeometry
from repro.arch.flat import FlatMemory
from repro.arch.alloy import AlloyCache
from repro.arch.pom import PoMArchitecture
from repro.arch.cameo import CameoArchitecture
from repro.arch.polymorphic import PolymorphicMemory
from repro.arch.static_hybrid import StaticHybridMemory

__all__ = [
    "AccessResult",
    "MemoryArchitecture",
    "GroupState",
    "Mode",
    "SegmentGeometry",
    "FlatMemory",
    "AlloyCache",
    "PoMArchitecture",
    "CameoArchitecture",
    "PolymorphicMemory",
    "StaticHybridMemory",
]

"""DRAM device and memory-controller timing substrate.

The paper models a 4GB stacked DRAM and a 20GB off-chip DRAM with the
Table I device timings.  This package provides:

* :class:`repro.dram.bank.Bank` — per-bank open-row state machine;
* :class:`repro.dram.device.DramDevice` — a full device (channels, ranks,
  banks) servicing 64B demand accesses and bulk segment transfers, with
  row-buffer locality, data-bus occupancy, queueing, and a statistical
  refresh penalty;
* :class:`repro.dram.controller.HeterogeneousMemory` — the pair of
  fast/slow devices plus the swap engine's local transfer buffers
  (PoM fast-swap, Section V-D1).

The model is *timestamp-driven* rather than cycle-stepped: callers present
accesses with a monotonically increasing ``now_ns`` and receive the access
latency; banks and channel buses remember when they become free, so bulk
swap traffic naturally delays subsequent demand accesses — the swap
interference effect central to the paper's PoM critique.
"""

from repro.dram.bank import Bank, RowBufferResult
from repro.dram.device import DramDevice
from repro.dram.controller import HeterogeneousMemory
from repro.dram.power import DramPowerModel, EnergyReport, system_energy

__all__ = [
    "Bank",
    "RowBufferResult",
    "DramDevice",
    "DramPowerModel",
    "EnergyReport",
    "HeterogeneousMemory",
    "system_energy",
]

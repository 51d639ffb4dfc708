"""Multiprogram (rate-mode) performance aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence

from repro.config import SystemConfig
from repro.cpu.core import CoreRunStats, CoreTimingModel
from repro.stats import geomean

#: Version of the :meth:`WorkloadPerformance.to_dict` wire format.
PERFORMANCE_SCHEMA_VERSION = 1


@dataclass
class WorkloadPerformance:
    """Per-workload performance summary (Section VI-A reporting)."""

    name: str
    per_core_ipc: List[float]
    average_latency_ns: float
    page_faults: int

    def to_dict(self) -> Dict[str, Any]:
        """Versioned plain-dict form (the disk-cache wire format)."""
        return {
            "schema": PERFORMANCE_SCHEMA_VERSION,
            "name": self.name,
            "per_core_ipc": list(self.per_core_ipc),
            "average_latency_ns": self.average_latency_ns,
            "page_faults": self.page_faults,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadPerformance":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions."""
        schema = data.get("schema")
        if schema != PERFORMANCE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported WorkloadPerformance schema {schema!r} "
                f"(expected {PERFORMANCE_SCHEMA_VERSION})"
            )
        return cls(
            name=data["name"],
            per_core_ipc=list(data["per_core_ipc"]),
            average_latency_ns=data["average_latency_ns"],
            page_faults=data["page_faults"],
        )

    @property
    def geomean_ipc(self) -> float:
        return geomean(self.per_core_ipc)

    @property
    def min_ipc(self) -> float:
        return min(self.per_core_ipc)

    @property
    def max_ipc(self) -> float:
        return max(self.per_core_ipc)


class MulticoreModel:
    """Aggregates per-core stats into the paper's workload metrics."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.core_model = CoreTimingModel(config.core)

    def summarize(
        self, name: str, per_core: Sequence[CoreRunStats]
    ) -> WorkloadPerformance:
        if not per_core:
            raise ValueError("workload has no cores")
        ipcs = [self.core_model.ipc(stats) for stats in per_core]
        accesses = sum(stats.memory_accesses for stats in per_core)
        latency = sum(stats.memory_latency_ns for stats in per_core)
        faults = sum(stats.page_faults for stats in per_core)
        return WorkloadPerformance(
            name=name,
            per_core_ipc=ipcs,
            average_latency_ns=latency / accesses if accesses else 0.0,
            page_faults=faults,
        )

    def average_latency_cycles(self, perf: WorkloadPerformance) -> float:
        """Average memory access latency in CPU cycles (Figure 19)."""
        return self.config.core.ns_to_cycles(perf.average_latency_ns)

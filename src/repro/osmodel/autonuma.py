"""Linux Automatic NUMA Balancing (AutoNUMA) model.

Mechanism modelled after Section II-B2 / III-A2: in every
``numa_balancing_scan_period`` epoch a sample of pages is poisoned, so
accesses manifest as NUMA hint faults classified *local* (fast node) or
*remote* (slow node).  At epoch end the balancer computes the
remote-to-local fault ratio and migrates misplaced (remote-faulted)
pages into the fast node — but only while the fast node has free space;
once full, migrations fail with -ENOMEM and, unlike on a multi-socket
machine, the task cannot be moved to the other "socket", so the hit
rate decays exactly as Figure 2c shows.

The ``numa_period_threshold`` (70/80/90% in Figure 2b) governs how
aggressively the scan period reacts: a higher threshold lets the period
shrink faster, migrating misplaced pages more rapidly.  We model that as
a per-epoch migration budget growing with the threshold's odds ratio
(see :attr:`AutoNumaConfig.migrations_per_epoch`), which reproduces the
paper's observed ordering (90% > 80% > 70% in average hit rate) and the
Figure 2c rise-peak-decay timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.stats import CounterSet, Timeline

FAST_NODE = 0
SLOW_NODE = 1


@dataclass(frozen=True)
class AutoNumaConfig:
    """Balancer knobs (Figure 2b sweeps ``threshold``)."""

    threshold: float = 0.9
    scan_period_cycles: int = 10_000_000
    #: Fraction of pages sampled (poisoned) per scan epoch.
    scan_sample_fraction: float = 0.25
    #: Base migration bandwidth, in pages per epoch, at threshold 0.5.
    #: The effective per-epoch budget grows with the threshold —
    #: ``numa_balancing_scan_period`` shrinks faster under a higher
    #: ``numa_period_threshold``, migrating misplaced pages more rapidly
    #: (Section III-A2) — as ``base_rate * threshold / (1 - threshold)``.
    migration_base_rate: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.scan_period_cycles <= 0:
            raise ValueError("scan period must be positive")
        if not 0.0 < self.scan_sample_fraction <= 1.0:
            raise ValueError("sample fraction must be in (0, 1]")
        if self.migration_base_rate < 1:
            raise ValueError("migration rate must be >= 1")

    @property
    def migrations_per_epoch(self) -> int:
        """Per-epoch migration budget implied by the threshold."""
        if self.threshold >= 1.0:
            return 1_000_000_000
        odds = self.threshold / (1.0 - self.threshold)
        return max(1, round(self.migration_base_rate * odds))


@dataclass
class EpochReport:
    """What one balancing epoch did."""

    epoch: int
    local_faults: int
    remote_faults: int
    migrated: int
    enomem_failures: int
    hit_rate: float

    @property
    def remote_ratio(self) -> float:
        total = self.local_faults + self.remote_faults
        return self.remote_faults / total if total else 0.0


class AutoNumaBalancer:
    """Epoch-driven page placement balancer over fast/slow nodes."""

    def __init__(
        self,
        fast_capacity_pages: int,
        config: AutoNumaConfig | None = None,
        counters: CounterSet | None = None,
    ) -> None:
        if fast_capacity_pages <= 0:
            raise ValueError("fast node needs capacity")
        self.config = config if config is not None else AutoNumaConfig()
        self.counters = counters if counters is not None else CounterSet()
        self.fast_capacity_pages = fast_capacity_pages
        self._placement: Dict[int, int] = {}
        self._fast_used = 0
        self._epoch_access: Dict[int, int] = {}
        self._epoch_local = 0
        self._epoch_remote = 0
        self._epoch_index = 0
        self.timeline = Timeline(["migrated", "hit_rate"])

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def place(self, page: int, node: int) -> None:
        """Initial allocation of ``page`` on ``node`` (first touch)."""
        if node not in (FAST_NODE, SLOW_NODE):
            raise ValueError("unknown node")
        if page in self._placement:
            raise ValueError(f"page {page} already placed")
        if node == FAST_NODE:
            if self._fast_used >= self.fast_capacity_pages:
                raise ValueError("fast node full; place on the slow node")
            self._fast_used += 1
        self._placement[page] = node

    def node_of(self, page: int) -> int:
        return self._placement[page]

    def release(self, page: int) -> None:
        node = self._placement.pop(page)
        if node == FAST_NODE:
            self._fast_used -= 1

    @property
    def fast_free_pages(self) -> int:
        return self.fast_capacity_pages - self._fast_used

    # ------------------------------------------------------------------
    # Access recording / balancing
    # ------------------------------------------------------------------

    def record_access(self, page: int, count: int = 1) -> bool:
        """Record ``count`` accesses; returns True when they hit fast."""
        node = self._placement.get(page)
        if node is None:
            raise KeyError(f"page {page} was never placed")
        self._epoch_access[page] = self._epoch_access.get(page, 0) + count
        if node == FAST_NODE:
            self._epoch_local += count
            self.counters.add("autonuma.local_faults", count)
            return True
        self._epoch_remote += count
        self.counters.add("autonuma.remote_faults", count)
        return False

    def end_epoch(self) -> EpochReport:
        """Close the scan epoch: maybe migrate, then reset counters."""
        local, remote = self._epoch_local, self._epoch_remote
        total = local + remote
        hit_rate = local / total if total else 0.0
        migrated = 0
        enomem = 0

        remote_pages = [
            (count, page)
            for page, count in self._epoch_access.items()
            if self._placement[page] == SLOW_NODE
        ]
        # Hotter misplaced pages first, deterministic tie-break on page id.
        remote_pages.sort(key=lambda item: (-item[0], item[1]))
        budget = min(len(remote_pages), self.config.migrations_per_epoch)
        for count, page in remote_pages[:budget]:
            if self._fast_used >= self.fast_capacity_pages:
                enomem += 1
                self.counters.add("autonuma.enomem")
                continue
            self._placement[page] = FAST_NODE
            self._fast_used += 1
            migrated += 1
            self.counters.add("autonuma.migrations")

        report = EpochReport(
            epoch=self._epoch_index,
            local_faults=local,
            remote_faults=remote,
            migrated=migrated,
            enomem_failures=enomem,
            hit_rate=hit_rate,
        )
        self.timeline.sample(
            float(self._epoch_index), migrated=migrated, hit_rate=hit_rate
        )
        self._epoch_index += 1
        self._epoch_access.clear()
        self._epoch_local = 0
        self._epoch_remote = 0
        return report

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def cumulative_hit_rate(self) -> float:
        local = self.counters["autonuma.local_faults"]
        total = local + self.counters["autonuma.remote_faults"]
        return local / total if total else 0.0

"""Server-side accounting: request counters, latency percentiles, and
the ``GET /metrics`` snapshot.

One :class:`ServerMetrics` lives on each
:class:`~repro.serve.server.SimServer`.  The scheduler and dispatcher
record into it as requests move through the lifecycle (the same steps
they emit as :class:`~repro.telemetry.ServeEvent`\\ s), and
:meth:`ServerMetrics.snapshot` renders the whole thing as the JSON the
``/metrics`` endpoint returns — schema pinned by
:data:`METRICS_SCHEMA_VERSION` and the serve test suite.

Latency is tracked as a bounded reservoir of the most recent request
latencies (admit → complete wall seconds), split by how the request
was served: ``served`` (no worker — result cache, completed-job table,
or coalesced onto an existing job) vs ``simulated`` (a dispatch batch
ran it).  The simulated mean also prices admission control's
``Retry-After`` estimate.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict

#: Version of the ``GET /metrics`` payload shape.
#: 2: ``dispatch.kernels`` — dispatched cells by resolved replay
#:    kernel, keyed ``"kernel[reason]"``.
#: 3: ``dispatch.kernels`` counts simulated cells (the executor's own
#:    tally), not dispatched ones: a cache hit inside a batch picks no
#:    kernel.
METRICS_SCHEMA_VERSION = 3

#: How a completed request was served (latency reservoir tags).
SERVED_FAST = "served"        # cache / job-table / coalesced — no worker
SERVED_SIMULATED = "simulated"  # a dispatch batch simulated it

#: Reservoir size: enough for stable p95 at smoke scale without
#: unbounded growth under sustained traffic.
LATENCY_WINDOW = 1024


def percentile(samples: list, fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 for an empty list):
    the smallest sample such that ``fraction`` of the set is <= it."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered)) - 1
    return float(ordered[min(len(ordered) - 1, max(0, rank))])


class ServerMetrics:
    """Counters + latency reservoir for one server instance."""

    def __init__(self, window: int = LATENCY_WINDOW) -> None:
        # Request admission path.
        self.received = 0       # POSTs that parsed into a request
        self.admitted = 0       # new jobs entering the pending queue
        self.coalesced = 0      # duplicates folded onto in-flight jobs
        self.cache_hits = 0     # answered from the ResultCache
        self.job_hits = 0       # answered from the completed-job table
        self.rejected = 0       # admission control said 429
        # Job completion path.
        self.completed = 0
        self.failed = 0
        self.checkpointed = 0   # drained to the queue checkpoint
        self.resumed = 0        # re-queued from a checkpoint on boot
        # Dispatch path.
        self.batches = 0
        self.worker_cells = 0   # cells handed to the sweep executor
        self._latencies: Deque[tuple] = deque(maxlen=window)

    # -- recording -----------------------------------------------------

    def record_latency(self, seconds: float, source: str) -> None:
        self._latencies.append((seconds, source))

    # -- derived -------------------------------------------------------

    @property
    def answered(self) -> int:
        """Requests that got (or will get) a real answer."""
        return self.received - self.rejected

    @property
    def no_worker_hits(self) -> int:
        """Requests served without costing a new executor cell."""
        return self.cache_hits + self.job_hits + self.coalesced

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of answered requests that never needed a worker."""
        if self.answered <= 0:
            return 0.0
        return min(1.0, self.no_worker_hits / self.answered)

    def mean_simulated_seconds(self, default: float = 1.0) -> float:
        """Observed mean simulated-cell latency (``Retry-After``'s
        price basis); ``default`` until anything simulated completes."""
        samples = [
            s for s, source in self._latencies if source == SERVED_SIMULATED
        ]
        return sum(samples) / len(samples) if samples else default

    def latency_block(self) -> Dict[str, Any]:
        all_samples = [s for s, _ in self._latencies]
        sim_samples = [
            s for s, source in self._latencies if source == SERVED_SIMULATED
        ]
        return {
            "count": len(all_samples),
            "p50_ms": round(percentile(all_samples, 0.50) * 1e3, 3),
            "p95_ms": round(percentile(all_samples, 0.95) * 1e3, 3),
            "simulated_p50_ms": round(percentile(sim_samples, 0.50) * 1e3, 3),
            "simulated_p95_ms": round(percentile(sim_samples, 0.95) * 1e3, 3),
        }

    def snapshot(
        self,
        *,
        queue_depth: int,
        in_flight: int,
        kernels: Dict[str, int],
    ) -> Dict[str, Any]:
        """The ``GET /metrics`` payload (see docs/SERVING.md);
        ``kernels`` is the sweep executor's simulated-cell tally by
        replay kernel."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "queue_depth": queue_depth,
            "in_flight": in_flight,
            "requests": {
                "received": self.received,
                "admitted": self.admitted,
                "coalesced": self.coalesced,
                "cache_hits": self.cache_hits,
                "job_hits": self.job_hits,
                "rejected": self.rejected,
            },
            "jobs": {
                "completed": self.completed,
                "failed": self.failed,
                "checkpointed": self.checkpointed,
                "resumed": self.resumed,
            },
            "dispatch": {
                "batches": self.batches,
                "worker_cells": self.worker_cells,
                "kernels": dict(sorted(kernels.items())),
            },
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            "latency": self.latency_block(),
        }


__all__ = [
    "LATENCY_WINDOW",
    "METRICS_SCHEMA_VERSION",
    "SERVED_FAST",
    "SERVED_SIMULATED",
    "ServerMetrics",
    "percentile",
]

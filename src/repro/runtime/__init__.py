"""Fault-tolerant parallel sweep runtime: executor, persistent result
cache, checkpoint journal, deterministic fault injection, metrics.

Every paper figure funnels through a design sweep — up to 15 designs
× 14 workloads of independent, seed-deterministic simulation cells.
This package makes that sweep fast, repeatable, and crash-proof:

* :class:`SweepExecutor` — fans cells out across supervised worker
  processes (``jobs=1`` is the serial degenerate case; results are
  bit-identical at any worker count) with per-job timeouts, bounded
  retries with exponential backoff, worker-crash isolation, and
  graceful degradation to serial execution;
* :class:`ResultCache` — content-addressed on-disk cache keyed by
  ``(Scale, design, workload, repro.__version__)``, surviving across
  processes and CLI invocations, with hit/miss/eviction/corruption
  accounting (a damaged entry is a miss, never an error);
* :class:`SweepJournal` — append-only JSONL checkpoint next to the
  cache; an interrupted sweep resumes and replays only missing cells,
  bit-identical to an uninterrupted run;
* :class:`FaultPlan` — seed-driven injection of worker crashes,
  hangs, transient exceptions, and cache corruption (also via
  ``$REPRO_FAULTS``), keeping the tolerance machinery under test;
* :class:`SweepMetrics` — cells completed, wall time per cell, worker
  utilisation, cache hit rate, retry/timeout/crash/resume counters —
  surfaced by the CLI's ``[runtime]`` summary line.

See docs/RUNTIME.md for the cache-key scheme, the determinism
guarantee, retry semantics, and the journal format.
"""

from repro.runtime.arena import (
    ARENA_BUDGET_ENV,
    ARENA_PREFIX,
    ARENA_SCHEMA_VERSION,
    ArenaView,
    DEFAULT_ARENA_BUDGET,
    TraceArena,
    arena_budget,
    arena_key,
    attach_arena,
)
from repro.runtime.cache import CacheStats, ResultCache, default_cache_dir
from repro.runtime.cells import simulate_cell, timed_cell
from repro.runtime.executor import (
    DEFAULT_DEGRADE_AFTER,
    DEFAULT_RETRIES,
    SweepEvents,
    SweepExecutor,
    SweepResults,
    get_default_executor,
)
from repro.runtime.faults import (
    FAULTS_ENV,
    FAULT_CORRUPT,
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_HANG,
    FAULT_KINDS,
    FaultPlan,
    InjectedFault,
    JobTimeoutError,
    SweepJobError,
    WorkerCrashError,
    apply_fault,
    corrupt_cache_entry,
)
from repro.runtime.journal import SweepJournal
from repro.runtime.metrics import (
    CellStat,
    SweepMetrics,
    print_progress,
)

__all__ = [
    "ARENA_BUDGET_ENV",
    "ARENA_PREFIX",
    "ARENA_SCHEMA_VERSION",
    "ArenaView",
    "CacheStats",
    "CellStat",
    "DEFAULT_ARENA_BUDGET",
    "DEFAULT_DEGRADE_AFTER",
    "DEFAULT_RETRIES",
    "FAULTS_ENV",
    "FAULT_CORRUPT",
    "FAULT_CRASH",
    "FAULT_ERROR",
    "FAULT_HANG",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "JobTimeoutError",
    "ResultCache",
    "SweepEvents",
    "SweepExecutor",
    "SweepJobError",
    "SweepJournal",
    "SweepMetrics",
    "SweepResults",
    "TraceArena",
    "WorkerCrashError",
    "apply_fault",
    "arena_budget",
    "arena_key",
    "attach_arena",
    "corrupt_cache_entry",
    "default_cache_dir",
    "get_default_executor",
    "print_progress",
    "simulate_cell",
    "timed_cell",
]

"""The end-to-end workload simulator.

Replays a multiprogrammed workload against a memory architecture: the
up-front ISA-Alloc stream, a warm-up phase (Section VI-A), then the
measured window, with the 12 per-core access streams merged in global
time order so the device models always see monotonic arrivals.  Designs
whose OS-visible capacity is smaller than the address space get an
LRU-paged resident set charging the Table I SSD fault latency.

Three replay kernels produce bit-identical results:

* the **scalar** kernel — the reference two-phase heap loop that drives
  :meth:`MemoryArchitecture.access` one record at a time; always
  correct;
* the **batched** kernel — consumes the workload's vectorised
  :class:`repro.trace.RecordBatch` chunks, runs a single-phase heap
  over plain tuples, calls the allocation-free
  :meth:`~MemoryArchitecture.access_timing` demand path, and defers all
  counter/histogram accounting to bulk flushes at phase boundaries;
* the **batched-paged** kernel — the batched machinery for pager-backed
  designs: each chunk is split at page-fault boundaries, resident runs
  are pre-translated in one vectorised pass, and faults are serviced on
  the scalar slow path before the fast path resumes (see
  :func:`_run_batched_paged` for the exactness argument).

``kernel="auto"`` (the default) picks the fastest exact kernel — see
:func:`select_kernel`, which also reports *why* as a machine-readable
:class:`KernelDecision` — so callers never trade accuracy for speed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional

from repro.arch.base import MemoryArchitecture
from repro.config import SystemConfig
from repro.cpu import CoreRunStats, MulticoreModel, WorkloadPerformance
from repro.osmodel.vm import PageFaultEngine
from repro.stats import CounterSet
from repro.telemetry.bus import EventBus
from repro.telemetry.events import EpochSample
import heapq

from repro.workloads.multiprog import MultiprogramWorkload

#: Version of the :meth:`SimulationResult.to_dict` wire format.  This is
#: also the on-disk schema of :mod:`repro.runtime`'s result cache, so
#: bump it whenever the dict shape (or the meaning of a field) changes —
#: cached entries written under another version are never deserialised.
RESULT_SCHEMA_VERSION = 1

#: Target number of :class:`repro.telemetry.EpochSample` emissions over
#: the measured window when a telemetry bus is attached.
TELEMETRY_EPOCHS = 20

#: Valid values of :func:`simulate`'s ``kernel`` argument.
KERNELS = ("auto", "batched", "batched-paged", "scalar")

#: Heap-entry kinds of the batched-paged kernel's single-phase heap.
_K_ISSUE = 0
_K_FAULT = 1

#: Deferred-LRU-touch backlog size that triggers a mid-phase compaction
#: in the batched-paged kernel (bounds memory on fault-free runs).
_TOUCH_COMPACT_LIMIT = 1 << 16


class KernelDecision(NamedTuple):
    """Outcome of :func:`select_kernel`: the chosen replay kernel plus
    a stable machine-readable reason.

    Reasons:

    * ``"batch-capable"`` — no pager, architecture and workload both
      support the chunked fast path (``batched``);
    * ``"pager-segmented"`` — an OS pager intercepts the stream, but
      the run can still be split at fault boundaries
      (``batched-paged``);
    * ``"arch-opt-out"`` — the architecture does not support the
      batched demand path (``scalar``);
    * ``"no-stream-batches"`` — the workload cannot produce vectorised
      record chunks (``scalar``).
    """

    kernel: str
    reason: str


@dataclass
class SimulationResult:
    """Everything the experiment runners need from one run."""

    workload: str
    architecture: str
    performance: WorkloadPerformance
    fast_hit_rate: float
    average_latency_ns: float
    swaps: float
    page_faults: int
    counters: CounterSet = field(repr=False)
    cache_mode_fraction: Optional[float] = None

    @property
    def geomean_ipc(self) -> float:
        return self.performance.geomean_ipc

    def average_latency_cycles(self, config: SystemConfig) -> float:
        return config.core.ns_to_cycles(self.average_latency_ns)

    def to_dict(self) -> Dict[str, Any]:
        """Versioned, JSON-safe plain-dict form.

        The round trip through :meth:`from_dict` is lossless (floats
        survive ``json.dumps``/``loads`` exactly), so one schema serves
        both the public API and :mod:`repro.runtime` persistence.
        """
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "workload": self.workload,
            "architecture": self.architecture,
            "performance": self.performance.to_dict(),
            "fast_hit_rate": self.fast_hit_rate,
            "average_latency_ns": self.average_latency_ns,
            "swaps": self.swaps,
            "page_faults": self.page_faults,
            "counters": self.counters.to_dict(),
            "cache_mode_fraction": self.cache_mode_fraction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions."""
        schema = data.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported SimulationResult schema {schema!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        return cls(
            workload=data["workload"],
            architecture=data["architecture"],
            performance=WorkloadPerformance.from_dict(data["performance"]),
            fast_hit_rate=data["fast_hit_rate"],
            average_latency_ns=data["average_latency_ns"],
            swaps=data["swaps"],
            page_faults=data["page_faults"],
            counters=CounterSet.from_dict(data["counters"]),
            cache_mode_fraction=data["cache_mode_fraction"],
        )


def select_kernel(
    architecture: MemoryArchitecture,
    workload: Optional[MultiprogramWorkload],
    pager_present: bool,
) -> KernelDecision:
    """Pick the replay kernel that is exact for this run.

    Three-way decision, returned as a :class:`KernelDecision` (a
    ``(kernel, reason)`` named tuple):

    * the architecture must opt in via
      :attr:`~MemoryArchitecture.supports_batch_kernel` and the
      workload must expose ``stream_batches`` (vectorised record
      chunks), otherwise the **scalar** reference loop runs;
    * with both preconditions met, a pager-backed run (OS-visible
      capacity below the address space) takes the **batched-paged**
      kernel — the chunked fast path segmented at page-fault
      boundaries — and a pager-free run takes the plain **batched**
      kernel.

    ``workload`` may be ``None`` for label-level decisions made before
    a workload is built (the CLI trailer, the serve metrics endpoint);
    every shipped workload provides ``stream_batches``, so ``None`` is
    treated as batch-capable.

    All kernels are held bit-identical by the parity suite, so the
    choice is purely about speed.
    """
    if not getattr(architecture, "supports_batch_kernel", False):
        return KernelDecision("scalar", "arch-opt-out")
    if workload is not None and not hasattr(workload, "stream_batches"):
        return KernelDecision("scalar", "no-stream-batches")
    if pager_present:
        return KernelDecision("batched-paged", "pager-segmented")
    return KernelDecision("batched", "batch-capable")


def _require_batch_capable(
    architecture: MemoryArchitecture,
    workload: MultiprogramWorkload,
    kernel: str,
) -> None:
    """Raise when a forced batched-family kernel's shared preconditions
    (architecture opt-in, vectorised workload chunks) do not hold."""
    if not getattr(architecture, "supports_batch_kernel", False):
        raise ValueError(
            f"{architecture.name} opts out of the {kernel} kernel"
        )
    if not hasattr(workload, "stream_batches"):
        raise ValueError(
            "workload does not provide stream_batches(); "
            f"the {kernel} kernel needs vectorised record chunks"
        )


def simulate(
    architecture: MemoryArchitecture,
    workload: MultiprogramWorkload,
    accesses_per_core: int,
    apply_isa: bool = True,
    warmup_per_core: int | None = None,
    telemetry: EventBus | None = None,
    kernel: str = "auto",
) -> SimulationResult:
    """Run ``workload`` on ``architecture`` and summarise.

    Follows the paper's methodology: the workload's footprint is fully
    allocated up front (one ISA-Alloc per segment for co-designed
    hardware), the remap tables and caches are warmed with
    ``warmup_per_core`` unmeasured accesses per core (default: half the
    measured count — "our workloads are fast-forwarded ... and caches
    are warmed-up", Section VI-A), then a fixed number of post-LLC
    accesses per core is replayed, interleaved across the 12 cores in
    global time order.  When the footprint exceeds the design's
    OS-visible capacity, an LRU-paged resident set charges the Table I
    SSD fault latency and remaps faulted pages into the visible range.

    ``kernel`` selects the replay loop: ``"auto"`` (default) follows
    :func:`select_kernel`, ``"scalar"`` forces the reference loop, and
    ``"batched"`` / ``"batched-paged"`` force the respective fast path
    (raising :class:`ValueError` when its preconditions do not hold —
    ``batched`` needs a pager-free design, ``batched-paged`` a
    pager-backed one).  Results are bit-identical in every case.
    """
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    config = workload.config
    if warmup_per_core is None:
        warmup_per_core = accesses_per_core // 2
    # Telemetry is observational: attaching a bus must not perturb the
    # simulation (a dedicated regression test holds results
    # bit-identical with telemetry on and off).  The architecture's
    # prior bus is restored on exit so one architecture instance can be
    # reused across runs without leaking the caller's bus.
    emit = telemetry is not None and telemetry.enabled
    prior_bus = architecture.telemetry
    if emit:
        architecture.telemetry = telemetry
    try:
        return _simulate(
            architecture,
            workload,
            config,
            accesses_per_core,
            warmup_per_core,
            apply_isa,
            telemetry,
            emit,
            kernel,
        )
    finally:
        if emit:
            architecture.telemetry = prior_bus


def _simulate(
    architecture: MemoryArchitecture,
    workload: MultiprogramWorkload,
    config: SystemConfig,
    accesses_per_core: int,
    warmup_per_core: int,
    apply_isa: bool,
    telemetry: EventBus | None,
    emit: bool,
    kernel: str,
) -> SimulationResult:
    if apply_isa:
        workload.apply_allocations(architecture)

    # OS address translation / paging: designs whose OS-visible capacity
    # is smaller than the workload's address space (caches, small flat
    # baselines) get an LRU pager that both maps pages into the visible
    # range and charges SSD faults when the footprint overflows it.
    pager: Optional[PageFaultEngine] = None
    if architecture.os_visible_bytes < config.total_capacity_bytes:
        pager = PageFaultEngine(
            capacity_bytes=architecture.os_visible_bytes,
            page_bytes=config.page_bytes,
            fault_latency_cycles=config.page_fault_latency_cycles,
            telemetry=telemetry,
        )
        # The allocation phase touched the whole footprint once, so a
        # footprint larger than the visible capacity starts execution
        # with its coldest pages already swapped out.
        pager.prime(
            segment * config.segment_bytes for segment in workload.segments
        )

    if kernel == "auto":
        kernel = select_kernel(architecture, workload, pager is not None).kernel
    elif kernel == "batched":
        if pager is not None:
            raise ValueError(
                "batched kernel cannot replay pager-backed designs "
                f"({architecture.name} needs OS paging); use "
                "kernel='auto' or kernel='batched-paged'"
            )
        _require_batch_capable(architecture, workload, kernel)
    elif kernel == "batched-paged":
        if pager is None:
            raise ValueError(
                "batched-paged kernel needs an OS pager "
                f"({architecture.name} is not pager-backed); "
                "use kernel='auto'"
            )
        _require_batch_capable(architecture, workload, kernel)

    per_core = [CoreRunStats() for _ in range(workload.num_copies)]
    # Closed-loop timing: each core carries its own clock, advanced by
    # the instruction gap, by page-fault stalls, and by the
    # MLP-overlapped share of each miss latency — so cores naturally
    # throttle when the memory system backs up instead of piling
    # unbounded queueing onto the devices.
    # Accesses are issued in global time order (a heap over the per-core
    # clocks), so the device models always see monotonic arrivals and a
    # core that stalls on faults or slow memory naturally falls behind.
    core_clock_ns = [0.0] * workload.num_copies

    # Epoch sampling: every ``epoch_every`` measured device accesses the
    # engine snapshots its cumulative counters onto the bus.  The value
    # is 0 when telemetry is off, so the hot loop pays one false branch.
    total_measured = accesses_per_core * workload.num_copies
    epoch_every = (
        max(1, total_measured // TELEMETRY_EPOCHS) if emit else 0
    )

    if kernel == "batched":
        _run_batched(
            architecture,
            workload,
            config,
            accesses_per_core,
            warmup_per_core,
            per_core,
            core_clock_ns,
            telemetry,
            epoch_every,
        )
    elif kernel == "batched-paged":
        _run_batched_paged(
            architecture,
            workload,
            config,
            accesses_per_core,
            warmup_per_core,
            per_core,
            core_clock_ns,
            pager,
            telemetry,
            epoch_every,
        )
    else:
        _run_scalar(
            architecture,
            workload,
            config,
            accesses_per_core,
            warmup_per_core,
            per_core,
            core_clock_ns,
            pager,
            telemetry,
            epoch_every,
        )

    model = MulticoreModel(config)
    performance = model.summarize(workload.name, per_core)
    cache_fraction = None
    mode_distribution = getattr(architecture, "mode_distribution", None)
    if callable(mode_distribution):
        cache_fraction = mode_distribution()[0]
    return SimulationResult(
        workload=workload.name,
        architecture=architecture.name,
        performance=performance,
        fast_hit_rate=architecture.fast_hit_rate,
        average_latency_ns=architecture.average_latency_ns,
        swaps=architecture.swap_count,
        page_faults=performance.page_faults,
        counters=architecture.counters,
        cache_mode_fraction=cache_fraction,
    )


def _run_scalar(
    architecture: MemoryArchitecture,
    workload: MultiprogramWorkload,
    config: SystemConfig,
    accesses_per_core: int,
    warmup_per_core: int,
    per_core: List[CoreRunStats],
    core_clock_ns: List[float],
    pager: Optional[PageFaultEngine],
    telemetry: EventBus | None,
    epoch_every: int,
) -> None:
    """Reference replay loop: one record at a time, two-phase heap."""
    ns_per_instruction = config.ns_per_instruction
    fault_ns = config.core.cycles_to_ns(config.page_fault_latency_cycles)
    mlp = config.core.mlp

    streams = [
        iter(s) for s in workload.streams(warmup_per_core + accesses_per_core)
    ]

    epoch_state = {"issued": 0, "epoch": 0}

    def emit_epoch(now_ns: float) -> None:
        epoch_state["epoch"] += 1
        counters = architecture.counters
        telemetry.emit(
            EpochSample(
                time_ns=now_ns,
                epoch=epoch_state["epoch"],
                accesses=counters["arch.accesses"],
                fast_hits=counters["arch.fast_hits"],
                swaps=counters["swap.swaps"],
                faults=pager.page_faults if pager is not None else 0,
            )
        )

    def run_phase(budget_per_core: int, record_stats: bool) -> None:
        # Two-phase scheduling: popping a core first *prepares* its next
        # access (advancing its clock past the instruction gap and any
        # page fault) and re-queues it at the prepared issue time; the
        # access is only presented to the devices when that time is the
        # global minimum, so device arrivals stay monotonic even across
        # fault jumps.
        if budget_per_core <= 0:
            return
        remaining = [budget_per_core] * workload.num_copies
        prepared: list[Optional[tuple]] = [None] * workload.num_copies
        heap: list[tuple[float, int]] = sorted(
            (core_clock_ns[core], core)
            for core in range(workload.num_copies)
        )
        while heap:
            issue_ns, core = heapq.heappop(heap)
            pending = prepared[core]
            if pending is None:
                if remaining[core] <= 0:
                    continue
                record = next(streams[core], None)
                if record is None:
                    continue
                remaining[core] -= 1
                stats = per_core[core]
                if record_stats:
                    stats.instructions += record.icount_gap
                clock = core_clock_ns[core] + (
                    record.icount_gap * ns_per_instruction
                )
                address = record.address
                if pager is not None:
                    fault_cycles, address = pager.access_translate(
                        record.address, now_ns=clock
                    )
                    if fault_cycles:
                        if record_stats:
                            stats.page_faults += 1
                            stats.fault_cycles += fault_cycles
                        clock += fault_ns
                prepared[core] = (address, record.is_write)
                core_clock_ns[core] = clock
                heapq.heappush(heap, (clock, core))
                continue

            prepared[core] = None
            address, is_write = pending
            result = architecture.access(address, issue_ns, is_write)
            if record_stats:
                stats = per_core[core]
                stats.memory_accesses += 1
                stats.memory_latency_ns += result.latency_ns
                if epoch_every:
                    epoch_state["issued"] += 1
                    if epoch_state["issued"] % epoch_every == 0:
                        emit_epoch(issue_ns)
            core_clock_ns[core] = issue_ns + result.latency_ns / mlp
            heapq.heappush(heap, (core_clock_ns[core], core))

    run_phase(warmup_per_core, record_stats=False)
    architecture.counters.reset()
    run_phase(accesses_per_core, record_stats=True)
    if epoch_every and epoch_state["issued"] % epoch_every:
        # Flush the trailing partial epoch so the recorded timeline
        # covers the full measured window.
        emit_epoch(max(core_clock_ns))


def _run_batched(
    architecture: MemoryArchitecture,
    workload: MultiprogramWorkload,
    config: SystemConfig,
    accesses_per_core: int,
    warmup_per_core: int,
    per_core: List[CoreRunStats],
    core_clock_ns: List[float],
    telemetry: EventBus | None,
    epoch_every: int,
) -> None:
    """Chunked fast-path replay loop (pager-absent designs only).

    Bit-identical to :func:`_run_scalar` by construction:

    * **Issue order** — without a pager, preparing an access touches
      only the core's own stream and clock, so the scalar two-phase
      heap issues accesses in exactly sorted ``(prepared_time, core)``
      order.  This loop keeps one heap entry per core — its next
      prepared access — and pops the global minimum, reproducing that
      order (ties break on the unique core index in both loops).  The
      pop and the push of the core's next access are one
      ``heapreplace`` of the peeked minimum: with unique ``(time,
      core)`` keys the pop order is that of pop-then-push.
    * **Clock arithmetic** — the same two float operations per access
      in the same order: ``issue = clock + gap * ns_per_instruction``
      then ``clock = issue + latency / mlp``.
    * **Stream consumption** — each core's records are fetched in
      per-core order; the per-core generators are independent, so the
      interleaving of fetches across cores (which differs from the
      scalar loop) cannot change any record.
    * **Accounting** — latencies are collected in global issue order
      and folded into the counters/histogram by the bulk accumulators,
      whose per-key fold order matches per-access recording exactly
      (see :meth:`MemoryArchitecture.record_access_batch` and
      :meth:`repro.dram.DramDevice.flush_deferred_stats`).  Deferred
      device and policy tallies are flushed *before*
      ``counters.reset()`` so the measured window starts from the same
      state as the scalar loop; warmup latencies feed only the
      histogram, which the reset does not clear.
    """
    ns_per_instruction = config.ns_per_instruction
    mlp = config.core.mlp
    num_cores = workload.num_copies
    counters = architecture.counters
    timing = architecture.access_timing
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace

    batch_streams = workload.stream_batches(
        warmup_per_core + accesses_per_core
    )
    # Per-core chunk cursors over the vectorised record stream.  Columns
    # are materialised as plain Python lists once per chunk — scalar
    # indexing into a list is several times faster than into a NumPy
    # array, and ``.tolist()`` yields exact Python ints/bools.
    addr_cols: List[Optional[list]] = [None] * num_cores
    gap_cols: List[Optional[list]] = [None] * num_cores
    write_cols: List[Optional[list]] = [None] * num_cores
    positions = [0] * num_cores
    lengths = [0] * num_cores

    def fetch(core: int):
        """Next ``(address, icount_gap, is_write)`` of ``core``'s
        stream, refilling the chunk cursor as needed."""
        pos = positions[core]
        while pos >= lengths[core]:
            batch = next(batch_streams[core], None)
            if batch is None:
                return None
            addr_cols[core] = batch.addresses.tolist()
            gap_cols[core] = batch.icount_gaps.tolist()
            write_cols[core] = batch.is_writes.tolist()
            lengths[core] = len(addr_cols[core])
            pos = 0
        positions[core] = pos + 1
        return addr_cols[core][pos], gap_cols[core][pos], write_cols[core][pos]

    epoch_state = {"epoch": 0}

    def run_phase(budget_per_core: int, record_stats: bool) -> None:
        if budget_per_core <= 0:
            return
        remaining = [budget_per_core] * num_cores
        # Engine-local accumulators, flushed in bulk at phase end: the
        # global-order latency trail (counters + histogram) and the
        # per-core tallies (CoreRunStats fields start at zero, so a
        # local fold from 0.0 lands on the same bits as the scalar
        # loop's per-access ``+=``).
        latencies: List[float] = []
        append = latencies.append
        fast_hits = 0
        issued = 0
        inst = [0] * num_cores
        nacc = [0] * num_cores
        mlat = [0.0] * num_cores
        # Single-phase heap: one entry per core holding its next
        # prepared access.  Entries never tie beyond the core index, so
        # the payload fields are never compared.
        heap: List[tuple] = []
        for core in range(num_cores):
            fetched = fetch(core)
            if fetched is None:
                continue
            remaining[core] -= 1
            address, gap, is_write = fetched
            heappush(
                heap,
                (
                    core_clock_ns[core] + gap * ns_per_instruction,
                    core,
                    address,
                    is_write,
                    gap,
                ),
            )
        while heap:
            issue_ns, core, address, is_write, gap = heap[0]
            latency_ns, fast_hit = timing(address, issue_ns, is_write)
            append(latency_ns)
            if fast_hit:
                fast_hits += 1
            clock = issue_ns + latency_ns / mlp
            core_clock_ns[core] = clock
            if record_stats:
                inst[core] += gap
                nacc[core] += 1
                mlat[core] += latency_ns
                if epoch_every:
                    issued += 1
                    if issued % epoch_every == 0:
                        epoch_state["epoch"] += 1
                        # Counter updates are deferred, so the snapshot
                        # is built from the engine's own exact tallies
                        # (they equal the live counters of the scalar
                        # loop at the same point).
                        telemetry.emit(
                            EpochSample(
                                time_ns=issue_ns,
                                epoch=epoch_state["epoch"],
                                accesses=float(issued),
                                fast_hits=float(fast_hits),
                                swaps=counters["swap.swaps"],
                                faults=0,
                            )
                        )
            if remaining[core] > 0:
                # Inlined ``fetch`` fast case — the chunk cursor almost
                # always has the next record in hand; the function call
                # is paid only on refill.
                pos = positions[core]
                if pos < lengths[core]:
                    remaining[core] -= 1
                    positions[core] = pos + 1
                    gap = gap_cols[core][pos]
                    heapreplace(
                        heap,
                        (
                            clock + gap * ns_per_instruction,
                            core,
                            addr_cols[core][pos],
                            write_cols[core][pos],
                            gap,
                        ),
                    )
                    continue
                fetched = fetch(core)
                if fetched is not None:
                    remaining[core] -= 1
                    address, gap, is_write = fetched
                    heapreplace(
                        heap,
                        (
                            clock + gap * ns_per_instruction,
                            core,
                            address,
                            is_write,
                            gap,
                        ),
                    )
                    continue
            heappop(heap)

        if record_stats:
            architecture.record_access_batch(latencies, fast_hits)
            for core in range(num_cores):
                stats = per_core[core]
                stats.instructions = inst[core]
                stats.memory_accesses = nacc[core]
                stats.memory_latency_ns = mlat[core]
            epoch_state["issued"] = issued
            epoch_state["fast_hits"] = fast_hits
        else:
            # ``counters.reset()`` discards a warmup arch.* fold; only
            # the never-reset latency histogram keeps these outcomes.
            architecture.latency_histogram.observe_array(latencies)

    architecture.begin_batch_stats()
    try:
        run_phase(warmup_per_core, record_stats=False)
        # Publish warmup tallies before the reset wipes them — exactly
        # what the scalar loop's per-access updates amount to — so the
        # measured window starts from a clean slate while the (never
        # reset) latency histogram keeps its warmup observations.
        architecture.flush_batch_stats()
        architecture.counters.reset()
        run_phase(accesses_per_core, record_stats=True)
    finally:
        architecture.end_batch_stats()

    issued = epoch_state.get("issued", 0)
    if epoch_every and issued % epoch_every:
        epoch_state["epoch"] += 1
        telemetry.emit(
            EpochSample(
                time_ns=max(core_clock_ns),
                epoch=epoch_state["epoch"],
                accesses=float(issued),
                fast_hits=float(epoch_state["fast_hits"]),
                swaps=counters["swap.swaps"],
                faults=0,
            )
        )


def _run_batched_paged(
    architecture: MemoryArchitecture,
    workload: MultiprogramWorkload,
    config: SystemConfig,
    accesses_per_core: int,
    warmup_per_core: int,
    per_core: List[CoreRunStats],
    core_clock_ns: List[float],
    pager: PageFaultEngine,
    telemetry: EventBus | None,
    epoch_every: int,
) -> None:
    """Fault-segmented chunked replay for pager-backed designs.

    Splits each per-core record chunk at page-fault boundaries: runs of
    resident lanes are pre-translated in one vectorised
    :meth:`~repro.osmodel.vm.PageFaultEngine.translate_batch` pass and
    issued through the same single-phase heap as :func:`_run_batched`;
    the first non-resident lane is serviced on the scalar slow path
    (exact fault-cycle accounting, event emission, LRU eviction), after
    which the fast path resumes.  Bit-identical to :func:`_run_scalar`:

    * **Pager mutation order** — the scalar loop touches the pager at
      each access's *prepare* pop, keyed ``(core clock after previous
      issue, core)``.  Fault lanes enter the heap as dedicated entries
      at exactly that key, so faults/evictions interleave with other
      cores' work in scalar order.  Resident lanes' only pager effect
      is an LRU ``move_to_end``; those are deferred as ``(prepare key,
      core, page)`` touch records and replayed in sorted key order
      before every eviction decision (and at phase end), which leaves
      the LRU identical at every point where its order is observable.
    * **Stale translations** — a resident lane pre-translated before an
      eviction of its page would use a frame the scalar loop re-faults
      on (its prepare key sorts after the fault).  Such in-flight
      entries are exactly the deferred touches past the fault key, so
      the eviction path diverts them back to the slow path at their
      recorded prepare keys.  Conversely, an access *prepared before*
      the eviction keeps its stale frame — precisely what the scalar
      loop does.  Cached column translations are revalidated against
      the pager's eviction epoch; insertions never invalidate a cached
      frame (a stale fault horizon just resolves as a resident hit on
      the slow path, as in the scalar loop).
    * **Clocks and accounting** — identical float operations in
      identical order (``gaps_ns`` is precomputed per chunk but
      bit-equal per record), engine-local accumulators flushed in bulk
      as in :func:`_run_batched`, and live ``pager.page_faults`` for
      epoch samples since fault counters advance at correctly-ordered
      heap pops.
    """
    ns_per_instruction = config.ns_per_instruction
    fault_ns = config.core.cycles_to_ns(config.page_fault_latency_cycles)
    mlp = config.core.mlp
    num_cores = workload.num_copies
    counters = architecture.counters
    timing = architecture.access_timing
    access_translate = pager.access_translate
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    page_bytes = pager.page_bytes

    batch_streams = workload.stream_batches(
        warmup_per_core + accesses_per_core
    )
    # Per-core chunk cursors (as in _run_batched) plus a translation
    # cache over the current chunk: physical/page columns for the
    # resident run starting at ``trans_base`` and ending at ``horizon``
    # (the first non-resident lane), valid while ``stamp`` matches the
    # pager's eviction epoch.
    addr_np: List[Any] = [None] * num_cores
    gap_cols: List[Optional[list]] = [None] * num_cores
    gapns_cols: List[Optional[list]] = [None] * num_cores
    write_cols: List[Optional[list]] = [None] * num_cores
    positions = [0] * num_cores
    lengths = [0] * num_cores
    phys_cols: List[Optional[list]] = [None] * num_cores
    page_cols: List[Optional[list]] = [None] * num_cores
    trans_base = [0] * num_cores
    horizon = [0] * num_cores
    stamp = [-1] * num_cores

    def retranslate(core: int, pos: int) -> None:
        physical, pages, n_resident = pager.translate_batch(
            addr_np[core][pos:]
        )
        phys_cols[core] = physical.tolist()
        page_cols[core] = pages.tolist()
        trans_base[core] = pos
        horizon[core] = pos + n_resident
        stamp[core] = pager.epoch

    epoch_state = {"epoch": 0}

    def run_phase(budget_per_core: int, record_stats: bool) -> None:
        if budget_per_core <= 0:
            return
        remaining = [budget_per_core] * num_cores
        latencies: List[float] = []
        append = latencies.append
        fast_hits = 0
        issued = 0
        inst = [0] * num_cores
        nacc = [0] * num_cores
        mlat = [0.0] * num_cores
        pfault = [0] * num_cores
        fcycles = [0] * num_cores
        # Deferred LRU touches of fast-path lanes: (prepare key ns,
        # core, page).  Per-core keys strictly increase and cores break
        # ties, so entries are unique and sort deterministically
        # without ever comparing the page.
        pending: List[tuple] = []
        pending_append = pending.append
        fastpath_hits = 0
        heap: List[tuple] = []
        # Pager eviction epoch, mirrored into a local: it only advances
        # inside the slow-path access_translate calls below, so the hot
        # issue loop revalidates translations against a plain int.
        cur_epoch = pager.epoch

        def apply_touches(limit: Optional[tuple]) -> None:
            """Replay deferred LRU touches in global key order — all of
            them (``limit=None``, phase end) or those strictly before a
            fault's ``(time_ns, core)`` heap key."""
            if not pending:
                return
            pending.sort()
            cut = (
                len(pending)
                if limit is None
                else bisect.bisect_left(pending, limit)
            )
            if cut:
                pager.touch_resident_many(
                    [entry[2] for entry in pending[:cut]]
                )
                del pending[:cut]

        def refill(core: int, clock: float) -> bool:
            batch = next(batch_streams[core], None)
            if batch is None:
                return False
            addr_np[core] = batch.addresses
            gap_cols[core] = batch.icount_gaps.tolist()
            gapns_cols[core] = batch.gaps_ns(ns_per_instruction).tolist()
            write_cols[core] = batch.is_writes.tolist()
            lengths[core] = len(gap_cols[core])
            positions[core] = 0
            retranslate(core, 0)
            # Compaction: on (nearly) fault-free runs nothing drains
            # the touch backlog mid-phase, so periodically apply the
            # prefix that can no longer precede any eviction — every
            # future fault pops at or after the heap minimum and at or
            # after this core's next entry (keyed >= ``clock``).
            if len(pending) >= _TOUCH_COMPACT_LIMIT:
                floor = min(clock, heap[0][0]) if heap else clock
                apply_touches((floor, -1))
            return True

        def push_next(core: int, clock: float) -> bool:
            """Queue ``core``'s next access: a pre-translated issue
            entry for resident lanes, or a fault entry keyed at the
            prepare time for the lane at the fault horizon."""
            nonlocal fastpath_hits
            pos = positions[core]
            while pos >= lengths[core]:
                if not refill(core, clock):
                    return False
                pos = 0
            positions[core] = pos + 1
            if (
                stamp[core] != cur_epoch
                or pos < trans_base[core]
                or pos > horizon[core]
            ):
                retranslate(core, pos)
            if pos < horizon[core]:
                index = pos - trans_base[core]
                page = page_cols[core][index]
                pending_append((clock, core, page))
                fastpath_hits += 1
                heappush(
                    heap,
                    (
                        clock + gapns_cols[core][pos],
                        core,
                        _K_ISSUE,
                        phys_cols[core][index],
                        write_cols[core][pos],
                        gap_cols[core][pos],
                    ),
                )
            else:
                heappush(
                    heap,
                    (
                        clock,
                        core,
                        _K_FAULT,
                        int(addr_np[core][pos]),
                        gap_cols[core][pos],
                        gapns_cols[core][pos],
                        write_cols[core][pos],
                    ),
                )
            return True

        def divert_stale(victim: int) -> None:
            """An eviction invalidated ``victim``'s frame: any other
            core's in-flight pre-translated access to it (exactly the
            deferred touches past the fault key) must re-enter the heap
            as a fault entry at its recorded prepare key — the scalar
            loop prepares those accesses after this fault and re-faults
            them."""
            stale = [entry for entry in pending if entry[2] == victim]
            if not stale:
                return
            nonlocal fastpath_hits
            stale_cores = set()
            converted = []
            for entry in stale:
                pending.remove(entry)
                fastpath_hits -= 1
                prep_ns, other, _ = entry
                stale_cores.add(other)
                lane = positions[other] - 1
                converted.append(
                    (
                        prep_ns,
                        other,
                        _K_FAULT,
                        int(addr_np[other][lane]),
                        gap_cols[other][lane],
                        gapns_cols[other][lane],
                        write_cols[other][lane],
                    )
                )
            heap[:] = [
                entry for entry in heap if entry[1] not in stale_cores
            ] + converted
            heapq.heapify(heap)

        for core in range(num_cores):
            if push_next(core, core_clock_ns[core]):
                remaining[core] -= 1

        while heap:
            entry = heap[0]
            if entry[2] == _K_FAULT:
                # Slow-path lane, popped at its scalar prepare key: the
                # pager sees faults, evictions, and (stale-horizon)
                # resident hits in exactly the reference order.  It
                # leaves the heap first: ``divert_stale`` rebuilds it.
                heappop(heap)
                prep_ns, core, _, address, gap, gapns, is_write = entry
                apply_touches((prep_ns, core))
                clock = prep_ns + gapns
                page = address // page_bytes
                victim = None
                if not pager.is_resident(page):
                    victim = pager.eviction_candidate()
                fault_cycles, physical = access_translate(
                    address, now_ns=clock
                )
                cur_epoch = pager.epoch
                if fault_cycles:
                    if record_stats:
                        pfault[core] += 1
                        fcycles[core] += fault_cycles
                    clock += fault_ns
                if victim is not None:
                    divert_stale(victim)
                core_clock_ns[core] = clock
                heappush(
                    heap, (clock, core, _K_ISSUE, physical, is_write, gap)
                )
                continue

            issue_ns, core, _, address, is_write, gap = entry
            latency_ns, fast_hit = timing(address, issue_ns, is_write)
            append(latency_ns)
            if fast_hit:
                fast_hits += 1
            clock = issue_ns + latency_ns / mlp
            core_clock_ns[core] = clock
            if record_stats:
                inst[core] += gap
                nacc[core] += 1
                mlat[core] += latency_ns
                if epoch_every:
                    issued += 1
                    if issued % epoch_every == 0:
                        epoch_state["epoch"] += 1
                        # Engine tallies stand in for the deferred
                        # architecture counters; the pager's fault
                        # counter is live and correctly ordered, so it
                        # is read directly (as the scalar loop does).
                        telemetry.emit(
                            EpochSample(
                                time_ns=issue_ns,
                                epoch=epoch_state["epoch"],
                                accesses=float(issued),
                                fast_hits=float(fast_hits),
                                swaps=counters["swap.swaps"],
                                faults=pager.page_faults,
                            )
                        )
            if remaining[core] > 0:
                # Inlined fast path of push_next (profile-driven, as in
                # _run_batched's chunk cursor): a mid-chunk lane with a
                # valid translation strictly below the fault horizon
                # queues without the function call.
                pos = positions[core]
                if (
                    pos < lengths[core]
                    and stamp[core] == cur_epoch
                    and trans_base[core] <= pos < horizon[core]
                ):
                    positions[core] = pos + 1
                    index = pos - trans_base[core]
                    pending_append((clock, core, page_cols[core][index]))
                    fastpath_hits += 1
                    heapreplace(
                        heap,
                        (
                            clock + gapns_cols[core][pos],
                            core,
                            _K_ISSUE,
                            phys_cols[core][index],
                            write_cols[core][pos],
                            gap_cols[core][pos],
                        ),
                    )
                    remaining[core] -= 1
                    continue
                # ``push_next`` may read the heap minimum (touch-backlog
                # compaction), so the issued entry leaves first.
                heappop(heap)
                if push_next(core, clock):
                    remaining[core] -= 1
            else:
                heappop(heap)

        # Phase barrier: every remaining recency update lands before
        # anything from the next phase (the scalar loop performed them
        # during this phase), and the fast-path resident hits are
        # folded into the pager's (integer) counter in bulk.
        apply_touches(None)
        pager.note_resident_hits(fastpath_hits)
        if record_stats:
            architecture.record_access_batch(latencies, fast_hits)
            for core in range(num_cores):
                stats = per_core[core]
                stats.instructions = inst[core]
                stats.memory_accesses = nacc[core]
                stats.memory_latency_ns = mlat[core]
                stats.page_faults = pfault[core]
                stats.fault_cycles = float(fcycles[core])
            epoch_state["issued"] = issued
            epoch_state["fast_hits"] = fast_hits
        else:
            architecture.latency_histogram.observe_array(latencies)

    architecture.begin_batch_stats()
    try:
        run_phase(warmup_per_core, record_stats=False)
        architecture.flush_batch_stats()
        architecture.counters.reset()
        run_phase(accesses_per_core, record_stats=True)
    finally:
        architecture.end_batch_stats()

    issued = epoch_state.get("issued", 0)
    if epoch_every and issued % epoch_every:
        epoch_state["epoch"] += 1
        telemetry.emit(
            EpochSample(
                time_ns=max(core_clock_ns),
                epoch=epoch_state["epoch"],
                accesses=float(issued),
                fast_hits=float(epoch_state["fast_hits"]),
                swaps=counters["swap.swaps"],
                faults=pager.page_faults,
            )
        )

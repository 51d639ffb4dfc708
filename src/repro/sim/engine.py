"""The end-to-end workload simulator.

Replays a multiprogrammed workload against a memory architecture: the
up-front ISA-Alloc stream, a warm-up phase (Section VI-A), then the
measured window, with the 12 per-core access streams merged in global
time order so the device models always see monotonic arrivals.  Designs
whose OS-visible capacity is smaller than the address space get an
LRU-paged resident set charging the Table I SSD fault latency.

Two replay loops produce bit-identical results:

* the **scalar** kernel — the reference two-phase heap loop that drives
  :meth:`MemoryArchitecture.access` one record at a time;
* the **chunked** kernel — consumes the workload's vectorised
  :class:`repro.trace.RecordBatch` chunks through a single-phase heap,
  calls the allocation-free :meth:`~MemoryArchitecture.access_timing`
  demand path and defers all counter/histogram accounting to bulk
  flushes at phase boundaries.  With a pager it splits each chunk at
  page-fault boundaries and services faults on the scalar slow path
  (see :func:`_run_chunked` for the exactness argument).

``kernel="auto"`` (the default) runs the chunked kernel.  Its two cases
keep their labels — ``batched`` without a pager, ``batched-paged`` with
one — which :func:`select_kernel` reports as a :class:`KernelDecision`.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional

from repro.arch.base import MemoryArchitecture
from repro.config import SystemConfig
from repro.cpu import CoreRunStats, MulticoreModel, WorkloadPerformance
from repro.osmodel.vm import PageFaultEngine
from repro.stats import CounterSet
from repro.telemetry.bus import EventBus
from repro.telemetry.events import EpochSample
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

#: Deferred-LRU-touch backlog size that triggers a mid-phase compaction
#: in the chunked kernel (bounds memory on fault-free paged runs).
_TOUCH_COMPACT_LIMIT = 1 << 16


class KernelDecision(NamedTuple):
    """Outcome of :func:`select_kernel`: the chunked kernel's case plus
    a stable machine-readable reason.

    * ``("batched", "batch-capable")`` — no pager;
    * ``("batched-paged", "pager-segmented")`` — an OS pager intercepts
      the stream, so the run is split at page-fault boundaries.
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
    """Name the chunked kernel's case for a run, as a
    :class:`KernelDecision` (a ``(kernel, reason)`` named tuple).

    The decision depends only on ``pager_present`` (OS-visible capacity
    below the address space); ``architecture`` and ``workload`` are
    kept for existing callers.  Every kernel is held bit-identical to
    the scalar reference by the parity suite, so the label is purely
    about speed.
    """
    if pager_present:
        return KernelDecision("batched-paged", "pager-segmented")
    return KernelDecision("batched", "batch-capable")


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

    ``kernel`` selects the replay loop: ``"auto"`` (default) runs the
    chunked kernel, ``"scalar"`` the reference loop.  ``"batched"`` and
    ``"batched-paged"`` also run the chunked kernel but assert its case,
    raising :class:`ValueError` when the design is pager-backed or
    pager-free respectively.  Results are bit-identical in every case.
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

    if kernel == "batched" and pager is not None:
        raise ValueError(
            "batched kernel cannot replay pager-backed designs "
            f"({architecture.name} needs OS paging); use "
            "kernel='auto' or kernel='batched-paged'"
        )
    if kernel == "batched-paged" and pager is None:
        raise ValueError(
            "batched-paged kernel needs an OS pager "
            f"({architecture.name} is not pager-backed); "
            "use kernel='auto'"
        )

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

    run = _run_scalar if kernel == "scalar" else _run_chunked
    run(
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



def _run_chunked(
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
    """Chunked fast-path replay loop, with or without an OS pager.

    Consumes the workload's vectorised :class:`repro.trace.RecordBatch`
    chunks through a single-phase heap holding one entry per core — its
    next prepared access — calls the allocation-free
    :meth:`~MemoryArchitecture.access_timing` demand path, and defers all
    counter/histogram accounting to bulk flushes at phase boundaries.
    Each core issues straight from its chunk up to a *horizon*: the
    chunk end or the end of its phase budget, whichever comes first.
    Without a pager the physical column is the address column.  With
    one, a vectorised
    :meth:`~repro.osmodel.vm.PageFaultEngine.translate_batch` pass
    resolves the resident run, the horizon also stops at the first lane
    not known to be resident, and that lane is serviced on the scalar
    slow path (exact fault-cycle accounting, event emission, LRU
    eviction) before the fast path resumes.

    Bit-identical to :func:`_run_scalar` by construction:

    * **Issue order** — preparing a resident access touches only the
      core's own stream and clock, so the scalar two-phase heap issues
      accesses in sorted ``(prepared_time, core)`` order; this heap
      reproduces it (ties break on the unique core index in both
      loops).  Issuing and queueing the core's next access is one
      ``heapreplace`` of the peeked minimum: with unique ``(time,
      core)`` keys the pop order is that of pop-then-push.
    * **Pager mutation order** — the scalar loop touches the pager at
      each access's *prepare* pop, keyed ``(core clock after previous
      issue, core)``.  Fault lanes enter the heap as entries with a
      truthy kind field at exactly that key, so faults and evictions
      interleave with other cores' work in scalar order.  A resident
      lane's only pager effect is an LRU ``move_to_end``; those are
      deferred as ``(prepare key, core, page)`` touch records and
      replayed in sorted key order before every eviction decision (and
      at phase end), which leaves the LRU identical wherever its order
      is observable.
    * **Stale translations** — an eviction resets every core's horizon,
      so later lanes are translated afresh.  A lane already queued with
      the victim's frame would use a frame the scalar loop re-faults on
      (its prepare key sorts after the fault); such in-flight entries
      are exactly the deferred touches of the victim, so the eviction
      diverts them back to the slow path at their recorded prepare
      keys.  An access prepared *before* the eviction keeps its stale
      frame, as in the scalar loop.  Insertions never invalidate a
      translation (a stale horizon just resolves as a resident hit on
      the slow path, as in the scalar loop).
    * **Clock arithmetic** — the same float operations per access in
      the same order: ``issue = clock + gap * ns_per_instruction``,
      ``+ fault_ns`` on a fault, then ``clock = issue + latency / mlp``.
    * **Stream consumption** — each core's records are fetched in
      per-core order and a core stops at its phase budget, so each phase
      replays exactly the scalar loop's records; the per-core generators
      are independent, so the interleaving of fetches across cores
      cannot change any record.
    * **Accounting** — latencies are collected in global issue order
      and folded into the counters/histogram by the bulk accumulators,
      whose per-key fold order matches per-access recording exactly
      (see :meth:`MemoryArchitecture.record_access_batch` and
      :meth:`repro.dram.DramDevice.flush_deferred_stats`).  Per-core
      tallies fold from zero like the scalar loop's ``+=``.  Deferred
      device and policy tallies are flushed *before*
      ``counters.reset()`` so the measured window starts from the same
      state as the scalar loop; warmup latencies feed only the
      histogram, which the reset does not clear.  Epoch samples read
      the engine's own exact tallies in place of the deferred counters
      and the live, correctly-ordered ``pager.page_faults``.
    """
    ns_per_instruction = config.ns_per_instruction
    fault_ns = config.core.cycles_to_ns(config.page_fault_latency_cycles)
    mlp = config.core.mlp
    num_cores = workload.num_copies
    counters = architecture.counters
    timing = architecture.access_timing
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    paged = pager is not None

    batch_streams = workload.stream_batches(
        warmup_per_core + accesses_per_core
    )
    # Per-core chunk cursors.  Columns are materialised as plain Python
    # lists once per chunk — scalar indexing into a list is several times
    # faster than into a NumPy array, and ``.tolist()`` yields exact
    # Python ints/bools.  ``budget_end`` is the lane where the core's
    # phase budget runs out, relative to its current chunk.  Lanes below
    # ``horizon`` — the chunk end or the budget end, and with a pager
    # the first lane not known to be resident — are issued straight
    # from the physical (and page) columns, which are indexed by lane;
    # -1 marks a horizon a phase start or an eviction invalidated.
    addr_np: List[Any] = [None] * num_cores
    gap_cols: List[Optional[list]] = [None] * num_cores
    write_cols: List[Optional[list]] = [None] * num_cores
    phys_cols: List[Optional[list]] = [None] * num_cores
    page_cols: List[Optional[list]] = [None] * num_cores
    positions = [0] * num_cores
    lengths = [0] * num_cores
    budget_end = [0] * num_cores
    horizon = [0] * num_cores

    def reach(core: int, pos: int) -> None:
        """Recompute ``core``'s horizon from lane ``pos``."""
        end = min(lengths[core], budget_end[core])
        if paged:
            physical, pages, n_resident = pager.translate_batch(
                addr_np[core][pos:end]
            )
            pad = [0] * pos
            phys_cols[core] = pad + physical.tolist()
            page_cols[core] = pad + pages.tolist()
            end = pos + n_resident
        horizon[core] = end

    epoch_state = {"epoch": 0}

    def run_phase(budget_per_core: int, record_stats: bool) -> None:
        if budget_per_core <= 0:
            return
        for core in range(num_cores):
            budget_end[core] = positions[core] + budget_per_core
            horizon[core] = -1
        latencies: List[float] = []
        append = latencies.append
        fast_hits = 0
        issued = 0
        slow_lanes = 0
        inst = [0] * num_cores
        nacc = [0] * num_cores
        mlat = [0.0] * num_cores
        pfault = [0] * num_cores
        fcycles = [0] * num_cores
        # Deferred LRU touches of fast-path lanes: (prepare key ns,
        # core, page).  Per-core keys strictly increase and cores break
        # ties, so entries are unique and sort without comparing pages.
        pending: List[tuple] = []
        pending_append = pending.append
        heap: List[tuple] = []

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

        def push_next(core: int, clock: float) -> None:
            """Queue ``core``'s next access, if its budget and stream
            allow: an issue entry for a lane below the horizon, else a
            fault entry keyed at the prepare time ``clock``."""
            pos = positions[core]
            if pos >= budget_end[core]:
                return
            if pos >= lengths[core]:
                while True:
                    budget_end[core] -= lengths[core]
                    batch = next(batch_streams[core], None)
                    if batch is None:
                        return
                    addr_np[core] = batch.addresses
                    gap_cols[core] = batch.icount_gaps.tolist()
                    write_cols[core] = batch.is_writes.tolist()
                    lengths[core] = len(gap_cols[core])
                    if lengths[core]:
                        break
                pos = 0
                if not paged:
                    phys_cols[core] = batch.addresses.tolist()
                elif len(pending) >= _TOUCH_COMPACT_LIMIT:
                    # Compaction: on (nearly) fault-free runs nothing
                    # drains the touch backlog mid-phase, so apply the
                    # prefix that can no longer precede any eviction —
                    # every future fault pops at or after the heap
                    # minimum and this core's next key (>= ``clock``).
                    floor = min(clock, heap[0][0]) if heap else clock
                    apply_touches((floor, -1))
                reach(core, 0)
            elif pos > horizon[core]:
                reach(core, pos)
            positions[core] = pos + 1
            gap = gap_cols[core][pos]
            if pos < horizon[core]:
                if paged:
                    pending_append((clock, core, page_cols[core][pos]))
                heappush(
                    heap,
                    (
                        clock + gap * ns_per_instruction,
                        core,
                        0,
                        phys_cols[core][pos],
                        write_cols[core][pos],
                        gap,
                    ),
                )
            else:
                heappush(
                    heap,
                    (
                        clock,
                        core,
                        1,
                        int(addr_np[core][pos]),
                        write_cols[core][pos],
                        gap,
                    ),
                )

        def evict(victim: int) -> None:
            """An eviction freed ``victim``'s frame: drop every core's
            translations, and send other cores' in-flight accesses to
            it (exactly the deferred touches of ``victim``) back to the
            heap as fault entries at their recorded prepare keys — the
            scalar loop prepares those accesses after this fault and
            re-faults them."""
            horizon[:] = [-1] * num_cores
            stale = [entry for entry in pending if entry[2] == victim]
            if not stale:
                return
            stale_cores = set()
            converted = []
            for entry in stale:
                pending.remove(entry)
                prep_ns, other, _ = entry
                stale_cores.add(other)
                lane = positions[other] - 1
                converted.append(
                    (
                        prep_ns,
                        other,
                        1,
                        int(addr_np[other][lane]),
                        write_cols[other][lane],
                        gap_cols[other][lane],
                    )
                )
            heap[:] = [
                entry for entry in heap if entry[1] not in stale_cores
            ] + converted
            heapq.heapify(heap)

        for core in range(num_cores):
            push_next(core, core_clock_ns[core])

        while heap:
            issue_ns, core, fault, address, is_write, gap = heap[0]
            if fault:
                # Slow-path lane, popped at its scalar prepare key: the
                # pager sees faults, evictions, and (stale-horizon)
                # resident hits in exactly the reference order.  It
                # leaves the heap first: ``evict`` rebuilds it.
                heappop(heap)
                slow_lanes += 1
                apply_touches((issue_ns, core))
                clock = issue_ns + gap * ns_per_instruction
                victim = None
                if not pager.is_resident(address // pager.page_bytes):
                    victim = pager.eviction_candidate()
                fault_cycles, physical = pager.access_translate(
                    address, now_ns=clock
                )
                if fault_cycles:
                    if record_stats:
                        pfault[core] += 1
                        fcycles[core] += fault_cycles
                    clock += fault_ns
                if victim is not None:
                    evict(victim)
                core_clock_ns[core] = clock
                heappush(heap, (clock, core, 0, physical, is_write, gap))
                continue

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
                        telemetry.emit(
                            EpochSample(
                                time_ns=issue_ns,
                                epoch=epoch_state["epoch"],
                                accesses=float(issued),
                                fast_hits=float(fast_hits),
                                swaps=counters["swap.swaps"],
                                faults=pager.page_faults if paged else 0,
                            )
                        )
            # Inlined fast case of ``push_next`` — a lane below the
            # horizon queues without the function call.
            pos = positions[core]
            if pos < horizon[core]:
                positions[core] = pos + 1
                if paged:
                    pending_append((clock, core, page_cols[core][pos]))
                gap = gap_cols[core][pos]
                heapreplace(
                    heap,
                    (
                        clock + gap * ns_per_instruction,
                        core,
                        0,
                        phys_cols[core][pos],
                        write_cols[core][pos],
                        gap,
                    ),
                )
                continue
            # ``push_next`` may read the heap minimum (touch-backlog
            # compaction), so the issued entry leaves first.
            heappop(heap)
            push_next(core, clock)

        if paged:
            # Phase barrier: every remaining recency update lands before
            # anything from the next phase (the scalar loop performed
            # them during this phase), and the fast-path resident hits
            # — every issue that did not come through the slow path —
            # are folded into the pager's (integer) counter in bulk.
            apply_touches(None)
            pager.note_resident_hits(len(latencies) - slow_lanes)
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
            # ``counters.reset()`` discards a warmup arch.* fold; only
            # the never-reset latency histogram keeps these outcomes.
            architecture.latency_histogram.observe_array(latencies)

    architecture.begin_batch_stats()
    try:
        run_phase(warmup_per_core, record_stats=False)
        # Publish warmup tallies before the reset wipes them — exactly
        # what the scalar loop's per-access updates amount to.
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
                faults=pager.page_faults if paged else 0,
            )
        )

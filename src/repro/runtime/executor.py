"""Fault-tolerant sweep executor: cache front-end, supervised
process-pool back-end.

:class:`SweepExecutor` fans the independent ``(design, workload)``
cells of a design sweep out across worker processes, front-ended by an
optional on-disk :class:`~repro.runtime.cache.ResultCache`.
``jobs=1`` is the degenerate serial case (no processes, everything
inline), so results are bit-identical at any worker count — cells
never share state, and each is seed-deterministic.

Fault tolerance (see docs/RUNTIME.md):

* **reusable workers** — each pooled worker process is forked once
  per sweep and fed one cell attempt at a time over its pipe;
* **per-job timeout** — each pooled attempt runs under a wall-clock
  deadline; an overdue worker is terminated and replaced, and only
  *its* job is charged;
* **crash isolation** — a worker that dies (segfault, OOM-kill,
  injected ``os._exit``) fails only the job in flight, wrapped in a
  :class:`~repro.runtime.faults.SweepJobError` carrying (design,
  workload, attempt) once retries are exhausted;
* **bounded retries** — failed attempts re-queue with exponential
  backoff and seeded jitter; a :class:`JobRetryEvent` is emitted on
  the telemetry bus and counted in :class:`SweepMetrics`;
* **graceful degradation** — after ``degrade_after`` worker-level
  failures (crashes + timeouts) in one sweep, the executor stops
  spawning processes and finishes the sweep serially inline;
* **checkpoint** — with a cache, each cell is stored the moment it
  finishes, so re-running an interrupted sweep on the same cache
  simulates only the cells it did not finish, merging bit-identically;
* **deterministic fault injection** — a
  :class:`~repro.runtime.faults.FaultPlan` (or ``$REPRO_FAULTS``)
  injects crashes/hangs/transient errors into workers and corruption
  into the cache, keeping the whole tolerance surface under test;
* **trace arena** — each sweep's workload traces are compiled once
  by the parent and published read-only via
  :class:`~repro.runtime.arena.TraceArena` before the pool is forked,
  so workers replay them from inherited memory instead of
  regenerating (``arena=False`` or an over-budget grid falls back to
  per-cell generation, byte-identically).

The module-level default executor (serial, no disk cache) is what
:func:`repro.experiments.runner.run_design_sweep` uses when not handed
one explicitly; the CLI builds its own from ``--jobs``/``--cache-dir``
/``--timeout``/``--retries``.
"""

from __future__ import annotations

import random
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing import connection, get_context
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.arena import TraceArena
from repro.runtime.cache import ResultCache
from repro.runtime.cells import timed_cell
from repro.runtime.faults import (
    FAULT_CORRUPT,
    FaultPlan,
    JobTimeoutError,
    SweepJobError,
    WorkerCrashError,
    apply_fault,
    corrupt_cache_entry,
)
from repro.runtime.metrics import (
    FAILURE_CRASH,
    FAILURE_ERROR,
    FAILURE_TIMEOUT,
    SOURCE_DISK,
    SOURCE_SIMULATED,
    CellStat,
    ProgressCallback,
    SweepMetrics,
)
from repro.sim import SimulationResult
from repro.telemetry.auditor import InvariantViolation
from repro.telemetry.bus import EventBus
from repro.telemetry.events import JobRetryEvent, TelemetryEvent

#: Sweep results keyed by ``(design, workload)``.
SweepResults = Dict[Tuple[str, str], SimulationResult]

#: Captured telemetry keyed by ``(design, workload)``.
SweepEvents = Dict[Tuple[str, str], List[TelemetryEvent]]

#: One cell attempt's outcome: (design, workload, seconds, result,
#: captured events).
CellOutcome = Tuple[str, str, float, SimulationResult, List[TelemetryEvent]]

#: Default retry budget: attempts allowed = retries + 1.
DEFAULT_RETRIES = 2

#: Default worker-failure count (crashes + timeouts, per sweep) after
#: which the executor degrades to serial execution.
DEFAULT_DEGRADE_AFTER = 5

#: Sentinel: resolve the fault plan from ``$REPRO_FAULTS``.
FAULTS_FROM_ENV = "env"


@dataclass
class _Job:
    """One cell attempt waiting to run (or re-run)."""

    design: str
    workload: str
    attempt: int = 1
    fault: Optional[str] = None  # injected fault riding this attempt
    not_before: float = 0.0      # monotonic backoff gate

    @property
    def cell(self) -> Tuple[str, str]:
        return (self.design, self.workload)


@dataclass
class _Worker:
    """A live worker process fed cell attempts over its pipe; ``job``
    is the attempt in flight and ``started`` its start time."""

    process: object
    conn: connection.Connection
    job: Optional[_Job] = None
    started: float = 0.0


def _cell_worker(conn) -> None:
    """Child-process entry: run attempts until ``None`` or EOF.

    Each message is one attempt's :func:`timed_cell` args.  Everything
    crosses the pipe — the result on success, the exception on failure
    (re-wrapped if unpicklable); a ``BaseException`` that is not an
    ``Exception`` is reported and then ends the worker.  An injected
    crash (``os._exit`` inside :func:`timed_cell`) bypasses all of this
    and is detected by the parent as EOF + a dead process.
    """
    try:
        for args in iter(conn.recv, None):
            try:
                payload = timed_cell(args)
            except BaseException as exc:  # noqa: BLE001 — must cross the pipe
                try:
                    conn.send(("error", exc))
                except Exception:
                    conn.send(
                        ("error", RuntimeError(f"{type(exc).__name__}: {exc}"))
                    )
                if not isinstance(exc, Exception):
                    break
            else:
                conn.send(("ok", payload))
    except EOFError:
        pass  # the parent went away
    finally:
        conn.close()


class SweepExecutor:
    """Runs design sweeps: cache front-end, supervised pool back-end.

    Telemetry capture (``telemetry=EventBus()``) records each simulated
    cell's event stream into :attr:`events` and replays it onto the
    given bus at the parent, cell by cell in completion order — worker
    processes cannot share the parent's bus, so each cell's events
    cross the pool boundary as one pickled list of event objects.
    ``audit=True`` attaches a live invariant auditor to every cell's
    architecture *inside* the worker (violations propagate out of
    :meth:`run` unretried — an audit failure is deterministic,
    retrying cannot fix it).

    Events never touch the result cache: the cached key and payload
    are exactly the telemetry-off ones, so warm replays stay
    bit-identical — but cells served from disk contribute **no
    events** (re-run with the cache disabled to trace them).  Failed
    attempts also contribute no events; only :class:`JobRetryEvent`
    marks them on the parent bus.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        on_cell: Optional[ProgressCallback] = None,
        telemetry: Optional[EventBus] = None,
        audit: bool = False,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: float = 0.1,
        jitter: float = 0.25,
        degrade_after: int = DEFAULT_DEGRADE_AFTER,
        faults: Optional[FaultPlan | str] = FAULTS_FROM_ENV,
        arena: bool = True,
        arena_budget: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if faults == FAULTS_FROM_ENV:
            faults = FaultPlan.from_env()
        if retries is None:
            retries = (
                faults.retries
                if faults is not None and faults.retries is not None
                else DEFAULT_RETRIES
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout is None and faults is not None:
            timeout = faults.timeout
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if degrade_after < 1:
            raise ValueError(
                f"degrade_after must be >= 1, got {degrade_after}"
            )
        self.jobs = jobs
        self.cache = cache
        self.on_cell = on_cell
        self.telemetry = telemetry
        self.audit = audit
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.jitter = jitter
        self.degrade_after = degrade_after
        self.faults = faults
        #: Publish a trace arena per sweep (fall back to per-cell
        #: generation when the estimated payload exceeds
        #: ``arena_budget`` bytes).
        self.arena = arena
        self.arena_budget = arena_budget
        self.metrics = SweepMetrics(jobs=jobs)
        #: Backoff jitter only (never touches results): seeded so two
        #: identical faulted runs retry on the same schedule.
        self._rng = random.Random(faults.seed if faults is not None else 0)
        #: Event streams of simulated (never cached) cells, accumulated
        #: across :meth:`run` calls; a re-simulated cell overwrites its
        #: earlier entry.
        self.events: SweepEvents = {}

    def run(self, scale, designs: Sequence[str]) -> SweepResults:
        """Simulate every ``(design, workload)`` cell of ``scale``,
        serving what it can from the disk cache."""
        self._check_designs(designs)
        cells = [
            (design, workload)
            for design in designs
            for workload in scale.benchmarks
        ]
        return self._run_cells(scale, cells)

    def run_cells(
        self, scale, cells: Sequence[Tuple[str, str]]
    ) -> SweepResults:
        """Simulate an explicit list of ``(design, workload)`` cells.

        The batching hook used by :mod:`repro.serve` dispatch batches:
        unlike :meth:`run`, the grid is not the ``designs ×
        scale.benchmarks`` cross product but exactly ``cells`` (order
        preserved, duplicates rejected).  Cache, arena, fault and retry
        semantics are identical — a cell's result is bit-identical
        whichever entry point ran it.
        """
        seen = set()
        for cell in cells:
            if cell in seen:
                raise ValueError(f"duplicate cell {cell!r}")
            seen.add(cell)
        self._check_designs(sorted({design for design, _ in cells}))
        return self._run_cells(scale, list(cells))

    @staticmethod
    def _check_designs(designs: Sequence[str]) -> None:
        from repro.experiments.designs import REGISTRY

        for design in designs:
            if design not in REGISTRY:
                raise KeyError(f"unknown design {design!r}")

    def _run_cells(
        self, scale, cells: List[Tuple[str, str]]
    ) -> SweepResults:
        start = time.perf_counter()
        results: SweepResults = {}
        pending: List[Tuple[str, str]] = []
        done = 0

        fault_map = (
            self.faults.materialise(cells) if self.faults is not None else {}
        )
        # Corruption faults damage cache entries *before* lookup (a
        # cold cache makes them no-ops); they never reach workers.
        for cell, kind in list(fault_map.items()):
            if kind == FAULT_CORRUPT:
                del fault_map[cell]
                if self.cache is not None:
                    corrupt_cache_entry(self.cache, scale, *cell)

        arena: Optional[TraceArena] = None
        try:
            for design, workload in cells:
                cached = (
                    self.cache.get(scale, design, workload)
                    if self.cache is not None
                    else None
                )
                if cached is not None:
                    results[(design, workload)] = cached
                    done += 1
                    self._record(
                        CellStat(design, workload, 0.0, SOURCE_DISK),
                        done,
                        len(cells),
                    )
                else:
                    pending.append((design, workload))

            if pending:
                # Surface which replay kernel each simulated cell will
                # resolve to (cache hits never pick a kernel).
                from repro.experiments.designs import kernel_decision

                config = scale.config()
                decisions = {
                    design: kernel_decision(design, config)
                    for design in sorted({d for d, _ in pending})
                }
                for design, _ in pending:
                    self.metrics.record_kernel(decisions[design])

            # Publish before _execute forks the pool: workers inherit
            # the compiled traces with the parent's memory.
            if self.arena and pending:
                arena = TraceArena.publish(
                    scale,
                    sorted({workload for _, workload in pending}),
                    budget=self.arena_budget,
                )
                if arena is not None:
                    self.metrics.record_arena(arena.nbytes)
            manifest = arena.manifest if arena is not None else None

            for design, workload, seconds, result, events in self._execute(
                scale, pending, fault_map, manifest
            ):
                results[(design, workload)] = result
                # Put before on_cell: the cache is the sweep checkpoint.
                if self.cache is not None:
                    self.cache.put(scale, design, workload, result)
                if events:
                    self._merge_events(design, workload, events)
                if manifest is not None:
                    self.metrics.record_arena_hit()
                done += 1
                self._record(
                    CellStat(design, workload, seconds, SOURCE_SIMULATED),
                    done,
                    len(cells),
                )
        finally:
            # The publisher owns the arena: drop it on every exit path
            # (completion, failure, interrupt) so no trace set outlives
            # its sweep.
            if arena is not None:
                arena.dispose()

        self.metrics.record_sweep(time.perf_counter() - start)
        return results

    # -- internals -----------------------------------------------------

    @property
    def _capture(self) -> bool:
        return self.telemetry is not None and self.telemetry.enabled

    @property
    def _hang_seconds(self) -> float:
        return self.faults.hang_seconds if self.faults is not None else 0.0

    def _merge_events(
        self, design: str, workload: str, events: List[TelemetryEvent]
    ) -> None:
        """Record one cell's events and replay them on the parent bus,
        preserving in-cell order."""
        self.events[(design, workload)] = events
        bus = self.telemetry
        if bus is not None and bus.enabled:
            for event in events:
                bus.emit(event)

    def _args(self, scale, job: _Job, manifest: Optional[Dict]) -> Tuple:
        return (
            scale,
            job.design,
            job.workload,
            self._capture,
            self.audit,
            job.fault,
            self._hang_seconds,
            manifest,
        )

    def _execute(
        self,
        scale,
        pending: Sequence[Tuple[str, str]],
        fault_map: Dict[Tuple[str, str], str],
        manifest: Optional[Dict] = None,
    ) -> Iterator[CellOutcome]:
        """Yield a :data:`CellOutcome` for each missing cell — inline
        at ``jobs=1``, supervised worker processes otherwise.  Both
        paths run the same :func:`timed_cell` entry point (including
        arena attachment via ``manifest``), so event capture and
        results are identical at any worker count."""
        if not pending:
            return
        jobs = deque(
            _Job(design, workload, fault=fault_map.get((design, workload)))
            for design, workload in pending
        )
        if self.jobs == 1:
            yield from self._run_serial(scale, jobs, manifest)
        else:
            yield from self._run_supervised(scale, jobs, manifest)

    # -- serial back-end ----------------------------------------------

    def _run_serial(
        self, scale, jobs: deque, manifest: Optional[Dict] = None
    ) -> Iterator[CellOutcome]:
        """Inline execution with the same retry/fault semantics as the
        pool.  Nothing can preempt an inline cell, so the per-job
        timeout is not enforced here (injected hangs convert to
        :class:`JobTimeoutError` instead, see :func:`apply_fault`)."""
        while jobs:
            job = jobs.popleft()
            delay = job.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                if job.fault is not None:
                    apply_fault(
                        job.fault,
                        serial=True,
                        hang_seconds=self._hang_seconds,
                    )
                outcome = timed_cell(
                    (scale, job.design, job.workload, self._capture,
                     self.audit, None, 0.0, manifest)
                )
            except Exception as exc:
                jobs.appendleft(self._retry(job, exc))
                continue
            yield outcome

    # -- supervised pool back-end -------------------------------------

    def _run_supervised(
        self, scale, jobs: deque, manifest: Optional[Dict] = None
    ) -> Iterator[CellOutcome]:
        """Supervisor of up to ``jobs`` reusable worker processes.

        Each (cheap, forked) worker lives for this call and runs one
        attempt at a time over a private pipe, which is what buys exact
        fault attribution: a crash or timeout charges *only* the job in
        flight and costs one lazily spawned replacement worker; an error
        reply keeps its worker.  After ``degrade_after`` crashes +
        timeouts the rest finish serially inline.  No worker outlives
        the call.
        """
        ctx = get_context()
        active: List[_Worker] = []
        idle: List[_Worker] = []
        failures = 0
        try:
            while jobs or active:
                if failures >= self.degrade_after:
                    # Too many pool failures: abandon worker processes.
                    self.metrics.degraded = True
                    for worker in active:
                        self._kill(worker)
                        jobs.append(worker.job)
                    active.clear()
                    break
                now = time.monotonic()
                while jobs and len(active) < self.jobs:
                    job = self._pop_ready(jobs, now)
                    if job is None:
                        break
                    worker = idle.pop() if idle else self._spawn(ctx)
                    if not worker.process.is_alive():
                        # Died between cells: replace it, charge no job.
                        self._reap(worker)
                        worker = self._spawn(ctx)
                    worker.job, worker.started = job, time.monotonic()
                    with suppress(OSError):  # died just now: a crash
                        worker.conn.send(self._args(scale, job, manifest))
                    active.append(worker)
                if not active:
                    # Everything is backing off; sleep to the earliest.
                    soonest = min(job.not_before for job in jobs)
                    time.sleep(max(0.0, soonest - now))
                    continue
                ready = connection.wait(
                    [worker.conn for worker in active],
                    timeout=self._wait_timeout(active, jobs, now),
                )
                now = time.monotonic()
                for worker in list(active):
                    if worker.conn in ready:
                        active.remove(worker)
                        outcome, exc = self._collect(worker)
                        if isinstance(exc, WorkerCrashError):
                            failures += 1
                        if not worker.conn.closed:  # not reaped
                            idle.append(worker)
                        if exc is None:
                            yield outcome
                        else:
                            jobs.append(self._retry(worker.job, exc))
                    elif (
                        self.timeout is not None
                        and now - worker.started >= self.timeout
                    ):
                        active.remove(worker)
                        self._kill(worker)
                        failures += 1
                        timeout_error = JobTimeoutError(
                            f"cell {worker.job.design}/"
                            f"{worker.job.workload} exceeded "
                            f"{self.timeout:.3g}s "
                            f"(attempt {worker.job.attempt})"
                        )
                        jobs.append(self._retry(worker.job, timeout_error))
        finally:
            for worker in active:
                self._kill(worker)
            for worker in idle:
                with suppress(OSError):
                    worker.conn.send(None)
            for worker in idle:
                self._reap(worker)
        if jobs:  # degraded: finish the sweep serially inline
            yield from self._run_serial(scale, jobs, manifest)

    def _wait_timeout(
        self, active: List[_Worker], jobs: deque, now: float
    ) -> Optional[float]:
        """How long :func:`connection.wait` may block: until the next
        per-job deadline or the next backoff expiry."""
        timeout: Optional[float] = None
        if self.timeout is not None:
            deadline = min(w.started + self.timeout for w in active)
            timeout = max(0.0, deadline - now) + 0.005
        if jobs and len(active) < self.jobs:
            soonest = min(job.not_before for job in jobs)
            wake = max(0.0, soonest - now) + 0.005
            timeout = wake if timeout is None else min(timeout, wake)
        return timeout

    @staticmethod
    def _pop_ready(jobs: deque, now: float) -> Optional[_Job]:
        """Remove and return the first job whose backoff has elapsed."""
        for index, job in enumerate(jobs):
            if job.not_before <= now:
                del jobs[index]
                return job
        return None

    def _spawn(self, ctx) -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_cell_worker, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def _collect(
        self, worker: _Worker
    ) -> Tuple[Optional[CellOutcome], Optional[BaseException]]:
        """Drain a readable worker: its outcome, or the failure that
        took it (a crash surfaces as EOF + a dead process).  Reaps a
        worker that crashed or exits after its report."""
        try:
            status, payload = worker.conn.recv()
        except (EOFError, OSError):
            status, payload = None, None
        if status == "ok":
            return payload, None
        if status == "error":
            if not isinstance(payload, Exception):
                self._reap(worker)
            return None, payload
        self._reap(worker)
        exitcode = worker.process.exitcode
        return None, WorkerCrashError(
            f"worker for cell {worker.job.design}/{worker.job.workload} "
            f"died with exit code {exitcode} "
            f"(attempt {worker.job.attempt})"
        )

    def _kill(self, worker: _Worker) -> None:
        worker.process.terminate()
        self._reap(worker)

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Join an exiting (or killed) worker and close its pipe."""
        worker.process.join(timeout=10.0)
        if worker.process.is_alive():  # pragma: no cover — paranoia
            worker.process.kill()
            worker.process.join()
        worker.conn.close()

    # -- retry engine --------------------------------------------------

    def _retry(self, job: _Job, exc: BaseException) -> _Job:
        """Account one failed attempt; the re-queued job, or raise
        :class:`SweepJobError` when the retry budget is spent."""
        if isinstance(exc, InvariantViolation):
            # Deterministic audit failure: retrying cannot change it,
            # and callers match on the violation itself.
            raise exc
        kind = (
            FAILURE_CRASH
            if isinstance(exc, WorkerCrashError)
            else FAILURE_TIMEOUT
            if isinstance(exc, JobTimeoutError)
            else FAILURE_ERROR
        )
        self.metrics.record_failure(kind)
        if job.attempt > self.retries:
            raise SweepJobError(
                job.design, job.workload, job.attempt, exc
            ) from exc
        self.metrics.record_retry()
        bus = self.telemetry
        if bus is not None and bus.enabled:
            bus.emit(
                JobRetryEvent(
                    0.0,
                    design=job.design,
                    workload=job.workload,
                    attempt=job.attempt + 1,
                    reason=kind,
                )
            )
        delay = 0.0
        if self.backoff > 0:
            delay = (
                self.backoff
                * (2 ** (job.attempt - 1))
                * (1.0 + self.jitter * self._rng.random())
            )
        return _Job(
            job.design,
            job.workload,
            attempt=job.attempt + 1,
            fault=None,  # a fault fires on exactly one attempt
            not_before=time.monotonic() + delay,
        )

    def _record(self, stat: CellStat, done: int, total: int) -> None:
        self.metrics.record_cell(stat)
        if self.on_cell is not None:
            self.on_cell(stat, done, total)


# ----------------------------------------------------------------------
# Default executor (library path: serial, in-memory memoisation only)
# ----------------------------------------------------------------------

_default_executor: Optional[SweepExecutor] = None


def get_default_executor() -> SweepExecutor:
    """The executor sweeps use when none is passed explicitly."""
    global _default_executor
    if _default_executor is None:
        _default_executor = SweepExecutor()
    return _default_executor


__all__ = [
    "DEFAULT_DEGRADE_AFTER",
    "DEFAULT_RETRIES",
    "SweepEvents",
    "SweepExecutor",
    "SweepResults",
    "get_default_executor",
]

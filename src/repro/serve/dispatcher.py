"""Batches queued cells into sweep-executor runs.

The dispatcher is the bridge between the asyncio front half (scheduler,
HTTP handlers) and the synchronous, process-pool back half
(:class:`~repro.runtime.SweepExecutor`).  Its loop:

1. wait until the scheduler has pending work;
2. pull one compatible batch (:meth:`Scheduler.next_batch` — same
   scale, fair-share order);
3. run it as **one** sweep via
   :meth:`~repro.runtime.SweepExecutor.run_cells` on a worker thread
   (``run_in_executor``), so the event loop keeps serving reads,
   health checks, and coalescing duplicates onto the in-flight batch;
4. resolve each job's future with its canonical response bytes.

Failure semantics surface the PR-4 fault tolerance as structured
responses: the executor already retries crashes/timeouts/transient
errors internally; a :class:`~repro.runtime.SweepJobError` escaping it
means one cell exhausted its retry budget — that job fails with the
error's design/workload/attempt detail, while the batch's *other*
cells are re-queued (anything that finished before the abort was
already committed to the result cache, so the re-dispatch answers them
from disk rather than re-simulating).  A job whose batches die
:data:`MAX_JOB_ATTEMPTS` times fails outright rather than looping.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.runtime.executor import SweepExecutor
from repro.runtime.faults import SweepJobError
from repro.serve.metrics import ServerMetrics
from repro.serve.scheduler import Job, Scheduler
from repro.telemetry.auditor import InvariantViolation
from repro.telemetry.bus import EventBus, NullBus
from repro.telemetry.events import ServeEvent

#: Dispatch batches a single job may ride before it is failed outright
#: (guards against a cell that keeps killing its batch).
MAX_JOB_ATTEMPTS = 3

#: Default cap on cells per executor sweep.
DEFAULT_MAX_BATCH = 8


def error_payload(exc: BaseException) -> Dict[str, object]:
    """Structured error block for a failed job's response."""
    block: Dict[str, object] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, SweepJobError):
        block.update(
            design=exc.design,
            workload=exc.workload,
            attempts=exc.attempts,
            cause=type(exc.__cause__).__name__ if exc.__cause__ else None,
        )
    return block


class Dispatcher:
    """Pulls batches from the scheduler and runs them to completion."""

    def __init__(
        self,
        scheduler: Scheduler,
        executor: SweepExecutor,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        metrics: Optional[ServerMetrics] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.scheduler = scheduler
        self.executor = executor
        self.max_batch = max_batch
        self.metrics = metrics if metrics is not None else scheduler.metrics
        self.bus: EventBus | NullBus = bus if bus is not None else NullBus()
        self._wake = asyncio.Event()
        self._stop = False
        self._task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    def wake(self) -> None:
        """New work arrived (called after every successful admit)."""
        self._wake.set()

    async def stop(self) -> None:
        """Finish the in-flight batch (if any), then stop pulling.

        Queued jobs are left on the scheduler for the server's drain
        step to checkpoint.
        """
        self._stop = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None

    # -- the loop ------------------------------------------------------

    async def _run(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while not self._stop:
                batch = self.scheduler.next_batch(self.max_batch)
                if not batch:
                    break
                await self._dispatch(batch)
            if self._stop:
                return

    async def _dispatch(self, batch: List[Job]) -> None:
        scale = self._batch_scale(batch)
        cells = [job.cell for job in batch]
        by_cell = {job.cell: job for job in batch}
        for job in batch:
            job.attempts += 1
        self.metrics.batches += 1
        self.metrics.worker_cells += len(cells)
        if self.bus.enabled:
            self.bus.emit(
                ServeEvent(
                    0.0,
                    action="dispatch",
                    job=",".join(sorted(j.id for j in batch)),
                    queue_depth=self.scheduler.queue_depth,
                )
            )
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                None, self.executor.run_cells, scale, cells
            )
        except SweepJobError as exc:
            self._fail_cell(by_cell, (exc.design, exc.workload), exc)
            self._retry_survivors(by_cell)
        except (InvariantViolation, Exception) as exc:  # noqa: BLE001
            # Batch-level failure (bad scale, auditor violation, ...):
            # deterministic, so every cell in the batch gets the error.
            for job in batch:
                job.fail(error_payload(exc))
                self.scheduler.finish(job)
        else:
            for cell, result in results.items():
                job = by_cell.get(cell)
                if job is not None:
                    job.complete(result)
                    self.scheduler.finish(job)

    def _fail_cell(
        self,
        by_cell: Dict[Tuple[str, str], Job],
        cell: Tuple[str, str],
        exc: SweepJobError,
    ) -> None:
        job = by_cell.pop(cell, None)
        if job is not None:
            job.fail(error_payload(exc))
            self.scheduler.finish(job)

    def _retry_survivors(self, by_cell: Dict[Tuple[str, str], Job]) -> None:
        """Re-queue the batch's other cells (completed ones are in the
        result cache and will be served from it on re-dispatch)."""
        for job in by_cell.values():
            if job.attempts >= MAX_JOB_ATTEMPTS:
                job.fail(
                    {
                        "type": "DispatchExhausted",
                        "message": (
                            f"cell {job.request.design}/"
                            f"{job.request.workload} lost "
                            f"{job.attempts} dispatch batches"
                        ),
                    }
                )
                self.scheduler.finish(job)
            else:
                self.scheduler.requeue(job)
        if by_cell:
            self._wake.set()

    @staticmethod
    def _batch_scale(batch: List[Job]):
        """One Scale for the whole batch: the shared base fields (the
        batch is scale-compatible by construction) with ``benchmarks``
        listing the batch's distinct workloads — informational only,
        since :meth:`run_cells` executes exactly the cell list and the
        cache keys exclude the sibling tuple."""
        base = batch[0].request.scale()
        workloads = tuple(
            dict.fromkeys(job.request.workload for job in batch)
        )
        return dataclasses.replace(base, benchmarks=workloads)


__all__ = [
    "DEFAULT_MAX_BATCH",
    "Dispatcher",
    "MAX_JOB_ATTEMPTS",
    "error_payload",
]

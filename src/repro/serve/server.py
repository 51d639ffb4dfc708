"""The long-running simulation service: HTTP front end + lifecycle.

:class:`SimServer` ties the pieces together — the
:class:`~repro.serve.scheduler.Scheduler` (admission, fair share,
coalescing), the :class:`~repro.serve.dispatcher.Dispatcher` (executor
batches), the :mod:`~repro.serve.http` stream plumbing, and the
:class:`~repro.serve.checkpoint.QueueCheckpoint` drain file — behind
five endpoints:

====================  ================================================
``POST /v1/simulate``  one cell; waits for the result by default
                       (``"wait": false`` returns 202 + job id)
``POST /v1/sweep``     a designs × workloads grid, expanded into cells
                       that coalesce with everything else in flight
``GET /v1/jobs/<id>``  poll any job by digest
``GET /healthz``       liveness + drain state
``GET /metrics``       queue depth, in-flight, hit ratio, p50/p95
====================  ================================================

Lifecycle: ``SIGTERM`` (or :meth:`SimServer.shutdown`) stops
accepting, lets the in-flight dispatch batch finish, checkpoints the
unserved queue, answers queued waiters with a 503 naming their job id,
and exits; a restarted server pointed at the same
``checkpoint_dir`` re-queues the checkpointed requests under the same
ids and serves them to completion.  See docs/SERVING.md.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro._version import __version__
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor
from repro.serve.checkpoint import QueueCheckpoint
from repro.serve.dispatcher import DEFAULT_MAX_BATCH, Dispatcher
from repro.serve.http import (
    HttpError,
    Request,
    read_request,
    render_response,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    BadRequest,
    SimRequest,
    SweepRequest,
    WIRE_VERSION,
    canonical_payload,
)
from repro.serve.scheduler import (
    DEFAULT_MAX_QUEUE,
    DONE,
    FAILED,
    Job,
    QueueFull,
    Scheduler,
)
from repro.telemetry.bus import EventBus, NullBus

#: Default bind address (loopback: the service is a lab tool, not an
#: internet-facing daemon; put a real proxy in front for anything else).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642


class SimServer:
    """One serving process: scheduler + dispatcher + HTTP listener."""

    def __init__(
        self,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        checkpoint_dir: Optional[Path | str] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
        hold: bool = False,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        arena: bool = True,
        telemetry: Optional[EventBus] = None,
    ) -> None:
        self.host = host
        self.port = port  # rebound to the real port after start()
        self.cache = cache
        self.checkpoint = (
            QueueCheckpoint(checkpoint_dir)
            if checkpoint_dir is not None
            else None
        )
        #: ``hold=True`` accepts and queues work but never dispatches —
        #: maintenance mode, and the deterministic half of drain tests.
        self.hold = hold
        self.telemetry: EventBus | NullBus = (
            telemetry if telemetry is not None else NullBus()
        )
        self.metrics = ServerMetrics()
        #: The sweep runtime underneath: fault injection stays off (a
        #: serving process must not inherit ``$REPRO_FAULTS`` chaos),
        #: but timeout/retry tolerance is the caller's to tune.
        self.executor = SweepExecutor(
            jobs=jobs,
            cache=cache,
            faults=None,
            timeout=timeout,
            retries=retries,
            arena=arena,
        )
        self.scheduler = Scheduler(
            cache,
            max_queue=max_queue,
            workers=jobs,
            metrics=self.metrics,
            bus=self.telemetry,
        )
        self.dispatcher = Dispatcher(
            self.scheduler,
            self.executor,
            max_batch=max_batch,
            metrics=self.metrics,
            bus=self.telemetry,
        )
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown_done: Optional[asyncio.Event] = None
        self._resumed_jobs: List[Job] = []

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind, resume any checkpointed queue, start dispatching."""
        self._shutdown_done = asyncio.Event()
        if self.checkpoint is not None:
            for request in self.checkpoint.load():
                job = Job(request, source="checkpoint")
                self._resumed_jobs.append(self.scheduler.resume(job))
            self.checkpoint.discard()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if not self.hold:
            self.dispatcher.start()
            if self._resumed_jobs:
                self.dispatcher.wake()

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`shutdown` has completed."""
        assert self._shutdown_done is not None, "start() first"
        await self._shutdown_done.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work,
        checkpoint the rest, release :meth:`serve_until_shutdown`."""
        if self.draining:
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.dispatcher.stop()
        drained = self.scheduler.drain()
        if drained:
            retry_after = self.scheduler.retry_after()
            if self.checkpoint is not None:
                self.checkpoint.write([job.request for job in drained])
            for job in drained:
                job.checkpoint(retry_after)
        if self._shutdown_done is not None:
            self._shutdown_done.set()

    def run(self) -> None:  # pragma: no cover — signal-driven CLI path
        """Synchronous entry point with SIGTERM/SIGINT drain wired up
        (the ``python -m repro.experiments serve`` main loop)."""

        async def main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    signum,
                    lambda: loop.create_task(self.shutdown()),
                )
            print(
                f"[serve] listening on http://{self.host}:{self.port}",
                flush=True,
            )
            await self.serve_until_shutdown()
            print(
                f"[serve] drained; {self.metrics.checkpointed} job(s) "
                "checkpointed",
                flush=True,
            )

        asyncio.run(main())

    # -- connection handling -------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                await self._write(
                    writer,
                    render_response(
                        exc.status, canonical_payload({"error": str(exc)})
                    ),
                )
                return
            if request is None:
                return
            response = await self._route(request)
            await self._write(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer went away mid-response; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, response: bytes) -> None:
        writer.write(response)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(self, request: Request) -> bytes:
        path = request.path
        if path == "/healthz":
            return self._require_get(request) or self._healthz()
        if path == "/metrics":
            return self._require_get(request) or self._metrics()
        if path.startswith("/v1/jobs/"):
            return self._require_get(request) or self._job_status(
                path[len("/v1/jobs/"):]
            )
        if path == "/v1/simulate":
            return await self._post(request, self._simulate)
        if path == "/v1/sweep":
            return await self._post(request, self._sweep)
        return render_response(
            404, canonical_payload({"error": f"no such endpoint {path!r}"})
        )

    @staticmethod
    def _require_get(request: Request) -> Optional[bytes]:
        if request.method != "GET":
            return render_response(
                405,
                canonical_payload(
                    {"error": f"{request.method} not allowed here"}
                ),
                extra_headers={"Allow": "GET"},
            )
        return None

    async def _post(self, request: Request, handler) -> bytes:
        if request.method != "POST":
            return render_response(
                405,
                canonical_payload(
                    {"error": f"{request.method} not allowed here"}
                ),
                extra_headers={"Allow": "POST"},
            )
        if self.draining:
            return render_response(
                503,
                canonical_payload(
                    {"error": "server is draining", "status": "draining"}
                ),
                extra_headers={"Retry-After": "5"},
            )
        try:
            payload = request.json()
            wait = bool(payload.pop("wait", True))
            return await handler(payload, wait)
        except HttpError as exc:
            return render_response(
                exc.status, canonical_payload({"error": str(exc)})
            )
        except BadRequest as exc:
            return render_response(400, canonical_payload({"error": str(exc)}))
        except QueueFull as exc:
            return render_response(
                429,
                canonical_payload(
                    {
                        "error": str(exc),
                        "status": "rejected",
                        "retry_after": exc.retry_after,
                    }
                ),
                extra_headers={
                    "Retry-After": str(int(exc.retry_after))
                },
            )

    # -- endpoints -----------------------------------------------------

    async def _simulate(self, payload: Dict[str, Any], wait: bool) -> bytes:
        sim = SimRequest.from_dict(payload)
        job = self.scheduler.submit(sim)
        self.dispatcher.wake()
        if not wait and job.payload is None:
            return render_response(
                202,
                canonical_payload(
                    {"job": job.id, "status": job.status, "wire": WIRE_VERSION}
                ),
            )
        payload_bytes = await job.future
        return render_response(
            job.http_status,
            payload_bytes,
            extra_headers=self._retry_header(job),
        )

    async def _sweep(self, payload: Dict[str, Any], wait: bool) -> bytes:
        sweep = SweepRequest.from_dict(payload)
        jobs = [self.scheduler.submit(cell) for cell in sweep.cells()]
        self.dispatcher.wake()
        if not wait:
            return render_response(
                202,
                canonical_payload(
                    {
                        "job": sweep.digest,
                        "status": "queued",
                        "cells": {
                            f"{j.request.design}/{j.request.workload}": j.id
                            for j in jobs
                        },
                        "wire": WIRE_VERSION,
                    }
                ),
            )
        import json as _json

        await asyncio.gather(*(job.future for job in jobs))
        results: Dict[str, Any] = {}
        errors: Dict[str, Any] = {}
        for job in jobs:
            cell_name = f"{job.request.design}/{job.request.workload}"
            body = _json.loads(job.payload or b"{}")
            if job.status == DONE:
                results[cell_name] = body.get("result")
            else:
                errors[cell_name] = body.get(
                    "error", {"type": job.status, "message": job.status}
                )
        status = DONE if not errors else FAILED
        block: Dict[str, Any] = {
            "job": sweep.digest,
            "status": status,
            "request": sweep.identity(),
            "results": results,
        }
        if errors:
            block["errors"] = errors
        return render_response(
            200 if not errors else 500, canonical_payload(block)
        )

    def _job_status(self, job_id: str) -> bytes:
        job = self.scheduler.job(job_id)
        if job is None:
            return render_response(
                404, canonical_payload({"error": f"unknown job {job_id!r}"})
            )
        if job.payload is not None:
            return render_response(
                job.http_status,
                job.payload,
                extra_headers=self._retry_header(job),
            )
        return render_response(
            200,
            canonical_payload(
                {
                    "job": job.id,
                    "status": job.status,
                    "queue_depth": self.scheduler.queue_depth,
                }
            ),
        )

    def _healthz(self) -> bytes:
        return render_response(
            200,
            canonical_payload(
                {
                    "status": "draining" if self.draining else "ok",
                    "version": __version__,
                    "wire": WIRE_VERSION,
                    "hold": self.hold,
                }
            ),
        )

    def _metrics(self) -> bytes:
        return render_response(
            200,
            canonical_payload(
                self.metrics.snapshot(
                    queue_depth=self.scheduler.queue_depth,
                    in_flight=self.scheduler.in_flight,
                    # A copy: the executor thread writes the tally.
                    kernels=dict(self.executor.metrics.kernels),
                )
            ),
        )

    def _retry_header(self, job: Job) -> Optional[Dict[str, str]]:
        if job.http_status == 503:
            return {"Retry-After": str(int(self.scheduler.retry_after()))}
        return None


class ServerThread:
    """A :class:`SimServer` on a background thread — the in-process
    harness tests, benchmarks, and notebooks use (``with
    ServerThread(port=0) as srv: srv.port ...``)."""

    def __init__(self, **server_kwargs: Any) -> None:
        self.server = SimServer(**server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._failure: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("server thread failed to start")
        if self._failure is not None:
            raise RuntimeError("server thread died") from self._failure
        return self

    def _main(self) -> None:
        async def body() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # pragma: no cover — bind errors
                self._failure = exc
                self._started.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_until_shutdown()

        try:
            asyncio.run(body())
        except BaseException:  # pragma: no cover — surfaced via start()
            if not self._started.is_set():
                self._started.set()

    def shutdown(self) -> None:
        """Drain from any thread (the test suite's stand-in for
        SIGTERM — :meth:`SimServer.run` wires the real signal to the
        same :meth:`SimServer.shutdown`)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), loop
            ).result(timeout=60.0)
        if self._thread is not None:
            self._thread.join(timeout=60.0)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ServerThread",
    "SimServer",
]

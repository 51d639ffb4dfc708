"""repro.serve — the long-running simulation service.

A stdlib-only asyncio HTTP server in front of the sweep runtime:
typed requests (:class:`SimRequest` / :class:`SweepRequest`),
fair-share priority scheduling with admission control and request
coalescing (:class:`Scheduler`), executor batching
(:class:`Dispatcher`), and a graceful drain that checkpoints the
unserved queue for the next process (:class:`QueueCheckpoint`).

Start one from the CLI::

    python -m repro.experiments serve --port 8642 --jobs 4

or in-process (tests, notebooks)::

    from repro.serve import Client, ServerThread

    with ServerThread(port=0, cache=cache) as srv:
        body = Client(port=srv.port).simulate(
            {"design": "chameleon", "workload": "mcf"}
        )

See docs/SERVING.md for the wire format and scheduling semantics.
"""

from repro.serve.checkpoint import CHECKPOINT_NAME, QueueCheckpoint
from repro.serve.client import Client, ServeError
from repro.serve.dispatcher import (
    DEFAULT_MAX_BATCH,
    Dispatcher,
    MAX_JOB_ATTEMPTS,
)
from repro.serve.metrics import METRICS_SCHEMA_VERSION, ServerMetrics
from repro.serve.protocol import (
    BadRequest,
    SimRequest,
    SweepRequest,
    WIRE_VERSION,
    canonical_payload,
    request_digest,
)
from repro.serve.scheduler import (
    DEFAULT_MAX_QUEUE,
    Job,
    QueueFull,
    Scheduler,
)
from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServerThread,
    SimServer,
)

__all__ = [
    "BadRequest",
    "CHECKPOINT_NAME",
    "Client",
    "DEFAULT_HOST",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_PORT",
    "Dispatcher",
    "Job",
    "MAX_JOB_ATTEMPTS",
    "METRICS_SCHEMA_VERSION",
    "QueueCheckpoint",
    "QueueFull",
    "Scheduler",
    "ServeError",
    "ServerMetrics",
    "ServerThread",
    "SimRequest",
    "SimServer",
    "SweepRequest",
    "WIRE_VERSION",
    "canonical_payload",
    "request_digest",
]

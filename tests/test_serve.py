"""The simulation service: wire protocol, scheduling, coalescing,
admission control, dispatch, drain/resume, and the HTTP surface.

The end-to-end tests run a real :class:`~repro.serve.ServerThread` on
an ephemeral port and drive it with the blocking
:class:`~repro.serve.Client`, at a tiny scale so a simulated cell
takes well under a second.
"""

import asyncio
import json
import threading

import pytest

from repro import api
from repro.runtime import ResultCache
from repro.serve import (
    BadRequest,
    Client,
    QueueCheckpoint,
    QueueFull,
    Scheduler,
    ServeError,
    ServerThread,
    SimRequest,
    SweepRequest,
    canonical_payload,
)
from repro.serve.metrics import METRICS_SCHEMA_VERSION, ServerMetrics, percentile
from repro.serve.scheduler import CHECKPOINTED, DONE, Job
from repro.telemetry import EventBus
from repro.telemetry.events import ServeEvent, event_from_dict
from tests.conftest import scale_request_kwargs, tiny_scale

TINY_SCALE = tiny_scale(accesses=40)
TINY = scale_request_kwargs(TINY_SCALE)


def tiny_request(design="Chameleon", workload="mcf", **extra):
    return SimRequest(design=design, workload=workload, **TINY, **extra)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_sim_request_round_trip(self):
        req = tiny_request(client="alice", priority=3)
        again = SimRequest.from_dict(req.to_dict())
        assert again == req

    def test_sweep_request_round_trip(self):
        req = SweepRequest(
            designs=("Chameleon", "PoM"), workloads=("mcf", "bwaves"), **TINY
        )
        assert SweepRequest.from_dict(req.to_dict()) == req

    def test_unknown_field_rejected(self):
        payload = tiny_request().to_dict()
        payload["bogus"] = 1
        with pytest.raises(BadRequest):
            SimRequest.from_dict(payload)

    def test_digest_ignores_client_and_priority(self):
        a = tiny_request(client="alice", priority=9)
        b = tiny_request(client="bob", priority=0)
        assert a.digest == b.digest

    def test_digest_distinguishes_cells_and_scale(self):
        base = tiny_request()
        assert base.digest != tiny_request(workload="bwaves").digest
        assert (
            base.digest
            != SimRequest(
                design="Chameleon", workload="mcf", **{**TINY, "seed": 1}
            ).digest
        )

    def test_sweep_cells_inherit_client_and_priority(self):
        sweep = SweepRequest(
            designs=("Chameleon", "PoM"),
            workloads=("mcf",),
            client="carol",
            priority=2,
            **TINY,
        )
        cells = sweep.cells()
        assert [c.cell for c in cells] == [
            ("Chameleon", "mcf"),
            ("PoM", "mcf"),
        ]
        assert all(c.client == "carol" and c.priority == 2 for c in cells)

    def test_canonical_payload_is_stable_bytes(self):
        a = canonical_payload({"b": 1, "a": 2})
        b = canonical_payload({"a": 2, "b": 1})
        assert a == b
        assert a.endswith(b"\n")
        assert json.loads(a) == {"a": 2, "b": 1}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.5) == 2.0
        assert percentile(samples, 0.95) == 4.0
        assert percentile([], 0.5) == 0.0

    def test_snapshot_schema(self):
        metrics = ServerMetrics()
        metrics.received = 3
        metrics.record_latency(0.5, "simulated")
        snap = metrics.snapshot(queue_depth=2, in_flight=1)
        assert snap["schema"] == METRICS_SCHEMA_VERSION
        assert snap["queue_depth"] == 2
        assert snap["in_flight"] == 1
        assert set(snap["requests"]) == {
            "received", "admitted", "coalesced", "job_hits",
            "cache_hits", "rejected",
        }
        assert set(snap["jobs"]) == {
            "completed", "failed", "checkpointed", "resumed",
        }
        assert set(snap["latency"]) >= {"count", "p50_ms", "p95_ms"}


# ----------------------------------------------------------------------
# Scheduler (unit, inside an event loop so jobs can build futures)
# ----------------------------------------------------------------------


def in_loop(coro_fn):
    return asyncio.run(coro_fn())


class TestScheduler:
    def test_coalesces_identical_requests(self):
        async def body():
            sched = Scheduler(None, max_queue=8)
            first = sched.submit(tiny_request(client="a"))
            second = sched.submit(tiny_request(client="b"))
            assert first is second
            assert sched.metrics.coalesced == 1
            assert sched.queue_depth == 1

        in_loop(body)

    def test_queue_full_rejects_with_retry_after(self):
        async def body():
            sched = Scheduler(None, max_queue=1)
            sched.submit(tiny_request())
            with pytest.raises(QueueFull) as info:
                sched.submit(tiny_request(workload="bwaves"))
            assert info.value.retry_after >= 1.0
            assert sched.metrics.rejected == 1

        in_loop(body)

    def test_unknown_design_rejected(self):
        async def body():
            sched = Scheduler(None)
            with pytest.raises(BadRequest):
                sched.submit(tiny_request(design="nope"))
            with pytest.raises(BadRequest):
                sched.submit(tiny_request(workload="nope"))

        in_loop(body)

    def test_round_robin_across_clients(self):
        async def body():
            sched = Scheduler(None, max_queue=16)
            # Client a floods first; client b arrives later.
            for workload in ("mcf", "bwaves", "comd"):
                sched.submit(tiny_request(workload=workload, client="a"))
            sched.submit(tiny_request(workload="lbm", client="b"))
            batch = sched.next_batch(max_batch=2)
            clients = {job.request.client for job in batch}
            assert clients == {"a", "b"}  # b is not starved behind a

        in_loop(body)

    def test_priority_wins_within_client(self):
        async def body():
            sched = Scheduler(None, max_queue=16)
            sched.submit(tiny_request(workload="mcf", priority=0))
            urgent = sched.submit(tiny_request(workload="bwaves", priority=5))
            batch = sched.next_batch(max_batch=1)
            assert batch[0] is urgent

        in_loop(body)

    def test_batch_only_gathers_compatible_scales(self):
        async def body():
            sched = Scheduler(None, max_queue=16)
            sched.submit(tiny_request(workload="mcf"))
            other_scale = SimRequest(
                design="Chameleon",
                workload="bwaves",
                **{**TINY, "accesses_per_core": 80},
            )
            sched.submit(other_scale)
            batch = sched.next_batch(max_batch=8)
            assert len(batch) == 1
            assert sched.queue_depth == 1  # incompatible job stays queued

        in_loop(body)

    def test_drain_empties_queue_for_checkpoint(self):
        async def body():
            sched = Scheduler(None, max_queue=16)
            sched.submit(tiny_request(workload="mcf"))
            sched.submit(tiny_request(workload="bwaves"))
            drained = sched.drain()
            assert len(drained) == 2
            assert sched.queue_depth == 0
            assert sched.metrics.checkpointed == 2

        in_loop(body)


# ----------------------------------------------------------------------
# Checkpoint file
# ----------------------------------------------------------------------


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ckpt = QueueCheckpoint(tmp_path)
        requests = [tiny_request(), tiny_request(workload="bwaves")]
        ckpt.write(requests)
        assert ckpt.exists
        assert ckpt.load() == requests
        ckpt.discard()
        assert not ckpt.exists
        assert ckpt.load() == []

    def test_torn_tail_tolerated(self, tmp_path):
        ckpt = QueueCheckpoint(tmp_path)
        ckpt.write([tiny_request(), tiny_request(workload="bwaves")])
        data = ckpt.path.read_bytes()
        ckpt.path.write_bytes(data[:-10])  # kill mid-write
        recovered = ckpt.load()
        assert recovered == [tiny_request()]

    def test_foreign_wire_discarded(self, tmp_path):
        ckpt = QueueCheckpoint(tmp_path)
        ckpt.path.parent.mkdir(parents=True, exist_ok=True)
        ckpt.path.write_text(
            json.dumps({"kind": "serve-queue", "wire": 999}) + "\n"
        )
        assert ckpt.load() == []


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


class TestServeTelemetry:
    def test_serve_event_round_trips(self):
        event = ServeEvent(
            1.5, action="admit", job="abc", client="a", queue_depth=2
        )
        assert event_from_dict(event.to_dict()) == event

    def test_scheduler_emits_lifecycle_events(self):
        async def body():
            bus = EventBus()
            seen = []
            bus.subscribe(seen.append)
            sched = Scheduler(None, max_queue=4, bus=bus)
            sched.submit(tiny_request())
            sched.submit(tiny_request())  # coalesce
            sched.drain()
            actions = [e.action for e in seen]
            assert actions == ["admit", "coalesce", "drain"]

        in_loop(body)


# ----------------------------------------------------------------------
# Executor batching hook
# ----------------------------------------------------------------------


class TestRunCells:
    def test_run_cells_matches_run(self, tmp_path):
        from repro.runtime import SweepExecutor

        scale = TINY_SCALE
        full = SweepExecutor(faults=None).run(scale, ["PoM"])
        cells = SweepExecutor(faults=None).run_cells(
            scale, [("PoM", "mcf")]
        )
        assert dict(full) == dict(cells)

    def test_run_cells_rejects_duplicates(self):
        from repro.experiments.runner import SMOKE_SCALE
        from repro.runtime import SweepExecutor

        with pytest.raises(ValueError, match="duplicate"):
            SweepExecutor(faults=None).run_cells(
                SMOKE_SCALE, [("PoM", "mcf"), ("PoM", "mcf")]
            )


# ----------------------------------------------------------------------
# End to end over HTTP
# ----------------------------------------------------------------------


@pytest.fixture()
def served(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with ServerThread(
        port=0, cache=cache, checkpoint_dir=tmp_path / "ckpt"
    ) as srv:
        yield Client(port=srv.port), srv


@pytest.mark.slow
class TestEndToEnd:
    """Real server + HTTP client end-to-end; ``slow`` keeps the
    socket-bound suite out of tier-1 (the serve-smoke job opts in)."""

    def test_healthz_and_metrics_schema(self, served):
        client, _ = served
        health = client.healthz()
        assert health["status"] == "ok"
        snap = client.metrics()
        assert snap["schema"] == METRICS_SCHEMA_VERSION
        assert {"queue_depth", "in_flight", "requests", "jobs",
                "dispatch", "cache_hit_ratio", "latency"} <= set(snap)

    def test_simulate_and_warm_cache_no_worker(self, served):
        client, _ = served
        payload = {**TINY, "design": "Chameleon", "workload": "mcf"}
        _, _, first = client.request(
            "POST", "/v1/simulate", {**payload, "wait": True}
        )
        body = json.loads(first)
        assert body["status"] == DONE
        assert body["result"]["workload"] == "mcf"
        cold = client.metrics()

        # Identical request again: answered without a worker cell,
        # byte-identical to the first response.
        _, _, second = client.request(
            "POST", "/v1/simulate", {**payload, "wait": True}
        )
        assert second == first
        warm = client.metrics()
        assert warm["dispatch"]["worker_cells"] == (
            cold["dispatch"]["worker_cells"]
        )
        assert warm["requests"]["job_hits"] == (
            cold["requests"]["job_hits"] + 1
        )

    def test_result_matches_direct_api(self, served):
        client, _ = served
        body = client.simulate(
            {**TINY, "design": "PoM", "workload": "mcf"}
        )
        direct = api.simulate(
            design="PoM",
            workload="mcf",
            config=api.scaled_config(fast_mb=TINY["fast_mb"]),
            accesses_per_core=TINY["accesses_per_core"],
            warmup_per_core=TINY["warmup_per_core"],
            num_copies=TINY["num_copies"],
        )
        assert body["result"] == direct.to_dict()

    def test_concurrent_duplicates_coalesce(self, served):
        client, _ = served
        payload = {
            **TINY, "design": "Chameleon", "workload": "bwaves",
            "wait": True,
        }
        raws = [None] * 4

        def post(i):
            raws[i] = client.request("POST", "/v1/simulate", payload)[2]

        threads = [
            threading.Thread(target=post, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(set(raws)) == 1  # byte-identical responses
        snap = client.metrics()
        assert snap["dispatch"]["worker_cells"] == 1
        assert snap["requests"]["coalesced"] == 3

    def test_sweep_endpoint(self, served):
        client, _ = served
        body = client.sweep(
            {
                **TINY,
                "designs": ["Chameleon", "PoM"],
                "workloads": ["mcf"],
            }
        )
        assert body["status"] == DONE
        assert set(body["results"]) == {"Chameleon/mcf", "PoM/mcf"}

    def test_unknown_design_is_400(self, served):
        client, _ = served
        with pytest.raises(ServeError) as info:
            client.simulate({**TINY, "design": "nope", "workload": "mcf"})
        assert info.value.status == 400

    def test_unknown_route_is_404(self, served):
        client, _ = served
        status, _, _ = client.request("GET", "/nope")
        assert status == 404

    def test_job_poll_endpoint(self, served):
        client, _ = served
        body = client.simulate(
            {**TINY, "design": "Chameleon", "workload": "comd"}
        )
        polled = client.job(body["job"])
        assert polled["status"] == DONE
        with pytest.raises(ServeError) as info:
            client.job("feedfacefeedface")
        assert info.value.status == 404


@pytest.mark.slow
class TestBackpressure:
    def test_admission_rejects_when_queue_full(self, tmp_path):
        # hold=True queues without dispatching, so depth is exact.
        with ServerThread(
            port=0, max_queue=1, hold=True,
            checkpoint_dir=tmp_path / "ckpt",
        ) as srv:
            client = Client(port=srv.port)
            first = client.simulate(
                {**TINY, "design": "Chameleon", "workload": "mcf",
                 "wait": False},
            )
            assert first["status"] == "queued"
            with pytest.raises(ServeError) as info:
                client.simulate(
                    {**TINY, "design": "Chameleon", "workload": "bwaves",
                     "wait": False},
                )
            assert info.value.status == 429
            assert info.value.retry_after is not None
            assert info.value.retry_after >= 1.0
            snap = client.metrics()
            assert snap["requests"]["rejected"] == 1


@pytest.mark.slow
class TestDrainResume:
    def test_drain_and_resume_round_trip(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ckpt_dir = tmp_path / "ckpt"
        payload = {**TINY, "design": "Chameleon", "workload": "mcf",
                   "wait": False}

        # First server holds (never dispatches); drain checkpoints.
        srv = ServerThread(
            port=0, cache=ResultCache(cache_dir),
            checkpoint_dir=ckpt_dir, hold=True,
        ).start()
        client = Client(port=srv.port)
        queued = client.simulate(payload)
        job_id = queued["job"]
        srv.shutdown()
        assert QueueCheckpoint(ckpt_dir).exists

        # Second server resumes the queue and serves it to completion.
        srv2 = ServerThread(
            port=0, cache=ResultCache(cache_dir), checkpoint_dir=ckpt_dir
        ).start()
        try:
            client2 = Client(port=srv2.port)
            done = client2.wait_job(job_id, timeout=120)
            assert done["status"] == DONE
            assert done["job"] == job_id
            assert not QueueCheckpoint(ckpt_dir).exists
            assert client2.metrics()["jobs"]["resumed"] == 1

            # Byte-identical to a fresh request for the same cell.
            _, _, poll_raw = client2.request("GET", f"/v1/jobs/{job_id}")
            _, _, fresh_raw = client2.request(
                "POST", "/v1/simulate", {**payload, "wait": True}
            )
            assert poll_raw == fresh_raw
        finally:
            srv2.shutdown()

    def test_checkpointed_waiter_gets_503(self, tmp_path):
        async def body():
            sched = Scheduler(None, max_queue=4)
            job = sched.submit(tiny_request())
            for drained in sched.drain():
                drained.checkpoint(retry_after=2.0)
            raw = await job.future
            assert job.http_status == 503
            decoded = json.loads(raw)
            assert decoded["status"] == CHECKPOINTED
            assert decoded["retry_after"] == 2.0

        in_loop(body)

    def test_posts_rejected_while_draining(self, tmp_path):
        srv = ServerThread(
            port=0, hold=True, checkpoint_dir=tmp_path / "ckpt"
        ).start()
        client = Client(port=srv.port)
        srv.server.draining = True  # simulate mid-drain window
        try:
            with pytest.raises(ServeError) as info:
                client.simulate(
                    {**TINY, "design": "Chameleon", "workload": "mcf"}
                )
            assert info.value.status == 503
        finally:
            srv.server.draining = False
            srv.shutdown()

"""The sweep executor: parallel/serial equivalence, cache integration,
failure isolation, metrics accounting, and the run_design_sweep
rewiring.

Cache-exactness tests pass ``faults=None`` so their hit/miss
assertions stay valid when the whole file runs under an injected
``$REPRO_FAULTS`` plan (the CI fault matrix); everything else keeps
the environment plan active on purpose — equivalence and accounting
must hold *under* injected crashes, hangs, and transient errors.
"""

import multiprocessing

import pytest

from repro.experiments import SMOKE_SCALE
from repro.experiments.runner import clear_sweep_cache, run_design_sweep
from repro.runtime import (
    FaultPlan,
    InjectedFault,
    ResultCache,
    SweepExecutor,
    SweepJobError,
)

DESIGNS = ("PoM", "Chameleon-Opt")


class TestParallelEquivalence:
    def test_parallel_matches_serial_exactly(self):
        """The acceptance bar: 4 workers, bit-identical to serial."""
        serial = SweepExecutor(jobs=1).run(SMOKE_SCALE, DESIGNS)
        parallel = SweepExecutor(jobs=4).run(SMOKE_SCALE, DESIGNS)
        assert set(serial) == set(parallel)
        for cell in serial:
            assert parallel[cell] == serial[cell]
            assert parallel[cell].geomean_ipc == serial[cell].geomean_ipc
            assert parallel[cell].fast_hit_rate == serial[cell].fast_hit_rate
            assert parallel[cell].swaps == serial[cell].swaps

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_unknown_design_rejected_before_running(self):
        with pytest.raises(KeyError):
            SweepExecutor().run(SMOKE_SCALE, ("NotADesign",))


class TestTelemetryCapture:
    """Telemetry is observational: identical results with it on or off,
    no events in the cache, streams merged at the parent."""

    def test_results_bit_identical_with_telemetry_and_audit(self):
        from repro.telemetry import EventBus

        plain = SweepExecutor(jobs=1).run(SMOKE_SCALE, DESIGNS)
        traced_executor = SweepExecutor(
            jobs=1, telemetry=EventBus(), audit=True
        )
        traced = traced_executor.run(SMOKE_SCALE, DESIGNS)
        assert set(traced) == set(plain)
        for cell in plain:
            assert traced[cell].to_dict() == plain[cell].to_dict()
        # ... and the traced run actually captured something.
        assert set(traced_executor.events) == set(plain)
        assert all(traced_executor.events.values())

    def test_pooled_capture_matches_serial_capture(self):
        from repro.telemetry import EventBus, TelemetryEvent

        serial = SweepExecutor(jobs=1, telemetry=EventBus())
        serial.run(SMOKE_SCALE, DESIGNS)
        pooled = SweepExecutor(jobs=4, telemetry=EventBus())
        pooled.run(SMOKE_SCALE, DESIGNS)
        assert set(serial.events) == set(pooled.events)
        for cell, stream in serial.events.items():
            # Events cross the pool as the objects themselves, on
            # both paths.
            for captured in (stream, pooled.events[cell]):
                assert captured
                assert all(isinstance(e, TelemetryEvent) for e in captured)
            assert pooled.events[cell] == stream
            assert [e.to_dict() for e in pooled.events[cell]] == [
                e.to_dict() for e in stream
            ]

    def test_events_replay_onto_the_parent_bus(self):
        from repro.telemetry import EventBus, EventLog

        bus = EventBus()
        log = bus.subscribe(EventLog())
        executor = SweepExecutor(jobs=1, telemetry=bus)
        executor.run(SMOKE_SCALE, ("PoM",))
        # Host-side retry notifications share the bus but are not part
        # of any cell's captured stream.
        cell_events = [e for e in log.events if e.kind != "job_retry"]
        assert len(cell_events) == sum(
            len(stream) for stream in executor.events.values()
        )

    def test_cached_cells_stay_event_free_and_identical(self, tmp_path):
        from repro.telemetry import EventBus

        cold = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path), faults=None
        )
        first = cold.run(SMOKE_SCALE, ("PoM",))
        warm = SweepExecutor(
            jobs=1,
            cache=ResultCache(tmp_path),
            telemetry=EventBus(),
            faults=None,
        )
        second = warm.run(SMOKE_SCALE, ("PoM",))
        # Warm-cache replay is bit-identical to the traced-off run and
        # produces no events (cells were never re-simulated).
        assert warm.metrics.simulated == 0
        assert warm.events == {}
        for cell in first:
            assert second[cell].to_dict() == first[cell].to_dict()

    def test_audit_runs_inside_workers(self):
        # Pooled path: the auditor attaches inside each worker process;
        # a clean sweep over real designs must not raise.
        from repro.telemetry import EventBus

        executor = SweepExecutor(jobs=4, telemetry=EventBus(), audit=True)
        results = executor.run(SMOKE_SCALE, ("Chameleon",))
        assert len(results) == len(SMOKE_SCALE.benchmarks)


class TestCacheIntegration:
    def test_warm_cache_serves_without_simulating(self, tmp_path):
        cold = SweepExecutor(
            jobs=2, cache=ResultCache(tmp_path), faults=None
        )
        first = cold.run(SMOKE_SCALE, DESIGNS)
        assert cold.metrics.simulated == len(first)
        assert cold.metrics.disk_hits == 0

        warm = SweepExecutor(
            jobs=2, cache=ResultCache(tmp_path), faults=None
        )
        second = warm.run(SMOKE_SCALE, DESIGNS)
        assert warm.metrics.simulated == 0
        assert warm.metrics.disk_hits == len(second)
        assert warm.metrics.cache_hit_rate == pytest.approx(1.0)
        assert second == first

    def test_partial_cache_simulates_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache, faults=None).run(SMOKE_SCALE, ("PoM",))
        executor = SweepExecutor(cache=ResultCache(tmp_path), faults=None)
        executor.run(SMOKE_SCALE, DESIGNS)
        n_workloads = len(SMOKE_SCALE.benchmarks)
        assert executor.metrics.disk_hits == n_workloads
        assert executor.metrics.simulated == n_workloads


class TestFailureIsolation:
    """A failing job surfaces as SweepJobError naming exactly which
    (design, workload) cell died — never a bare pool exception."""

    def test_serial_failure_carries_job_context(self):
        plan = FaultPlan(seed=0, errors=1)
        executor = SweepExecutor(
            jobs=1, retries=0, faults=plan, backoff=0.0
        )
        with pytest.raises(SweepJobError) as excinfo:
            executor.run(SMOKE_SCALE, ("PoM",))
        err = excinfo.value
        assert err.design == "PoM"
        assert err.workload in SMOKE_SCALE.benchmarks
        assert err.attempts == 1
        assert isinstance(err.__cause__, InjectedFault)
        assert err.design in str(err) and err.workload in str(err)

    def test_pooled_failure_carries_job_context(self):
        plan = FaultPlan(seed=0, errors=1)
        executor = SweepExecutor(
            jobs=2, retries=0, faults=plan, backoff=0.0
        )
        with pytest.raises(SweepJobError) as excinfo:
            executor.run(SMOKE_SCALE, ("PoM",))
        err = excinfo.value
        assert (err.design, err.workload) in [
            ("PoM", w) for w in SMOKE_SCALE.benchmarks
        ]
        assert executor.metrics.errors == 1

    def test_crash_is_isolated_and_retried(self):
        plan = FaultPlan(seed=1, crashes=1)
        executor = SweepExecutor(
            jobs=2, retries=1, faults=plan, backoff=0.0
        )
        results = executor.run(SMOKE_SCALE, ("PoM",))
        # The dead worker cost one retry of its own job; every other
        # cell completed untouched.
        assert len(results) == len(SMOKE_SCALE.benchmarks)
        assert executor.metrics.crashes == 1
        assert executor.metrics.retries == 1


class TestWorkerReuse:
    """Pool workers are forked once per sweep and fed cells over their
    pipe; none outlives the sweep, however it ends."""

    def test_fault_free_sweep_spawns_one_worker_per_slot(self, spawned):
        executor = SweepExecutor(jobs=2, faults=None)
        results = executor.run(SMOKE_SCALE, DESIGNS)
        assert len(results) == 6
        assert len(spawned) == 2
        assert multiprocessing.active_children() == []

    def test_small_sweep_spawns_no_spare_workers(self, spawned):
        SweepExecutor(jobs=4, faults=None).run(SMOKE_SCALE, ("PoM",))
        assert len(spawned) == len(SMOKE_SCALE.benchmarks)
        assert multiprocessing.active_children() == []

    def test_failed_sweep_leaves_no_workers(self, spawned):
        plan = FaultPlan(seed=0, errors=1)
        executor = SweepExecutor(
            jobs=2, retries=0, faults=plan, backoff=0.0
        )
        with pytest.raises(SweepJobError):
            executor.run(SMOKE_SCALE, DESIGNS)
        assert spawned
        assert multiprocessing.active_children() == []

    def test_interrupted_sweep_leaves_no_workers(self, spawned):
        def interrupt(stat, done, total):
            raise KeyboardInterrupt

        executor = SweepExecutor(jobs=2, faults=None, on_cell=interrupt)
        with pytest.raises(KeyboardInterrupt):
            executor.run(SMOKE_SCALE, DESIGNS)
        assert len(spawned) == 2
        assert multiprocessing.active_children() == []


class TestMetrics:
    def test_accounting_shape(self):
        executor = SweepExecutor(jobs=1)
        executor.run(SMOKE_SCALE, ("PoM",))
        metrics = executor.metrics
        assert metrics.cells_total == len(SMOKE_SCALE.benchmarks)
        assert metrics.simulated == metrics.cells_total
        assert metrics.sweeps == 1
        assert metrics.wall_seconds > 0
        assert metrics.busy_seconds > 0
        assert 0.0 < metrics.worker_utilisation <= 1.0
        assert metrics.mean_cell_seconds > 0
        assert "cells=" in metrics.summary()

    def test_progress_callback_sees_every_cell(self):
        seen = []
        executor = SweepExecutor(
            on_cell=lambda stat, done, total: seen.append(
                (stat.design, stat.workload, done, total)
            )
        )
        executor.run(SMOKE_SCALE, ("PoM",))
        total = len(SMOKE_SCALE.benchmarks)
        assert len(seen) == total
        assert seen[-1][2:] == (total, total)

    def test_metrics_accumulate_across_sweeps(self):
        executor = SweepExecutor()
        executor.run(SMOKE_SCALE, ("PoM",))
        executor.run(SMOKE_SCALE, ("Chameleon-Opt",))
        assert executor.metrics.sweeps == 2
        assert executor.metrics.cells_total == 2 * len(
            SMOKE_SCALE.benchmarks
        )


class TestRunDesignSweepRewiring:
    def test_explicit_executor_is_used(self, tmp_path):
        clear_sweep_cache()
        executor = SweepExecutor(jobs=2, cache=ResultCache(tmp_path))
        results = run_design_sweep(
            SMOKE_SCALE, ("PoM",), use_cache=False, executor=executor
        )
        assert executor.metrics.cells_total == len(results)

    def test_memo_shortcuts_the_executor(self, tmp_path):
        clear_sweep_cache()
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        first = run_design_sweep(SMOKE_SCALE, ("PoM",), executor=executor)
        again = run_design_sweep(SMOKE_SCALE, ("PoM",), executor=executor)
        # The in-process memo returns the same objects without another
        # executor round (no new cells recorded).
        assert again[("PoM", "mcf")] is first[("PoM", "mcf")]
        assert executor.metrics.cells_total == len(first)
        clear_sweep_cache()

    def test_disk_cache_refills_after_memo_clear(self, tmp_path):
        clear_sweep_cache()
        executor = SweepExecutor(cache=ResultCache(tmp_path), faults=None)
        run_design_sweep(SMOKE_SCALE, ("PoM",), executor=executor)
        clear_sweep_cache()
        warm = SweepExecutor(cache=ResultCache(tmp_path), faults=None)
        run_design_sweep(SMOKE_SCALE, ("PoM",), executor=warm)
        assert warm.metrics.simulated == 0
        assert warm.metrics.disk_hits == len(SMOKE_SCALE.benchmarks)
        clear_sweep_cache()

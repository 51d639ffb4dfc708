"""Deterministic fault injection, retry/timeout tolerance, graceful
degradation, and interrupted-sweep re-runs for the sweep runtime.

The load-bearing property, checked across both simulation kernels
(PoM sweeps run batched, Alloy-Cache runs scalar): **any** fault plan
the executor is provisioned to survive yields results byte-equal
(``to_dict()``) to a fault-free serial run.  Faults may cost retries
and wall-clock, never bits.

Every executor here passes an explicit ``faults=`` argument so the
suite stays meaningful when CI layers its own ``$REPRO_FAULTS`` plan
over the whole test run (the fault-matrix job).
"""

import multiprocessing
import pickle
import random
import signal

import pytest

from repro.experiments import SMOKE_SCALE
from repro.experiments.designs import REGISTRY
from repro.runtime import (
    FAULT_CORRUPT,
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_HANG,
    FaultPlan,
    InjectedFault,
    JobTimeoutError,
    ResultCache,
    SweepExecutor,
    SweepJobError,
    WorkerCrashError,
    apply_fault,
)
from tests.conftest import tiny_scale

# One design per kernel: PoM sweeps use the batched replay kernel,
# Alloy-Cache the scalar one — equality must hold under both.
DESIGNS = ("PoM", "Alloy-Cache")

TINY = tiny_scale(benchmarks=("mcf", "comd"))

# Wall-clock budget for one *healthy* TINY cell, with headroom for a
# loaded CI box; injected hangs sleep far longer, so the timeout still
# fires only for them.
TIMEOUT = 5.0
HANG = 60.0


def run_plain(scale=TINY, designs=DESIGNS):
    executor = SweepExecutor(jobs=1, faults=None)
    return {
        cell: r.to_dict()
        for cell, r in executor.run(scale, designs).items()
    }


@pytest.fixture(scope="module")
def reference():
    """Fault-free serial results for the TINY grid, as wire dicts."""
    return run_plain()


class TestFaultPlanSpec:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7,crash=3,hang=1,error=2,corrupt=1,"
            "retries=4,timeout=5,hang-seconds=0.5"
        )
        assert plan == FaultPlan(
            seed=7,
            crashes=3,
            hangs=1,
            errors=2,
            corrupt=1,
            retries=4,
            timeout=5.0,
            hang_seconds=0.5,
        )
        assert plan.total == 7

    def test_parse_accepts_plural_and_underscore_keys(self):
        plan = FaultPlan.parse("crashes=1, hangs = 2,hang_seconds=3")
        assert (plan.crashes, plan.hangs, plan.hang_seconds) == (1, 2, 3.0)

    @pytest.mark.parametrize(
        "spec",
        ["crash", "explode=1", "crash=two", "=3", "crash=1;hang=2"],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=-1)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=3,error=2,retries=1")
        plan = FaultPlan.from_env()
        assert plan == FaultPlan(seed=3, errors=2, retries=1)
        monkeypatch.setenv("REPRO_FAULTS", "  ")
        assert FaultPlan.from_env() is None
        monkeypatch.delenv("REPRO_FAULTS")
        assert FaultPlan.from_env() is None

    def test_executor_adopts_env_plan(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "seed=1,error=1,retries=7,timeout=11"
        )
        executor = SweepExecutor(jobs=1)
        assert executor.faults == FaultPlan(
            seed=1, errors=1, retries=7, timeout=11.0
        )
        assert executor.retries == 7
        assert executor.timeout == 11.0
        # Explicit arguments beat the plan's suggestions.
        explicit = SweepExecutor(jobs=1, retries=0, timeout=2.0)
        assert explicit.retries == 0
        assert explicit.timeout == 2.0


class TestFaultAssignment:
    GRID = [(d, w) for d in DESIGNS for w in TINY.benchmarks]

    def test_same_seed_same_assignment(self):
        plan = FaultPlan(seed=11, crashes=1, hangs=1, errors=1)
        assert plan.materialise(self.GRID) == plan.materialise(self.GRID)

    def test_assignment_ignores_cell_order_and_duplicates(self, rng):
        plan = FaultPlan(seed=11, crashes=2, errors=1)
        shuffled = list(self.GRID)
        rng.shuffle(shuffled)
        assert plan.materialise(shuffled + shuffled) == plan.materialise(
            self.GRID
        )

    def test_at_most_one_fault_per_cell_and_truncation(self):
        plan = FaultPlan(seed=0, crashes=3, hangs=3, errors=3, corrupt=3)
        assignment = plan.materialise(self.GRID)
        assert len(assignment) == len(self.GRID)  # 12 wanted, 4 cells
        assert set(assignment) <= set(self.GRID)

    def test_counts_respected_when_grid_is_large_enough(self):
        grid = [(d, f"w{i}") for d in DESIGNS for i in range(10)]
        plan = FaultPlan(seed=5, crashes=2, hangs=1, errors=3, corrupt=1)
        kinds = list(plan.materialise(grid).values())
        assert kinds.count(FAULT_CRASH) == 2
        assert kinds.count(FAULT_HANG) == 1
        assert kinds.count(FAULT_ERROR) == 3
        assert kinds.count(FAULT_CORRUPT) == 1


class TestApplyFault:
    def test_error_raises_injected_fault(self):
        with pytest.raises(InjectedFault):
            apply_fault(FAULT_ERROR, serial=True)

    def test_serial_crash_becomes_worker_crash_error(self):
        with pytest.raises(WorkerCrashError):
            apply_fault(FAULT_CRASH, serial=True)

    def test_serial_hang_becomes_timeout_error(self):
        with pytest.raises(JobTimeoutError):
            apply_fault(FAULT_HANG, serial=True)

    def test_pooled_hang_just_sleeps(self):
        apply_fault(FAULT_HANG, serial=False, hang_seconds=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_fault("meltdown", serial=True)


class TestSweepJobError:
    def test_pickle_round_trip_keeps_context(self):
        err = SweepJobError("PoM", "mcf", 3, InjectedFault("boom"))
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, SweepJobError)
        assert (clone.design, clone.workload, clone.attempts) == (
            "PoM", "mcf", 3,
        )
        assert isinstance(clone.cause, InjectedFault)
        assert "PoM/mcf" in str(clone)


@pytest.mark.slow
class TestByteEquality:
    """Property-based (seeded stdlib ``random``): random tolerable
    plans never change a single bit of the sweep results.

    Marked ``slow``: the acceptance sweep and the pooled plans are the
    longest cells in the tree; the fault-matrix CI job opts back in.
    """

    @pytest.mark.parametrize("case", range(4))
    def test_random_worker_fault_plans(self, case, reference, session_seed):
        rng = random.Random(f"{session_seed}:fault-plan:{case}")
        plan = FaultPlan(
            seed=rng.randrange(1 << 16),
            crashes=rng.randint(0, 2),
            hangs=rng.randint(0, 1),
            errors=rng.randint(0, 2),
            hang_seconds=HANG,
        )
        jobs = rng.choice((1, 2))
        executor = SweepExecutor(
            jobs=jobs,
            faults=plan,
            retries=max(1, plan.total),
            timeout=TIMEOUT,
            backoff=0.0,
        )
        results = executor.run(TINY, DESIGNS)
        assert {c: r.to_dict() for c, r in results.items()} == reference
        fired = min(plan.total, len(reference))
        assert executor.metrics.failures == fired
        assert executor.metrics.retries == fired

    @pytest.mark.parametrize("case", range(3))
    def test_random_corruption_with_warm_cache(
        self, case, reference, tmp_path, session_seed
    ):
        rng = random.Random(f"{session_seed}:fault-corrupt:{case}")
        plan = FaultPlan(
            seed=rng.randrange(1 << 16), corrupt=rng.randint(1, 2)
        )
        cache = ResultCache(tmp_path)
        warmup = SweepExecutor(jobs=1, cache=cache, faults=None)
        warmup.run(TINY, DESIGNS)

        executor = SweepExecutor(
            jobs=rng.choice((1, 2)),
            cache=ResultCache(tmp_path),
            faults=plan,
            retries=plan.total,
            backoff=0.0,
        )
        results = executor.run(TINY, DESIGNS)
        assert {c: r.to_dict() for c, r in results.items()} == reference
        # Exactly the corrupted entries were re-simulated; the rest
        # were served from disk.
        assert executor.cache.stats.corrupt == plan.corrupt
        assert executor.metrics.simulated == plan.corrupt
        assert executor.metrics.disk_hits == len(reference) - plan.corrupt

    def test_acceptance_plan_on_fig15_smoke_sweep(self, tmp_path):
        """The ISSUE acceptance bar: >=3 crashes + 1 hang + 1 corrupt
        entry on a SMOKE_SCALE fig15 sweep, byte-equal to fault-free
        serial."""
        designs = REGISTRY.figure_labels("fig15")
        reference = run_plain(SMOKE_SCALE, designs)
        plan = FaultPlan(
            seed=42, crashes=3, hangs=1, corrupt=1, hang_seconds=HANG
        )
        # Pre-seed the one entry the plan will corrupt, so the corrupt
        # fault has a victim while every other cell still simulates
        # (and can crash/hang) rather than hitting the cache.
        grid = [(d, w) for d in designs for w in SMOKE_SCALE.benchmarks]
        (corrupt_cell,) = [
            cell
            for cell, kind in plan.materialise(grid).items()
            if kind == FAULT_CORRUPT
        ]
        cache = ResultCache(tmp_path)
        seed_result = SweepExecutor(jobs=1, faults=None).run(
            SMOKE_SCALE, (corrupt_cell[0],)
        )[corrupt_cell]
        cache.put(SMOKE_SCALE, *corrupt_cell, seed_result)

        executor = SweepExecutor(
            jobs=3,
            cache=ResultCache(tmp_path),
            faults=plan,
            retries=4,
            timeout=TIMEOUT,
            backoff=0.0,
        )
        results = executor.run(SMOKE_SCALE, designs)
        assert {c: r.to_dict() for c, r in results.items()} == reference
        assert executor.metrics.crashes == 3
        assert executor.metrics.timeouts == 1
        assert executor.cache.stats.corrupt == 1


class TestTimeoutsAndDegradation:
    @pytest.mark.slow
    def test_pooled_hang_is_killed_and_retried(self, reference, spawned):
        plan = FaultPlan(seed=8, hangs=1, hang_seconds=HANG)
        executor = SweepExecutor(
            jobs=2, faults=plan, retries=1, timeout=1.5, backoff=0.0
        )
        results = executor.run(TINY, DESIGNS)
        assert {c: r.to_dict() for c, r in results.items()} == reference
        assert executor.metrics.timeouts == 1
        assert executor.metrics.retries == 1
        # Only the hung worker was killed; the others were stopped.
        exits = sorted(w.process.exitcode for w in spawned)
        assert exits == [-signal.SIGTERM] + [0] * (len(spawned) - 1)
        assert multiprocessing.active_children() == []

    def test_exhausted_timeout_surfaces_job_context(self):
        plan = FaultPlan(seed=8, hangs=1)
        executor = SweepExecutor(
            jobs=1, faults=plan, retries=0, backoff=0.0
        )
        with pytest.raises(SweepJobError) as excinfo:
            executor.run(TINY, DESIGNS)
        assert isinstance(excinfo.value.__cause__, JobTimeoutError)

    def test_repeated_crashes_degrade_to_serial(self, reference):
        plan = FaultPlan(seed=4, crashes=3)
        executor = SweepExecutor(
            jobs=2,
            faults=plan,
            retries=3,
            timeout=TIMEOUT,
            backoff=0.0,
            degrade_after=2,
        )
        results = executor.run(TINY, DESIGNS)
        assert executor.metrics.degraded
        assert "degraded=serial" in executor.metrics.summary()
        assert executor.metrics.crashes == 3
        assert {c: r.to_dict() for c, r in results.items()} == reference


class TestFaultAttributionWithReuse:
    """Workers are reused across cells, yet every fault is charged to
    exactly the job in flight: a crash costs one replacement worker,
    an error reply keeps its worker."""

    GRID_SCALE = tiny_scale(benchmarks=("mcf", "comd", "bwaves"))

    def test_crashes_replace_workers_and_errors_keep_them(self, spawned):
        # seed=8 faults the first cells of the grid (crash, crash,
        # error, then an error on the last), so every crash is
        # collected while later cells still need a worker.
        plan = FaultPlan(seed=8, crashes=2, errors=2)
        reference = run_plain(self.GRID_SCALE)
        executor = SweepExecutor(
            jobs=2, faults=plan, retries=1, timeout=TIMEOUT, backoff=0.0
        )
        results = executor.run(self.GRID_SCALE, DESIGNS)
        assert {c: r.to_dict() for c, r in results.items()} == reference
        assert len(spawned) == 2 + plan.crashes
        assert executor.metrics.crashes == 2
        assert executor.metrics.errors == 2
        assert executor.metrics.failures == 4
        assert executor.metrics.retries == 4
        assert multiprocessing.active_children() == []

    def test_worker_dead_between_cells_is_replaced_uncharged(
        self, spawned
    ):
        reference = run_plain(self.GRID_SCALE)

        def kill_finished_worker(stat, done, total):
            if done == 1:
                # The worker that just ran this cell now sits idle.
                (worker,) = [
                    w for w in spawned
                    if w.job.cell == (stat.design, stat.workload)
                ]
                worker.process.kill()
                worker.process.join()

        executor = SweepExecutor(
            jobs=2, faults=None, on_cell=kill_finished_worker
        )
        results = executor.run(self.GRID_SCALE, DESIGNS)
        assert {c: r.to_dict() for c, r in results.items()} == reference
        assert executor.metrics.failures == 0
        assert executor.metrics.retries == 0
        assert len(spawned) == 3
        assert multiprocessing.active_children() == []


class _Abort(BaseException):
    """Simulated kill signal: not an Exception, so no retry or error
    handling in the executor may swallow it."""


def _interrupt(cache_dir, k, **kwargs):
    """Run the TINY sweep on a cache at ``cache_dir`` and abort it from
    ``on_cell`` the moment ``k`` cells have finished."""

    def on_cell(stat, done, total):
        if done == k:
            raise _Abort()

    executor = SweepExecutor(
        cache=ResultCache(cache_dir), on_cell=on_cell, **kwargs
    )
    with pytest.raises(_Abort):
        executor.run(TINY, DESIGNS)


class TestInterruptedSweepRerun:
    """The result cache is the sweep checkpoint: a cell is stored
    before it is reported, so re-running a killed sweep on the same
    cache simulates only the cells it did not finish."""

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_killed_sweep_reruns_only_missing_cells(
        self, tmp_path, reference, jobs
    ):
        _interrupt(tmp_path, 2, jobs=jobs, faults=None)
        # No worker outlives the interrupted sweep.
        assert multiprocessing.active_children() == []

        rerun = SweepExecutor(
            jobs=jobs, cache=ResultCache(tmp_path), faults=None
        )
        results = rerun.run(TINY, DESIGNS)
        assert rerun.metrics.disk_hits == 2
        assert rerun.metrics.simulated == len(reference) - 2
        assert {c: r.to_dict() for c, r in results.items()} == reference

    def test_truncated_entry_is_counted_corrupt_and_resimulated(
        self, tmp_path, reference
    ):
        _interrupt(tmp_path, 2, jobs=1, faults=None)
        # A power loss can leave a published entry cut short.
        cache = ResultCache(tmp_path)
        entry = cache.entry_path(TINY, DESIGNS[0], TINY.benchmarks[0])
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])

        rerun = SweepExecutor(jobs=1, cache=cache, faults=None)
        results = rerun.run(TINY, DESIGNS)
        assert cache.stats.corrupt == 1
        assert rerun.metrics.disk_hits == 1
        assert rerun.metrics.simulated == len(reference) - 1
        assert {c: r.to_dict() for c, r in results.items()} == reference

    def test_rerun_composes_with_faults(self, tmp_path, reference):
        """Interrupt a *faulted* sweep, re-run it under the same plan:
        still byte-equal, still only the missing cells simulated."""
        plan = FaultPlan(seed=6, errors=2)
        _interrupt(tmp_path, 2, jobs=1, faults=plan, retries=2, backoff=0.0)
        rerun = SweepExecutor(
            jobs=1,
            cache=ResultCache(tmp_path),
            faults=plan,
            retries=2,
            backoff=0.0,
        )
        results = rerun.run(TINY, DESIGNS)
        assert rerun.metrics.disk_hits == 2
        assert rerun.metrics.simulated == len(reference) - 2
        assert {c: r.to_dict() for c, r in results.items()} == reference


class TestRetryTelemetry:
    def test_retry_events_reach_the_parent_bus(self):
        from repro.telemetry import EventBus, EventLog

        bus = EventBus()
        log = bus.subscribe(EventLog())
        plan = FaultPlan(seed=5, errors=1)
        executor = SweepExecutor(
            jobs=1, faults=plan, retries=1, backoff=0.0, telemetry=bus
        )
        executor.run(TINY, DESIGNS)
        retries = [e for e in log.events if e.kind == "job_retry"]
        assert len(retries) == 1
        event = retries[0]
        assert (event.design, event.workload) in [
            (d, w) for d in DESIGNS for w in TINY.benchmarks
        ]
        assert event.attempt == 2
        assert event.reason == "error"
        # Cell streams stay pure: no retry events inside captures.
        assert all(
            e.kind != "job_retry"
            for stream in executor.events.values()
            for e in stream
        )

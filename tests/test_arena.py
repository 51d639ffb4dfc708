"""The trace arena: parity, fallback, lifetime and read-only sharing.

The arena is pure plumbing — it must never change a result.  The
tests here pin that from every side: compiled traces are byte-equal
to fresh generation, arena-on sweeps are byte-equal to arena-off
sweeps across the whole design registry (both replay kernels), every
failure to attach degrades to regeneration, pooled workers really
replay the traces they inherited from the parent, and no published
trace set outlives its sweep — not even one whose workers were
crash-injected.
"""

import json
import sys

import numpy as np
import pytest

from repro.check.canonical import result_digest
from repro.experiments.designs import REGISTRY
from repro.experiments.runner import SMOKE_SCALE, Scale
from repro.runtime import FaultPlan, SweepExecutor, SweepJobError
from repro.runtime.arena import (
    PUBLISHED,
    TraceArena,
    arena_key,
    attach_arena,
)
from repro.runtime.cells import timed_cell
from repro.telemetry import (
    ARENA_ACTIONS,
    ArenaEvent,
    EventBus,
    event_from_dict,
)
from repro.workloads import benchmark, build_workload
from repro.workloads.compiled import compile_trace
from tests.conftest import tiny_scale

TINY = tiny_scale(benchmarks=("mcf", "bwaves"))


def tiny_workload(name: str = "mcf"):
    return build_workload(
        TINY.config(),
        benchmark(name),
        num_copies=TINY.num_copies,
        seed=TINY.seed,
    )


def arena_actions(stream) -> list:
    return [event.action for event in stream if event.kind == "arena"]


class TestCompiledTrace:
    def test_compiled_equals_fresh_generation(self):
        workload = tiny_workload()
        total = TINY.warmup_per_core + TINY.accesses_per_core
        trace = compile_trace(workload, total)
        fresh = tiny_workload()
        for compiled_stream, live_stream in zip(
            trace.streams(total), fresh.streams(total)
        ):
            assert list(compiled_stream) == list(live_stream)

    def test_batch_boundaries_preserved(self):
        workload = tiny_workload()
        total = TINY.warmup_per_core + TINY.accesses_per_core
        trace = compile_trace(workload, total)
        fresh = tiny_workload()
        compiled_sizes = [
            [len(b) for b in stream] for stream in trace.stream_batches(total)
        ]
        live_sizes = [
            [len(b) for b in stream]
            for stream in fresh.stream_batches(total)
        ]
        assert compiled_sizes == live_sizes

    def test_prefix_request_rejected(self):
        # RNG plan sizes depend on the requested total, so a prefix of
        # a longer compiled trace is NOT the shorter generation — the
        # trace must refuse rather than silently diverge.
        workload = tiny_workload()
        trace = compile_trace(workload, 240)
        with pytest.raises(ValueError, match="compiled for"):
            list(trace.streams(120))

    def test_attached_workload_dispatches_to_trace(self):
        workload = tiny_workload()
        total = TINY.warmup_per_core + TINY.accesses_per_core
        trace = compile_trace(workload, total)
        workload.attach_trace(trace)
        assert workload.trace is trace
        direct = [list(s) for s in trace.streams(total)]
        via = [list(s) for s in workload.streams(total)]
        assert direct == via
        workload.detach_trace()
        assert workload.trace is None

    def test_attach_validates_identity(self):
        workload = tiny_workload()
        other = compile_trace(tiny_workload("bwaves"), 240)
        with pytest.raises(ValueError, match="bwaves"):
            workload.attach_trace(other)

    def test_nbytes_is_the_sum_of_the_columns(self):
        trace = compile_trace(tiny_workload(), 240)
        assert trace.nbytes == sum(
            core.batch.addresses.nbytes
            + core.batch.icount_gaps.nbytes
            + core.batch.is_writes.nbytes
            + core.batch_lengths.nbytes
            for core in trace.cores
        )


class TestPublishAttach:
    def test_roundtrip_is_byte_identical(self):
        arena = TraceArena.publish(TINY, list(TINY.benchmarks))
        try:
            shared = attach_arena(arena.manifest)
            total = TINY.warmup_per_core + TINY.accesses_per_core
            assert sorted(shared) == sorted(TINY.benchmarks)
            for name in TINY.benchmarks:
                local = compile_trace(tiny_workload(name), total)
                for s_core, l_core in zip(shared[name].cores, local.cores):
                    np.testing.assert_array_equal(
                        s_core.batch.addresses, l_core.batch.addresses
                    )
                    np.testing.assert_array_equal(
                        s_core.batch.icount_gaps, l_core.batch.icount_gaps
                    )
                    np.testing.assert_array_equal(
                        s_core.batch.is_writes, l_core.batch.is_writes
                    )
                    np.testing.assert_array_equal(
                        s_core.batch_lengths, l_core.batch_lengths
                    )
            assert arena.nbytes == sum(t.nbytes for t in shared.values())
        finally:
            arena.dispose()
        assert PUBLISHED == {}

    def test_attached_views_are_read_only(self):
        # Every cell shares the published arrays: none may write them.
        arena = TraceArena.publish(TINY, ["mcf"])
        try:
            for core in attach_arena(arena.manifest)["mcf"].cores:
                for column in (
                    core.batch.addresses,
                    core.batch.icount_gaps,
                    core.batch.is_writes,
                    core.batch_lengths,
                ):
                    with pytest.raises(ValueError):
                        column[0] = 1
        finally:
            arena.dispose()

    def test_manifest_is_json_safe(self):
        arena = TraceArena.publish(TINY, ["mcf"])
        try:
            wire = json.dumps(arena.manifest)
            assert json.loads(wire) == arena.manifest
        finally:
            arena.dispose()

    def test_dispose_is_idempotent_and_unlinks(self):
        arena = TraceArena.publish(TINY, ["mcf"])
        handle = arena.manifest["handle"]
        assert handle in PUBLISHED
        arena.dispose()
        arena.dispose()
        assert handle not in PUBLISHED
        with pytest.raises(OSError):
            attach_arena(arena.manifest)


class TestBudgetAndKeys:
    def test_over_budget_returns_none(self):
        assert TraceArena.publish(TINY, ["mcf"], budget=64) is None
        assert PUBLISHED == {}

    def test_empty_grid_returns_none(self):
        assert TraceArena.publish(TINY, []) is None

    def test_key_is_content_addressed(self):
        base = arena_key(TINY, ["mcf"])
        assert base == arena_key(TINY, ["mcf"])
        assert base != arena_key(TINY, ["mcf", "bwaves"])
        bumped = Scale(
            fast_mb=TINY.fast_mb,
            accesses_per_core=TINY.accesses_per_core,
            warmup_per_core=TINY.warmup_per_core,
            num_copies=TINY.num_copies,
            benchmarks=TINY.benchmarks,
            seed=TINY.seed + 1,
        )
        assert base != arena_key(bumped, ["mcf"])


class TestSweepParity:
    def _sweep(self, jobs: int, arena: bool, designs, scale=SMOKE_SCALE):
        executor = SweepExecutor(jobs=jobs, cache=None, arena=arena)
        results = executor.run(scale, designs)
        return (
            {
                f"{d}/{w}": r.to_dict()
                for (d, w), r in sorted(results.items())
            },
            executor.metrics,
        )

    @pytest.mark.slow
    def test_arena_matches_regeneration_across_registry(self):
        # Every design — batched-kernel, scalar, and pager-backed
        # alike — must produce byte-identical wire forms either way.
        labels = REGISTRY.labels()
        with_arena, metrics = self._sweep(1, True, labels)
        without, _ = self._sweep(1, False, labels)
        assert with_arena == without
        assert metrics.arena_hits == len(with_arena)
        assert PUBLISHED == {}

    def test_pooled_arena_matches_serial(self):
        designs = ("PoM", "Chameleon-Opt")
        pooled, metrics = self._sweep(4, True, designs, scale=TINY)
        serial, _ = self._sweep(1, False, designs, scale=TINY)
        assert pooled == serial
        assert metrics.arena_bytes > 0
        assert metrics.arena_hits == len(pooled)
        # A successful sweep drops its published traces.
        assert PUBLISHED == {}

    def test_no_arena_reports_zero_metrics(self):
        _, metrics = self._sweep(1, False, ("PoM",), scale=TINY)
        assert metrics.arena_bytes == 0
        assert metrics.arena_hits == 0
        assert "arena-bytes" not in metrics.summary()


class TestFaultInteraction:
    def test_crash_injected_sweep_cleans_up(self):
        executor = SweepExecutor(
            jobs=2,
            cache=None,
            arena=True,
            faults=FaultPlan(seed=7, crashes=2, retries=2),
        )
        results = executor.run(TINY, ("PoM", "Alloy-Cache"))
        plain = SweepExecutor(jobs=1, cache=None, arena=False).run(
            TINY, ("PoM", "Alloy-Cache")
        )
        assert {
            k: v.to_dict() for k, v in results.items()
        } == {k: v.to_dict() for k, v in plain.items()}
        assert executor.metrics.crashes >= 1
        assert PUBLISHED == {}

    def test_failed_sweep_still_unlinks(self):
        executor = SweepExecutor(
            jobs=2,
            cache=None,
            arena=True,
            retries=0,
            faults=FaultPlan(seed=3, crashes=1, retries=0),
        )
        with pytest.raises(SweepJobError):
            executor.run(TINY, ("PoM",))
        assert PUBLISHED == {}

    def test_worker_attach_failure_regenerates(self):
        arena = TraceArena.publish(TINY, ["mcf"])
        manifest = dict(arena.manifest)
        arena.dispose()  # arena now gone: attach must fail cleanly
        _, _, _, result, _ = timed_cell(
            (TINY, "PoM", "mcf", False, False, None, 0.0, manifest)
        )
        _, _, _, plain, _ = timed_cell(
            (TINY, "PoM", "mcf", False, False, None, 0.0, None)
        )
        assert result.to_dict() == plain.to_dict()

    def test_unregistered_handle_regenerates(self):
        # What a worker that did not inherit the parent's memory (a
        # non-fork start method) sees: a valid manifest whose handle
        # this process never published.
        arena = TraceArena.publish(TINY, ["mcf"])
        try:
            foreign = dict(arena.manifest, handle="0" * 12 + "-1")
            with pytest.raises(OSError):
                attach_arena(foreign)
            _, _, _, result, events = timed_cell(
                (TINY, "PoM", "mcf", True, False, None, 0.0, foreign)
            )
        finally:
            arena.dispose()
        _, _, _, plain, _ = timed_cell(
            (TINY, "PoM", "mcf", False, False, None, 0.0, None)
        )
        assert result_digest(result) == result_digest(plain)
        assert not [e for e in events if e.kind == "arena"]


class TestArenaTelemetry:
    def test_event_wire_roundtrip(self):
        event = ArenaEvent(
            time_ns=1.5,
            action="attach",
            segment="0123456789ab-1",
            bytes=4096,
        )
        wire = event.to_dict()
        assert wire["kind"] == "arena"
        assert event_from_dict(wire) == event

    def test_captured_streams_mark_attach_and_detach(self):
        executor = SweepExecutor(
            jobs=1, cache=None, arena=True, telemetry=EventBus()
        )
        executor.run(TINY, ("PoM",))
        assert executor.events
        for (_, workload), stream in executor.events.items():
            assert arena_actions(stream) == ["attach", "detach"]
            # Each cell reports its own trace's size, not the arena's.
            total = TINY.warmup_per_core + TINY.accesses_per_core
            nbytes = compile_trace(tiny_workload(workload), total).nbytes
            marks = [e for e in stream if e.kind == "arena"]
            assert [e.bytes for e in marks] == [nbytes, nbytes]

    def test_pooled_actions_are_exactly_arena_actions(self):
        executor = SweepExecutor(
            jobs=2, cache=None, arena=True, telemetry=EventBus()
        )
        executor.run(TINY, ("PoM", "Alloy-Cache"))
        assert executor.events
        for stream in executor.events.values():
            assert tuple(arena_actions(stream)) == ARENA_ACTIONS

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="pool workers inherit the parent's memory only under fork",
    )
    def test_pooled_cells_replay_the_inherited_traces(self):
        # Guard: if the default start method ever stops forking, pooled
        # cells silently regenerate — results stay right but the arena
        # does nothing.  Every pooled cell must attach.
        executor = SweepExecutor(
            jobs=2, cache=None, arena=True, telemetry=EventBus()
        )
        results = executor.run(TINY, ("PoM", "Chameleon-Opt"))
        attaches = [
            action
            for stream in executor.events.values()
            for action in arena_actions(stream)
            if action == "attach"
        ]
        assert len(attaches) == len(results) == 4

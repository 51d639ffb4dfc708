"""Batched-kernel parity and regression suite.

The batched replay kernel is only allowed to be *faster* than the
scalar reference — never different.  These tests hold the two kernels
bit-identical (full :meth:`SimulationResult.to_dict` wire form plus the
telemetry event stream) across every registered design, and pin the
engine behaviours the batched path had to preserve: telemetry-bus
restoration, integer fault tallies, warmup/measured accounting, and the
bulk counter/histogram accumulators.
"""

import json
import math

import numpy as np
import pytest

from repro.config import scaled_config
from repro.arch import FlatMemory, PoMArchitecture
from repro.core import ChameleonArchitecture
from repro.experiments.designs import REGISTRY
from repro.experiments.runner import SMOKE_SCALE
from repro.sim import KERNELS, KernelDecision, select_kernel, simulate
from repro.stats import CounterSet, Histogram
from repro.stats.counters import _LOOP_MAX_REPEATS
from repro.telemetry.bus import EventBus
from repro.telemetry.events import EpochSample
from repro.telemetry.recorder import EventLog
from repro.workloads import benchmark, build_workload

#: Designs whose OS-visible capacity forces a pager (batched-paged).
PAGER_BACKED = {
    "baseline_20GB_DDR3",
    "Alloy-Cache",
    "KNL-hybrid-25",
    "KNL-hybrid-50",
}


def _smoke_workload(config):
    return build_workload(
        config,
        benchmark(SMOKE_SCALE.benchmarks[0]),
        num_copies=SMOKE_SCALE.num_copies,
        seed=SMOKE_SCALE.seed,
    )


def _run(label, kernel, config):
    architecture = REGISTRY.get(label).factory(config)
    workload = _smoke_workload(config)
    bus = EventBus()
    log = EventLog()
    bus.subscribe(log)
    result = simulate(
        architecture,
        workload,
        accesses_per_core=SMOKE_SCALE.accesses_per_core,
        warmup_per_core=SMOKE_SCALE.warmup_per_core,
        telemetry=bus,
        kernel=kernel,
    )
    events = [event.to_dict() for event in log.events]
    return result, events


class TestKernelParity:
    """auto (batched where eligible) == scalar, for every design."""

    @pytest.fixture(scope="class")
    def config(self):
        return SMOKE_SCALE.config()

    @pytest.mark.slow
    @pytest.mark.parametrize("label", REGISTRY.labels())
    def test_design_parity(self, label, config):
        scalar_result, scalar_events = _run(label, "scalar", config)
        auto_result, auto_events = _run(label, "auto", config)
        assert json.dumps(
            auto_result.to_dict(), sort_keys=True
        ) == json.dumps(scalar_result.to_dict(), sort_keys=True)
        assert auto_events == scalar_events

    def test_parity_covers_batched_designs(self, config):
        """The sweep above exercises the batched kernel, not just the
        pager-segmented path — guard against the registry drifting to
        all-pager designs."""
        batched = [
            label
            for label in REGISTRY.labels()
            if label not in PAGER_BACKED
        ]
        assert len(batched) >= 3

    def test_parity_covers_pager_backed_designs(self):
        """And the converse: the registry keeps pager-backed designs so
        the sweep exercises the batched-paged kernel."""
        assert PAGER_BACKED <= set(REGISTRY.labels())


class TestKernelSelection:
    @pytest.fixture(scope="class")
    def config(self):
        return SMOKE_SCALE.config()

    def test_kernels_constant(self):
        assert KERNELS == ("auto", "batched", "batched-paged", "scalar")

    @pytest.mark.parametrize("label", sorted(PAGER_BACKED))
    def test_pager_backed_designs_select_batched_paged(self, label, config):
        architecture = REGISTRY.get(label).factory(config)
        workload = _smoke_workload(config)
        pager_present = (
            architecture.os_visible_bytes < config.total_capacity_bytes
        )
        assert pager_present
        decision = select_kernel(architecture, workload, pager_present)
        assert decision == KernelDecision("batched-paged", "pager-segmented")
        assert decision.kernel == "batched-paged"
        assert decision.reason == "pager-segmented"

    def test_pom_selects_batched(self, config):
        architecture = PoMArchitecture(config)
        workload = _smoke_workload(config)
        assert select_kernel(architecture, workload, False) == KernelDecision(
            "batched", "batch-capable"
        )

    def test_decision_is_a_pair(self, config):
        """KernelDecision unpacks as a (kernel, reason) tuple."""
        kernel, reason = select_kernel(PoMArchitecture(config), None, False)
        assert kernel == "batched"
        assert reason == "batch-capable"

    def test_forced_batched_rejects_pager_backed_design(self, config):
        architecture = REGISTRY.get("Alloy-Cache").factory(config)
        workload = _smoke_workload(config)
        with pytest.raises(ValueError, match="pager-backed"):
            simulate(
                architecture,
                workload,
                accesses_per_core=50,
                warmup_per_core=0,
                kernel="batched",
            )

    def test_forced_batched_paged_rejects_pagerless_design(self, config):
        architecture = PoMArchitecture(config)
        workload = _smoke_workload(config)
        with pytest.raises(ValueError, match="pager"):
            simulate(
                architecture,
                workload,
                accesses_per_core=50,
                warmup_per_core=0,
                kernel="batched-paged",
            )

    def test_unknown_kernel_rejected(self, config):
        architecture = PoMArchitecture(config)
        workload = _smoke_workload(config)
        with pytest.raises(ValueError, match="kernel"):
            simulate(
                architecture,
                workload,
                accesses_per_core=50,
                warmup_per_core=0,
                kernel="vectorised",
            )


class TestFaultSegmentParity:
    """batched-paged == scalar under real fault pressure.

    The registry parity sweep above runs the pager-backed designs at
    capacities where faults are rare; these cases shrink a FlatMemory's
    capacity until the fault machinery dominates — constant thrash at
    the smallest fraction exercises faults on every lane of a chunk
    (lane 0, last lane, consecutive faults), LRU evictions mid-chunk,
    and the stale-translation diversion path, while the larger
    fractions mix long resident streaks with occasional faults.
    """

    #: Fraction of total capacity the flat device exposes.  1e-7 floors
    #: at one page (every access faults); 0.6 leaves faults rare.
    FRACTIONS = (1e-7, 1e-3, 0.02, 0.6)

    @pytest.fixture(scope="class")
    def config(self):
        return SMOKE_SCALE.config()

    def _run_flat(self, config, fraction, kernel, *, warmup=300):
        capacity = max(
            int(config.total_capacity_bytes * fraction), config.page_bytes
        )
        architecture = FlatMemory(config, capacity_bytes=capacity)
        assert architecture.os_visible_bytes < config.total_capacity_bytes
        workload = _smoke_workload(config)
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        result = simulate(
            architecture,
            workload,
            accesses_per_core=300,
            warmup_per_core=warmup,
            telemetry=bus,
            kernel=kernel,
        )
        return result, [event.to_dict() for event in log.events]

    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_fault_heavy_parity(self, config, fraction):
        scalar_result, scalar_events = self._run_flat(
            config, fraction, "scalar"
        )
        paged_result, paged_events = self._run_flat(
            config, fraction, "batched-paged"
        )
        assert json.dumps(
            paged_result.to_dict(), sort_keys=True
        ) == json.dumps(scalar_result.to_dict(), sort_keys=True)
        assert paged_events == scalar_events
        assert paged_result.page_faults == scalar_result.page_faults

    def test_thrash_faults_are_measured(self, config):
        """The smallest fraction really does fault in the measured
        window — the parity case above is not vacuous."""
        result, events = self._run_flat(config, self.FRACTIONS[0], "scalar")
        assert result.page_faults > 0
        kinds = {event["kind"] for event in events}
        assert "page_fault" in kinds

    def test_warmup_boundary_fault_parity(self, config):
        """Faults straddling the warmup/measured boundary: warmup
        faults mutate LRU state and emit events but must not leak into
        measured fault tallies, identically on both kernels."""
        scalar_result, scalar_events = self._run_flat(
            config, 1e-3, "scalar", warmup=301
        )
        paged_result, paged_events = self._run_flat(
            config, 1e-3, "batched-paged", warmup=301
        )
        assert json.dumps(
            paged_result.to_dict(), sort_keys=True
        ) == json.dumps(scalar_result.to_dict(), sort_keys=True)
        assert paged_events == scalar_events
        # Warmup faulted (events precede measurement) yet measured
        # tallies count only the measured window.
        faults_seen = sum(
            1 for event in scalar_events if event["kind"] == "page_fault"
        )
        assert faults_seen >= scalar_result.page_faults


class TestTelemetryBusHygiene:
    def test_simulate_restores_prior_bus(self):
        """A telemetry run must not leak its bus into the architecture:
        reusing the instance afterwards (with or without telemetry)
        sees the architecture's original bus again."""
        config = scaled_config(fast_mb=1.0)
        architecture = ChameleonArchitecture(config)
        original_bus = architecture.telemetry
        workload = _smoke_workload(config)
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        simulate(
            architecture,
            workload,
            accesses_per_core=100,
            warmup_per_core=100,
            telemetry=bus,
        )
        assert architecture.telemetry is original_bus
        assert log.events  # the run did emit through the passed bus
        before = len(log.events)
        simulate(
            architecture,
            _smoke_workload(config),
            accesses_per_core=100,
            warmup_per_core=100,
        )
        # The second (telemetry-off) run must not feed the first's log.
        assert len(log.events) == before

    def test_epoch_faults_are_int(self):
        config = scaled_config(fast_mb=1.0)
        architecture = PoMArchitecture(config)
        workload = _smoke_workload(config)
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        simulate(
            architecture,
            workload,
            accesses_per_core=200,
            warmup_per_core=0,
            telemetry=bus,
        )
        samples = [e for e in log.events if isinstance(e, EpochSample)]
        assert samples
        for sample in samples:
            assert type(sample.faults) is int
            assert type(sample.to_dict()["faults"]) is int


class TestWarmupBoundary:
    """counters.reset() after warmup leaves the measured-window metrics
    derived from measured traffic only — on both kernels."""

    @pytest.mark.parametrize("kernel", ["scalar", "auto"])
    def test_measured_window_metrics(self, kernel):
        config = scaled_config(fast_mb=1.0)
        workload = _smoke_workload(config)
        result = simulate(
            PoMArchitecture(config),
            workload,
            accesses_per_core=300,
            warmup_per_core=300,
            kernel=kernel,
        )
        measured = 300 * SMOKE_SCALE.num_copies
        assert result.counters["arch.accesses"] == measured
        assert (
            result.fast_hit_rate
            == result.counters["arch.fast_hits"] / measured
        )
        assert (
            result.average_latency_ns
            == result.counters["arch.latency_ns"] / measured
        )

    #: One counter per fused demand path that the batched kernels defer
    #: while batch stats are on: a device tally for PoM, the per-access
    #: policy tallies for the others.
    DEFERRED_COUNTER = {
        "PoM": "dram.stacked.accesses",
        "Chameleon": "chameleon.cache_misses",
        "Chameleon-Opt": "chameleon.cache_hits",
        "Alloy-Cache": "alloy.hits",
        "KNL-hybrid-25": "knl.cache_misses",
        # Deferred demand bursts and segment transfers interleave here.
        "CAMEO": "dram.stacked.busy_ns",
    }

    @staticmethod
    def _run_split(label, kernel):
        """Run a tiny cell; return its result, its telemetry events and
        the counters as they stood just before the warmup reset."""
        config = scaled_config(fast_mb=1.0)
        architecture = REGISTRY.get(label).factory(config)
        counters = architecture.counters
        before_reset = []
        reset = counters.reset

        def snapshot_then_reset():
            before_reset.append(counters.snapshot())
            reset()

        counters.reset = snapshot_then_reset
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        result = simulate(
            architecture,
            _smoke_workload(config),
            accesses_per_core=300,
            warmup_per_core=300,
            telemetry=bus,
            kernel=kernel,
        )
        (warmup,) = before_reset
        return result, [event.to_dict() for event in log.events], warmup

    @pytest.mark.parametrize("label", sorted(DEFERRED_COUNTER))
    def test_fused_paths_match_scalar_across_reset(self, label):
        scalar_result, scalar_events, scalar_warmup = self._run_split(
            label, "scalar"
        )
        auto_result, auto_events, auto_warmup = self._run_split(label, "auto")
        assert json.dumps(
            auto_result.to_dict(), sort_keys=True
        ) == json.dumps(scalar_result.to_dict(), sort_keys=True)
        assert auto_events == scalar_events
        # The deferred tallies reach the counters on both sides of the
        # reset: flushed in full before it, restarted from zero after.
        name = self.DEFERRED_COUNTER[label]
        assert auto_warmup[name] == scalar_warmup[name] > 0
        assert auto_result.counters[name] > 0

    def test_trailing_epoch_flush_with_telemetry(self):
        """A measured total not divisible by the epoch stride emits one
        trailing partial EpochSample covering the leftovers, and its
        cumulative tallies equal the full measured window."""
        config = scaled_config(fast_mb=1.0)
        workload = _smoke_workload(config)
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        # 301 * 4 = 1204 measured accesses; stride = 1204 // 20 = 60,
        # 1204 % 60 = 4 leftovers -> 20 full epochs + 1 trailing flush.
        result = simulate(
            PoMArchitecture(config),
            workload,
            accesses_per_core=301,
            warmup_per_core=301,
            telemetry=bus,
        )
        samples = [e for e in log.events if isinstance(e, EpochSample)]
        assert len(samples) == 21
        assert [s.epoch for s in samples] == list(range(1, 22))
        last = samples[-1]
        assert last.accesses == result.counters["arch.accesses"]
        assert last.fast_hits == result.counters["arch.fast_hits"]


class TestBulkAccumulators:
    """The bulk accumulator primitives the batched kernel relies on."""

    #: Mixed magnitudes where the summation order shows: a strict left
    #: fold from 1e16 drops every +1.0 (half an ulp, rounded to even),
    #: while compensated (``math.fsum``, ``sum()`` on Python >= 3.12) and
    #: pairwise (``np.sum``) summation keep them.
    ADVERSARIAL = [1e16] + [1.0] * 1000 + [0.1, 3e-17, 2.5e15, 7.0]

    @staticmethod
    def _left_fold(start, values):
        total = start
        for value in values:
            total += value
        return total

    def test_add_many_is_a_strict_left_fold(self):
        bulk = CounterSet({"k": 0.3})
        bulk.add_many("k", self.ADVERSARIAL)
        expected = self._left_fold(0.3, self.ADVERSARIAL)
        assert bulk["k"] == expected
        assert expected != math.fsum([0.3, *self.ADVERSARIAL])
        assert expected != float(np.sum([0.3, *self.ADVERSARIAL]))

    def test_add_many_rejects_negative_increments(self):
        counters = CounterSet({"k": 1.0})
        with pytest.raises(ValueError, match="got -2.5"):
            counters.add_many("k", [0.5, -2.5, 1.0])
        assert counters["k"] == 1.0

    @pytest.mark.parametrize(
        "count", [3, _LOOP_MAX_REPEATS - 1, _LOOP_MAX_REPEATS, 1000]
    )
    def test_add_repeat_is_a_strict_left_fold(self, count):
        """Both sides of the loop/``fold_sum`` cutoff fold left."""
        bulk = CounterSet({"k": 1e16})
        bulk.add_repeat("k", 1.0, count)
        assert bulk["k"] == self._left_fold(1e16, [1.0] * count) == 1e16
        assert bulk["k"] != math.fsum([1e16] + [1.0] * count)

    def test_observe_array_total_is_a_strict_left_fold(self):
        bulk = Histogram.linear(0.0, 128.0, 8)
        sequential = Histogram.linear(0.0, 128.0, 8)
        bulk.observe_array(self.ADVERSARIAL)
        for value in self.ADVERSARIAL:
            sequential.record(value)
        assert bulk.mean == sequential.mean
        assert bulk.buckets() == sequential.buckets()

    def test_add_many_matches_sequential_adds(self):
        bulk = CounterSet()
        sequential = CounterSet()
        values = [0.1, 0.25, 1.75, 3.5, 0.1]
        bulk.add_many("k", values)
        for value in values:
            sequential.add("k", value)
        assert bulk["k"] == sequential["k"]

    def test_add_repeat_matches_repeated_adds(self):
        bulk = CounterSet()
        sequential = CounterSet()
        bulk.add_repeat("k", 0.1, 7)
        for _ in range(7):
            sequential.add("k", 0.1)
        assert bulk["k"] == sequential["k"]
        assert bulk["k"] != 0.1 * 7  # the multiply is NOT equivalent

    def test_observe_array_matches_sequential_records(self):
        bulk = Histogram.linear(0.0, 128.0, 8)
        sequential = Histogram.linear(0.0, 128.0, 8)
        values = [3.0, 17.5, 120.0, 64.25, 3.0, 250.0]
        bulk.observe_array(values)
        for value in values:
            sequential.record(value)
        assert bulk.buckets() == sequential.buckets()
        assert bulk.mean == sequential.mean
        assert (bulk.count, bulk.minimum, bulk.maximum) == (
            sequential.count,
            sequential.minimum,
            sequential.maximum,
        )

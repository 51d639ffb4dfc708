"""Tests for the analytic core timing model and multicore aggregation."""

import pytest

from repro.config import CoreConfig, scaled_config
from repro.cpu import CoreRunStats, CoreTimingModel, MulticoreModel


def stats(instructions=1000, accesses=10, latency_ns=500.0, faults=0):
    run = CoreRunStats(
        instructions=instructions,
        memory_accesses=accesses,
        memory_latency_ns=latency_ns,
    )
    run.page_faults = faults
    run.fault_cycles = faults * 100_000
    return run


class TestCoreTimingModel:
    def setup_method(self):
        self.core = CoreConfig()
        self.model = CoreTimingModel(self.core)

    def test_no_memory_gives_base_ipc(self):
        run = stats(instructions=1000, accesses=0, latency_ns=0.0)
        assert self.model.ipc(run) == pytest.approx(1.0 / self.core.base_cpi)

    def test_memory_latency_lowers_ipc(self):
        fast = self.model.ipc(stats(latency_ns=100.0))
        slow = self.model.ipc(stats(latency_ns=10_000.0))
        assert slow < fast

    def test_mlp_overlaps_stalls(self):
        wide = CoreTimingModel(CoreConfig(mlp=8.0))
        narrow = CoreTimingModel(CoreConfig(mlp=1.0))
        run = stats(latency_ns=10_000.0)
        assert wide.ipc(run) > narrow.ipc(run)

    def test_page_faults_serialise(self):
        clean = self.model.cycles(stats())
        faulty = self.model.cycles(stats(faults=3))
        assert faulty == pytest.approx(clean + 300_000)

    def test_cpu_utilisation_drops_with_faults(self):
        assert self.model.cpu_utilisation(stats()) == pytest.approx(1.0)
        assert self.model.cpu_utilisation(stats(faults=50)) < 0.5

    def test_cpi_is_reciprocal(self):
        run = stats()
        assert self.model.cpi(run) == pytest.approx(1.0 / self.model.ipc(run))

    def test_seconds(self):
        run = stats(instructions=3_600_000, accesses=0, latency_ns=0)
        expected = 3_600_000 * self.core.base_cpi / self.core.frequency_hz
        assert self.model.seconds(run) == pytest.approx(expected)

    def test_zero_instruction_ipc(self):
        run = CoreRunStats()
        assert self.model.ipc(run) == 0.0

    def test_merge_accumulates(self):
        a = stats(instructions=10, accesses=1, latency_ns=5.0)
        b = stats(instructions=20, accesses=2, latency_ns=10.0, faults=1)
        a.merge(b)
        assert a.instructions == 30
        assert a.memory_accesses == 3
        assert a.page_faults == 1

    def test_average_latency(self):
        run = stats(accesses=4, latency_ns=100.0)
        assert run.average_latency_ns == pytest.approx(25.0)
        assert CoreRunStats().average_latency_ns == 0.0


class TestMulticoreModel:
    def setup_method(self):
        self.config = scaled_config()
        self.model = MulticoreModel(self.config)

    def test_summarize_geomean(self):
        per_core = [stats(latency_ns=0.0, accesses=0) for _ in range(4)]
        perf = self.model.summarize("wl", per_core)
        assert perf.geomean_ipc == pytest.approx(
            1.0 / self.config.core.base_cpi
        )

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            self.model.summarize("wl", [])

    def test_summarize_latency_weighted_by_accesses(self):
        per_core = [
            stats(accesses=1, latency_ns=100.0),
            stats(accesses=3, latency_ns=100.0),
        ]
        perf = self.model.summarize("wl", per_core)
        assert perf.average_latency_ns == pytest.approx(50.0)

    def test_latency_cycles_conversion(self):
        perf = self.model.summarize("wl", [stats(accesses=1, latency_ns=100)])
        cycles = self.model.average_latency_cycles(perf)
        assert cycles == pytest.approx(
            100e-9 * self.config.core.frequency_hz
        )

    def test_min_max_ipc(self):
        per_core = [stats(latency_ns=0, accesses=0), stats(latency_ns=1e6)]
        perf = self.model.summarize("wl", per_core)
        assert perf.min_ipc < perf.max_ipc

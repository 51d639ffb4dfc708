"""Tests for experiment figure helpers and result plumbing."""

import pytest

from repro.config import scaled_config
from repro.cpu import CoreRunStats, MulticoreModel
from repro.experiments.figures import FigureResult, _mean
from repro.sim.engine import SimulationResult
from repro.stats import CounterSet


class TestFigureResult:
    def test_render_includes_title_and_rows(self):
        figure = FigureResult(
            "Figure X", ["a", "b"], [["r1", 1.0], ["r2", 2.0]], {}
        )
        text = figure.render()
        assert text.startswith("Figure X")
        assert "r1" in text and "r2" in text

    def test_mean_helper(self):
        assert _mean([1.0, 3.0]) == 2.0
        assert _mean([]) == 0.0


class TestSimulationResult:
    def make(self):
        config = scaled_config()
        model = MulticoreModel(config)
        stats = CoreRunStats(
            instructions=1000, memory_accesses=10, memory_latency_ns=500.0
        )
        perf = model.summarize("wl", [stats])
        return config, SimulationResult(
            workload="wl",
            architecture="pom",
            performance=perf,
            fast_hit_rate=0.8,
            average_latency_ns=50.0,
            swaps=3.0,
            page_faults=0,
            counters=CounterSet(),
        )

    def test_geomean_property(self):
        _, result = self.make()
        assert result.geomean_ipc == result.performance.geomean_ipc

    def test_latency_cycles_conversion(self):
        config, result = self.make()
        cycles = result.average_latency_cycles(config)
        assert cycles == pytest.approx(
            50e-9 * config.core.frequency_hz
        )

    def test_cache_mode_fraction_default_none(self):
        _, result = self.make()
        assert result.cache_mode_fraction is None

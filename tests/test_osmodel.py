"""Tests for AutoNUMA balancing and the long-run model."""

import pytest

from repro.config import GB
from repro.osmodel import (
    AutoNumaBalancer,
    AutoNumaConfig,
    LongRunSimulator,
    WorkloadSpec,
)
from repro.osmodel.autonuma import FAST_NODE, SLOW_NODE
from repro.osmodel.longrun import (
    FAULT_SECONDS,
    capacity_sweep,
    improvement_percent,
)


class TestAutoNumaBalancer:
    def make(self, threshold=0.9, capacity=100):
        return AutoNumaBalancer(
            fast_capacity_pages=capacity,
            config=AutoNumaConfig(threshold=threshold),
        )

    def test_record_access_classifies(self):
        balancer = self.make(capacity=1)
        balancer.place(0, FAST_NODE)
        balancer.place(1, SLOW_NODE)
        assert balancer.record_access(0)
        assert not balancer.record_access(1)

    def test_unplaced_page_raises(self):
        with pytest.raises(KeyError):
            self.make().record_access(42)

    def test_epoch_migrates_hot_remote_pages(self):
        balancer = self.make(capacity=10)
        for page in range(5):
            balancer.place(page, SLOW_NODE)
        for page in range(5):
            balancer.record_access(page, count=10 - page)
        report = balancer.end_epoch()
        assert report.migrated > 0
        assert balancer.node_of(0) == FAST_NODE  # hottest first

    def test_enomem_when_fast_full(self):
        balancer = self.make(capacity=1)
        balancer.place(0, FAST_NODE)
        balancer.place(1, SLOW_NODE)
        balancer.record_access(1, count=100)
        report = balancer.end_epoch()
        assert report.migrated == 0
        assert report.enomem_failures >= 1

    def test_migration_budget_grows_with_threshold(self):
        low = AutoNumaConfig(threshold=0.7)
        high = AutoNumaConfig(threshold=0.9)
        assert high.migrations_per_epoch > low.migrations_per_epoch

    def test_timeline_records_epochs(self):
        balancer = self.make(capacity=5)
        balancer.place(0, SLOW_NODE)
        balancer.record_access(0)
        balancer.end_epoch()
        balancer.record_access(0)
        balancer.end_epoch()
        assert len(balancer.timeline) == 2

    def test_release_frees_fast_slot(self):
        balancer = self.make(capacity=1)
        balancer.place(0, FAST_NODE)
        balancer.release(0)
        assert balancer.fast_free_pages == 1

    def test_cumulative_hit_rate(self):
        balancer = self.make(capacity=1)
        balancer.place(0, FAST_NODE)
        balancer.place(1, SLOW_NODE)
        balancer.record_access(0, 3)
        balancer.record_access(1, 1)
        assert balancer.cumulative_hit_rate() == pytest.approx(0.75)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoNumaConfig(threshold=0.0)
        with pytest.raises(ValueError):
            AutoNumaConfig(migration_base_rate=0)


class TestLongRunModel:
    def spec(self, footprint_gb=22.0, locality=0.6):
        return WorkloadSpec(
            name="wl",
            footprint_bytes=int(footprint_gb * GB),
            base_seconds=1000.0,
            page_touch_rate=1e6,
            locality=locality,
        )

    def test_no_faults_when_footprint_fits(self):
        simulator = LongRunSimulator(24 * GB)
        run = simulator.run(self.spec(footprint_gb=20.0))
        assert run.page_faults == 0
        assert run.cpu_utilisation == pytest.approx(1.0)
        assert run.duration_seconds == pytest.approx(1000.0)

    def test_faults_grow_as_capacity_shrinks(self):
        spec = self.spec()
        small = LongRunSimulator(16 * GB).run(spec)
        large = LongRunSimulator(20 * GB).run(spec)
        assert small.page_faults > large.page_faults
        assert small.cpu_utilisation < large.cpu_utilisation
        assert small.duration_seconds > large.duration_seconds

    def test_locality_shields_faults(self):
        tight = LongRunSimulator(16 * GB).run(self.spec(locality=0.9))
        loose = LongRunSimulator(16 * GB).run(self.spec(locality=0.1))
        assert tight.page_faults < loose.page_faults

    def test_duration_matches_fault_arithmetic(self):
        simulator = LongRunSimulator(16 * GB)
        spec = self.spec()
        run = simulator.run(spec)
        expected = spec.base_seconds + run.page_faults * FAULT_SECONDS
        assert run.duration_seconds == pytest.approx(expected)

    def test_improvement_percent_equation1(self):
        base = LongRunSimulator(16 * GB).run(self.spec())
        better = LongRunSimulator(24 * GB).run(self.spec())
        improvement = improvement_percent(base, better)
        assert 0 < improvement < 100

    def test_capacity_sweep_shape(self):
        specs = [self.spec(), self.spec(footprint_gb=18.0)]
        capacities = [16 * GB, 24 * GB]
        grid = capacity_sweep(specs, capacities)
        assert len(grid) == 2 and len(grid[0]) == 2

    def test_free_memory_timeline(self):
        simulator = LongRunSimulator(24 * GB)
        schedule = [self.spec(footprint_gb=20.0)]
        timeline = simulator.free_memory_timeline(schedule, sample_seconds=60)
        free = timeline.series("free_mb")
        assert min(free) < max(free)  # allocation visibly consumes memory
        # Memory is fully returned at the end of the schedule.
        assert free[-1] == max(free)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", 0, 1.0)
        with pytest.raises(ValueError):
            WorkloadSpec("x", 1, 1.0, locality=1.0)
        with pytest.raises(ValueError):
            LongRunSimulator(0)

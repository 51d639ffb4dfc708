"""Tests for the statistics primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.stats import (
    CounterSet,
    Histogram,
    Timeline,
    geomean,
)


class TestCounterSet:
    def test_starts_empty(self):
        counters = CounterSet()
        assert counters["anything"] == 0.0
        assert len(counters) == 0

    def test_add_and_read(self):
        counters = CounterSet()
        counters.add("hits")
        counters.add("hits", 2)
        assert counters["hits"] == 3.0

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            CounterSet().add("x", -1)

    def test_ratio(self):
        counters = CounterSet({"hits": 3, "accesses": 4})
        assert counters.ratio("hits", "accesses") == pytest.approx(0.75)

    def test_ratio_zero_denominator(self):
        assert CounterSet().ratio("a", "b") == 0.0

    def test_fraction_of_total(self):
        counters = CounterSet({"cache": 1, "pom": 3})
        assert counters.fraction_of_total("cache", "pom") == pytest.approx(
            0.25
        )

    def test_merge_sums_disjoint_and_shared(self):
        merged = CounterSet({"a": 1, "b": 2}).merge(CounterSet({"b": 3, "c": 4}))
        assert merged["a"] == 1 and merged["b"] == 5 and merged["c"] == 4

    def test_merge_does_not_mutate(self):
        left = CounterSet({"a": 1})
        left.merge(CounterSet({"a": 9}))
        assert left["a"] == 1

    def test_snapshot_diff(self):
        counters = CounterSet({"a": 1})
        before = counters.snapshot()
        counters.add("a", 4)
        counters.add("b")
        assert counters.diff(before) == {"a": 4, "b": 1}

    def test_scoped_prefixes(self):
        counters = CounterSet()
        counters.scoped("dram.fast").add("row_hits", 2)
        assert counters["dram.fast.row_hits"] == 2

    def test_iteration_is_sorted(self):
        counters = CounterSet({"z": 1, "a": 1})
        assert list(counters) == ["a", "z"]

    def test_reset(self):
        counters = CounterSet({"a": 1})
        counters.reset()
        assert counters["a"] == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_total_equals_sum_of_increments(self, amounts):
        counters = CounterSet()
        for amount in amounts:
            counters.add("x", amount)
        assert counters["x"] == pytest.approx(sum(amounts))


class TestHistogram:
    def test_bucket_assignment(self):
        histogram = Histogram([10, 20])
        histogram.record(5)
        histogram.record(10)
        histogram.record(15)
        histogram.record(25)
        counts = [count for _, count in histogram.buckets()]
        assert counts == [1, 2, 1]

    def test_exact_mean(self):
        histogram = Histogram([10])
        histogram.record_many([1, 2, 3])
        assert histogram.mean == pytest.approx(2.0)

    def test_min_max(self):
        histogram = Histogram([10])
        histogram.record_many([4, 9, 2])
        assert histogram.minimum == 2 and histogram.maximum == 9

    def test_linear_constructor(self):
        histogram = Histogram.linear(0, 100, 10)
        assert len(histogram.buckets()) == 10

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram([10, 5])

    def test_rejects_duplicate_bounds(self):
        with pytest.raises(ValueError):
            Histogram([5, 5])

    def test_percentile_monotonic(self):
        histogram = Histogram.linear(0, 100, 20)
        histogram.record_many(range(100))
        p50 = histogram.percentile(0.5)
        p90 = histogram.percentile(0.9)
        assert p50 <= p90

    def test_percentile_bounds_check(self):
        with pytest.raises(ValueError):
            Histogram([1]).percentile(1.5)

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=100))
    def test_count_matches_records(self, values):
        histogram = Histogram([100, 500])
        histogram.record_many(values)
        assert histogram.count == len(values)
        assert sum(count for _, count in histogram.buckets()) == len(values)


class TestTimeline:
    def test_sample_and_series(self):
        timeline = Timeline(["a", "b"])
        timeline.sample(0.0, a=1, b=2)
        timeline.sample(1.0, a=3, b=4)
        assert timeline.series("a") == [1, 3]
        assert timeline.times == [0.0, 1.0]

    def test_rejects_missing_channel(self):
        timeline = Timeline(["a", "b"])
        with pytest.raises(ValueError):
            timeline.sample(0.0, a=1)

    def test_rejects_unknown_channel(self):
        timeline = Timeline(["a"])
        with pytest.raises(ValueError):
            timeline.sample(0.0, a=1, b=2)

    def test_rejects_time_regression(self):
        timeline = Timeline(["a"])
        timeline.sample(5.0, a=1)
        with pytest.raises(ValueError):
            timeline.sample(4.0, a=1)

    def test_peak_and_minimum(self):
        timeline = Timeline(["v"])
        for t, v in enumerate([1, 5, 3]):
            timeline.sample(float(t), v=v)
        assert timeline.peak("v") == (1.0, 5.0)
        assert timeline.minimum("v") == (0.0, 1.0)

    def test_last_and_mean(self):
        timeline = Timeline(["v"])
        timeline.sample(0, v=2)
        timeline.sample(1, v=4)
        assert timeline.last("v") == 4
        assert timeline.mean("v") == pytest.approx(3.0)

    def test_empty_timeline_raises(self):
        with pytest.raises(IndexError):
            Timeline(["v"]).last("v")

    def test_duplicate_channels_rejected(self):
        with pytest.raises(ValueError):
            Timeline(["a", "a"])


class TestSummary:
    def test_geomean_simple(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean([])

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100), min_size=1, max_size=30
        )
    )
    def test_geomean_between_min_and_max(self, values):
        result = geomean(values)
        assert min(values) <= result * (1 + 1e-9)
        assert result <= max(values) * (1 + 1e-9)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100), min_size=1, max_size=30
        ),
        st.floats(min_value=0.01, max_value=100),
    )
    def test_geomean_scale_invariance(self, values, factor):
        scaled = [value * factor for value in values]
        assert geomean(scaled) == pytest.approx(
            geomean(values) * factor, rel=1e-6
        )

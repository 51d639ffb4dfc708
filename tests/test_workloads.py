"""Tests for the workload models (catalogue, synthesis, placement)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CACHELINE_BYTES, scaled_config
from repro.workloads import (
    TABLE2_BENCHMARKS,
    benchmark,
    benchmark_names,
    build_workload,
    contiguous_placement,
    scattered_placement,
    SyntheticAccessGenerator,
    zipf_weights,
)


class TestSuites:
    def test_fourteen_benchmarks(self):
        assert len(TABLE2_BENCHMARKS) == 14

    def test_table2_values_verbatim(self):
        mcf = benchmark("mcf")
        assert mcf.llc_mpki == pytest.approx(59.804)
        assert mcf.footprint_gb == pytest.approx(19.65)
        stream = benchmark("stream")
        assert stream.llc_mpki == pytest.approx(35.77)
        assert stream.footprint_gb == pytest.approx(21.66)

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            benchmark("doom")

    def test_names_order_matches_catalogue(self):
        assert benchmark_names()[0] == "bwaves"
        assert len(benchmark_names()) == 14

    def test_icount_gap_reflects_mpki(self):
        assert benchmark("mcf").icount_gap == round(1000 / 59.804)
        assert benchmark("miniGhost").icount_gap == round(1000 / 0.19)


class TestZipf:
    def test_weights_normalised(self):
        weights = zipf_weights(100, 1.1)
        assert weights.sum() == pytest.approx(1.0)

    def test_weights_decreasing(self):
        weights = zipf_weights(50, 0.9)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_alpha_zero_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert weights[0] == pytest.approx(weights[-1])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)


class TestPlacement:
    def test_contiguous(self):
        assert contiguous_placement(10, 4) == [0, 1, 2, 3]
        assert contiguous_placement(10, 2, start=5) == [5, 6]

    def test_contiguous_overflow(self):
        with pytest.raises(ValueError):
            contiguous_placement(10, 4, start=8)

    def test_scattered_deterministic(self):
        a = scattered_placement(1000, 100, seed=5)
        b = scattered_placement(1000, 100, seed=5)
        assert a == b

    def test_scattered_distinct_and_sorted(self):
        placed = scattered_placement(1000, 500, seed=1)
        assert placed == sorted(set(placed))
        assert all(0 <= s < 1000 for s in placed)

    def test_scattered_different_seeds_differ(self):
        assert scattered_placement(1000, 100, seed=1) != scattered_placement(
            1000, 100, seed=2
        )

    def test_bounds(self):
        with pytest.raises(ValueError):
            scattered_placement(10, 11)
        with pytest.raises(ValueError):
            scattered_placement(10, 0)

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40)
    def test_scattered_occupancy_property(self, allocated, seed):
        total = 500
        placed = scattered_placement(total, allocated, seed=seed)
        assert len(placed) == allocated
        assert len(set(placed)) == allocated


class TestSyntheticGenerator:
    def make(self, name="bwaves", segments=None, seed=0):
        spec = benchmark(name)
        segments = segments if segments is not None else list(range(200))
        return SyntheticAccessGenerator(
            spec, segments, segment_bytes=2048, seed=seed
        )

    def test_deterministic_with_seed(self):
        a = list(self.make(seed=3).stream(500))
        b = list(self.make(seed=3).stream(500))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(self.make(seed=1).stream(500))
        b = list(self.make(seed=2).stream(500))
        assert a != b

    def test_exact_access_count(self):
        assert len(list(self.make().stream(777))) == 777

    def test_addresses_within_owned_segments(self):
        segments = list(range(50, 250, 2))
        generator = self.make(segments=segments)
        owned = set(segments)
        for record in generator.stream(2000):
            assert record.address // 2048 in owned

    def test_line_aligned_addresses(self):
        for record in self.make().stream(500):
            assert record.address % CACHELINE_BYTES == 0

    def test_gaps_match_mpki(self):
        spec = benchmark("bwaves")
        for record in self.make().stream(100):
            assert record.icount_gap == spec.icount_gap

    def test_write_fraction_approximate(self):
        spec = benchmark("lbm")  # write fraction 0.45
        generator = SyntheticAccessGenerator(
            spec, list(range(200)), 2048, seed=0
        )
        records = list(generator.stream(4000))
        fraction = sum(r.is_write for r in records) / len(records)
        assert 0.25 < fraction < 0.65

    def test_temporal_skew(self):
        # The top decile of segments should absorb well over its
        # proportional share of accesses.
        generator = self.make(name="comd")
        counts = {}
        for record in generator.stream(5000):
            segment = record.address // 2048
            counts[segment] = counts.get(segment, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        top_decile = sum(ranked[: max(1, len(ranked) // 10)])
        assert top_decile / 5000 > 0.2

    def test_spatial_runs(self):
        # Consecutive accesses frequently touch adjacent lines.
        records = list(self.make(name="stream").stream(2000))
        sequential = sum(
            1
            for a, b in zip(records, records[1:])
            if b.address - a.address == CACHELINE_BYTES
        )
        assert sequential / len(records) > 0.5

    def test_working_set_bounded(self):
        generator = self.make(name="SP")  # ws fraction 0.12
        touched = {r.address // 2048 for r in generator.stream(3000)}
        # Touched segments stay well below the whole footprint
        # (working set + tail).
        assert len(touched) < 150

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            SyntheticAccessGenerator(benchmark("mcf"), [], 2048)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            list(self.make().stream(-1))


class TestBuildWorkload:
    def setup_method(self):
        self.config = scaled_config()

    def test_footprint_matches_table2_fraction(self):
        workload = build_workload(self.config, benchmark("mcf"))
        expected = 19.65 / 24.0
        assert workload.occupancy == pytest.approx(expected, rel=0.02)

    def test_twelve_disjoint_partitions(self):
        workload = build_workload(self.config, benchmark("bwaves"))
        assert workload.num_copies == 12
        seen = set()
        for core_segments in workload.per_core_segments:
            assert not (seen & set(core_segments))
            seen.update(core_segments)
        assert seen == set(workload.segments)

    def test_page_granular_placement(self):
        workload = build_workload(self.config, benchmark("mcf"))
        segments = set(workload.segments)
        per_page = self.config.page_bytes // self.config.segment_bytes
        for segment in workload.segments:
            base = segment - segment % per_page
            assert all(base + i in segments for i in range(per_page))

    def test_deterministic(self):
        a = build_workload(self.config, benchmark("mcf"), seed=4)
        b = build_workload(self.config, benchmark("mcf"), seed=4)
        assert a.segments == b.segments

    def test_footprint_override(self):
        workload = build_workload(
            self.config, benchmark("mcf"), footprint_override_fraction=0.5
        )
        assert workload.occupancy == pytest.approx(0.5, rel=0.02)

    def test_isa_allocations_apply(self):
        from repro.core import ChameleonOptArchitecture

        workload = build_workload(self.config, benchmark("comd"))
        arch = ChameleonOptArchitecture(self.config)
        workload.apply_allocations(arch)
        assert arch.counters["isa.alloc_seen"] == len(workload.segments)
        workload.release_allocations(arch)
        assert arch.counters["isa.free_seen"] == len(workload.segments)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            build_workload(
                self.config, benchmark("mcf"), footprint_override_fraction=1.5
            )

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            build_workload(self.config, benchmark("mcf"), num_copies=0)

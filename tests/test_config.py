"""Tests for repro.config (Table I modelling)."""

import dataclasses

import pytest

from repro.config import (
    GB,
    KB,
    MB,
    CoreConfig,
    DramTiming,
    SystemConfig,
    offchip_dram,
    paper_config,
    scaled_config,
    stacked_dram,
)
from repro.experiments.runner import Scale


class TestDramTiming:
    def test_row_hit_is_cas_only(self):
        timing = DramTiming()
        assert timing.row_hit_cycles == timing.tCAS

    def test_row_miss_adds_activate(self):
        timing = DramTiming()
        assert timing.row_miss_cycles == timing.tRCD + timing.tCAS

    def test_row_conflict_adds_precharge(self):
        timing = DramTiming()
        assert (
            timing.row_conflict_cycles
            == timing.tRP + timing.tRCD + timing.tCAS
        )

    def test_table1_timings(self):
        timing = DramTiming()
        assert (timing.tCAS, timing.tRCD, timing.tRP, timing.tRAS) == (
            11,
            11,
            11,
            28,
        )


class TestDramConfig:
    def test_stacked_dram_capacity_default(self):
        assert stacked_dram().capacity_bytes == 4 * GB

    def test_offchip_dram_capacity_default(self):
        assert offchip_dram().capacity_bytes == 20 * GB

    def test_stacked_has_higher_bandwidth(self):
        fast, slow = stacked_dram(), offchip_dram()
        ratio = (
            fast.peak_bandwidth_bytes_per_sec
            / slow.peak_bandwidth_bytes_per_sec
        )
        # 1.6GHz*128b*2ch vs 0.8GHz*64b*2ch => 4x.
        assert ratio == pytest.approx(4.0)

    def test_trfc_asymmetry(self):
        assert stacked_dram().timing.tRFC_ns == 138.0
        assert offchip_dram().timing.tRFC_ns == 530.0

    def test_burst_time_scales_linearly(self):
        fast = stacked_dram()
        assert fast.burst_time_ns(128) == pytest.approx(
            2 * fast.burst_time_ns(64)
        )

    def test_total_banks(self):
        assert stacked_dram().total_banks == 2 * 2 * 8


class TestSystemConfig:
    def test_paper_config_ratio(self):
        assert paper_config().capacity_ratio == 5

    def test_paper_config_total(self):
        assert paper_config().total_capacity_bytes == 24 * GB

    def test_segment_group_count_equals_fast_segments(self):
        config = scaled_config()
        assert config.num_segment_groups == config.num_fast_segments

    def test_segments_per_group(self):
        assert scaled_config().segments_per_group == 6

    def test_scaled_config_preserves_ratio(self):
        assert scaled_config().capacity_ratio == paper_config().capacity_ratio

    def test_rejects_non_multiple_capacities(self):
        with pytest.raises(ValueError):
            SystemConfig(
                fast_mem=stacked_dram(3 * MB),
                slow_mem=offchip_dram(20 * MB),
            )

    def test_rejects_non_power_of_two_segment(self):
        with pytest.raises(ValueError):
            scaled_config(segment_bytes=3000)

    def test_with_segment_bytes(self):
        config = scaled_config().with_segment_bytes(64)
        assert config.segment_bytes == 64
        assert config.num_fast_segments == 4 * MB // 64


class TestRatioConfig:
    """Figures 21/23 keep a constant total and vary the slow:fast split
    (1:3 -> 6+18, 1:5 -> 4+20, 1:7 -> 3+21 units of 24)."""

    @pytest.mark.parametrize("ratio", [3, 5, 7])
    def test_ratio_preserved(self, ratio):
        assert Scale().with_ratio(ratio).config().capacity_ratio == ratio

    @pytest.mark.parametrize("ratio", [3, 5, 7])
    def test_total_is_constant(self, ratio):
        config = Scale().with_ratio(ratio).config()
        assert config.total_capacity_bytes == pytest.approx(24 * MB, rel=1e-6)

    def test_one_to_three_split(self):
        config = Scale().with_ratio(3).config()
        assert config.fast_mem.capacity_bytes == 6 * MB
        assert config.slow_mem.capacity_bytes == 18 * MB

    def test_one_to_seven_split(self):
        config = Scale().with_ratio(7).config()
        assert config.fast_mem.capacity_bytes == 3 * MB

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            Scale().with_ratio(0).config()


class TestCoreConfig:
    def test_frequency_matches_table1(self):
        assert CoreConfig().frequency_hz == 3.6e9

    def test_replace_keeps_frozen_semantics(self):
        core = CoreConfig()
        faster = dataclasses.replace(core, mlp=8.0)
        assert faster.mlp == 8.0
        assert core.mlp != 8.0

"""Tests for FrameStats merging, scaling and derived metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import CacheStats
from repro.gpu.dram import DRAMStats
from repro.gpu.stats import KEY_METRICS, FrameStats


def sample_stats(scale: float = 1.0) -> FrameStats:
    stats = FrameStats(
        cycles=1000.0 * scale,
        geometry_cycles=100.0 * scale,
        tiling_cycles=50.0 * scale,
        raster_cycles=850.0 * scale,
        vertex_instructions=400.0 * scale,
        fragment_instructions=3600.0 * scale,
        vertices_shaded=100.0 * scale,
        fragments_shaded=900.0 * scale,
        energy_geometry=10.0 * scale,
        energy_tiling=15.0 * scale,
        energy_raster=75.0 * scale,
    )
    stats.l2_cache = CacheStats(
        accesses=200 * scale, hits=150 * scale, misses=50 * scale
    )
    stats.tile_cache = CacheStats(accesses=80 * scale, hits=60 * scale,
                                  misses=20 * scale)
    stats.dram = DRAMStats(read_accesses=40 * scale, write_accesses=10 * scale)
    return stats


class TestKeyMetrics:
    def test_names(self):
        assert KEY_METRICS == (
            "cycles", "dram_accesses", "l2_accesses", "tile_cache_accesses"
        )

    def test_values(self):
        stats = sample_stats()
        metrics = stats.key_metrics()
        assert metrics["cycles"] == 1000.0
        assert metrics["dram_accesses"] == 50
        assert metrics["l2_accesses"] == 200
        assert metrics["tile_cache_accesses"] == 80

    def test_ipc(self):
        assert sample_stats().ipc == pytest.approx(4.0)

    def test_ipc_zero_cycles(self):
        assert FrameStats().ipc == 0.0


class TestPowerFractions:
    def test_order_is_geometry_raster_tiling(self):
        g, r, t = sample_stats().power_fractions()
        assert (g, r, t) == (0.10, 0.75, 0.15)

    def test_fractions_sum_to_one(self):
        assert sum(sample_stats().power_fractions()) == pytest.approx(1.0)

    def test_empty_falls_back_to_paper_weights(self):
        assert FrameStats().power_fractions() == (0.108, 0.745, 0.147)


class TestMergeAndScale:
    def test_merge_adds_everything(self):
        a = sample_stats()
        a.merge(sample_stats())
        assert a.cycles == 2000.0
        assert a.l2_cache.accesses == 400
        assert a.dram.total_accesses == 100
        assert a.energy_raster == 150.0

    def test_scaled(self):
        scaled = sample_stats().scaled(3.0)
        assert scaled.cycles == 3000.0
        assert scaled.l2_cache.accesses == 600
        assert scaled.dram.read_accesses == 120
        assert scaled.fragment_instructions == pytest.approx(10800.0)

    def test_scaling_preserves_rates(self):
        base = sample_stats()
        scaled = base.scaled(7.0)
        assert scaled.ipc == pytest.approx(base.ipc)
        assert scaled.l2_cache.hit_rate == pytest.approx(base.l2_cache.hit_rate)
        assert scaled.power_fractions() == pytest.approx(base.power_fractions())

    def test_scaled_does_not_mutate_original(self):
        base = sample_stats()
        base.scaled(2.0)
        assert base.cycles == 1000.0

    def test_total(self):
        total = FrameStats.total([sample_stats(), sample_stats(2.0)])
        assert total.cycles == 3000.0

    def test_total_empty(self):
        assert FrameStats.total([]).cycles == 0.0

    @given(factor=st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    @settings(max_examples=30)
    def test_scale_then_merge_equals_sum(self, factor):
        merged = FrameStats.total([sample_stats().scaled(factor)])
        assert merged.cycles == pytest.approx(1000.0 * factor)
        assert merged.l2_cache.accesses == pytest.approx(200 * factor)

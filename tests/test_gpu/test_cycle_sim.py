"""Tests for the cycle-accurate simulator facade."""

import pytest

from repro.errors import SimulationError
from repro.gpu.config import CycleConfig
from repro.gpu.cycle_sim import CycleAccurateSimulator, SequenceResult
from repro.gpu.stats import FrameStats


@pytest.fixture(scope="module")
def simulator() -> CycleAccurateSimulator:
    return CycleAccurateSimulator()


class TestFullSequence:
    def test_simulates_every_frame(self, simulator, tiny_trace):
        result = simulator.simulate(tiny_trace)
        assert result.frame_ids == tuple(range(6))
        assert len(result.frame_stats) == 6

    def test_positive_cycles(self, simulator, tiny_trace):
        result = simulator.simulate(tiny_trace)
        assert all(s.cycles > 0 for s in result.frame_stats)

    def test_near_frames_heavier_than_far_frames(self, simulator, tiny_trace):
        """The tiny trace's first half renders a closer (bigger) object."""
        result = simulator.simulate(tiny_trace)
        near = result.frame_stats[0]
        far = result.frame_stats[5]
        assert near.fragments_shaded > far.fragments_shaded
        assert near.cycles > far.cycles

    def test_totals_sum_frames(self, simulator, tiny_trace):
        result = simulator.simulate(tiny_trace)
        assert result.totals.cycles == pytest.approx(
            sum(s.cycles for s in result.frame_stats)
        )

    def test_deterministic(self, simulator, tiny_trace):
        first = simulator.simulate(tiny_trace)
        second = simulator.simulate(tiny_trace)
        assert [s.cycles for s in first.frame_stats] == [
            s.cycles for s in second.frame_stats
        ]
        assert first.totals.dram_accesses == second.totals.dram_accesses

    def test_phase_cycles_compose_total(self, simulator, tiny_trace):
        result = simulator.simulate(tiny_trace)
        for stats in result.frame_stats:
            lower = max(stats.geometry_cycles, stats.tiling_cycles)
            assert stats.cycles >= lower + stats.raster_cycles

    def test_energy_positive_in_all_phases(self, simulator, tiny_trace):
        totals = simulator.simulate(tiny_trace).totals
        assert totals.energy_geometry > 0
        assert totals.energy_tiling > 0
        assert totals.energy_raster > 0


class TestSubsetSimulation:
    def test_subset(self, simulator, tiny_trace):
        result = simulator.simulate(tiny_trace, frame_ids=[1, 4])
        assert result.frame_ids == (1, 4)

    def test_subset_sorted(self, simulator, tiny_trace):
        result = simulator.simulate(tiny_trace, frame_ids=[4, 1])
        assert result.frame_ids == (1, 4)

    def test_out_of_range_rejected(self, simulator, tiny_trace):
        with pytest.raises(SimulationError):
            simulator.simulate(tiny_trace, frame_ids=[99])

    def test_stats_for(self, simulator, tiny_trace):
        result = simulator.simulate(tiny_trace, frame_ids=[2])
        assert result.stats_for(2).cycles > 0
        with pytest.raises(SimulationError):
            result.stats_for(3)


class TestSingleFrame:
    def test_simulate_frame(self, tiny_trace):
        """One frame with cold caches, on both backends, bit-identical."""
        stats = [
            CycleAccurateSimulator(cycle=CycleConfig(backend=backend))
            .simulate(tiny_trace, frame_ids=[0])
            .frame_stats[0]
            for backend in ("scalar", "vector")
        ]
        assert stats[0] == stats[1]
        assert stats[0].cycles > 0
        assert stats[0].fragments_shaded > 0


class TestSequenceResult:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SimulationError):
            SequenceResult(
                trace_name="x",
                frame_ids=(0, 1),
                frame_stats=(FrameStats(),),
                elapsed_seconds=0.0,
            )

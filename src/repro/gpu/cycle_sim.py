"""Cycle-accurate simulator facade (TEAPOT's timing model substitute).

Drives the per-frame stage models (geometry -> tiling -> raster) over a
:class:`~repro.scene.trace.WorkloadTrace`, maintaining persistent cache and
DRAM state across frames, and reports per-frame and aggregate
:class:`~repro.gpu.stats.FrameStats`.

Frame time composition follows the TBR execution model: the geometry
pipeline and the tiling engine stream concurrently (binning consumes
primitive-assembly output), while the raster phase can only start once
binning has finished, so::

    frame_cycles = max(geometry, tiling) + raster + fixed overhead

bounded from below by the DRAM bus occupancy the frame generated (a
bandwidth-saturated frame cannot finish before its memory traffic drains).

:meth:`CycleAccurateSimulator.simulate` runs the model on the backend its
:class:`~repro.gpu.config.CycleConfig` names: the batched vector backend
(:mod:`repro.gpu.vector`, the default) or the scalar per-access stage
models in this module, the reference oracle the vector backend is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.obs import counter, gauge, get_collector, observe, span
from repro.gpu.config import (
    FRAME_OVERHEAD_CYCLES,
    CycleConfig,
    GPUConfig,
    default_config,
)
from repro.gpu.dram import DRAMStats
from repro.gpu.geometry import simulate_geometry
from repro.gpu.hierarchy import MemorySystem
from repro.gpu.power import EnergyParams, PowerModel
from repro.gpu.raster import simulate_raster
from repro.gpu.stats import CacheStats, FrameStats
from repro.gpu.tiling import simulate_tiling
from repro.gpu.workmodel import compute_frame_work
from repro.scene.frame import Frame
from repro.scene.trace import WorkloadTrace

@dataclass(frozen=True)
class SequenceResult:
    """Outcome of simulating a set of frames from one trace."""

    trace_name: str
    frame_ids: tuple[int, ...]
    frame_stats: tuple[FrameStats, ...]
    elapsed_seconds: float

    def __post_init__(self) -> None:
        if len(self.frame_ids) != len(self.frame_stats):
            raise SimulationError(
                "frame_ids and frame_stats lengths differ: "
                f"{len(self.frame_ids)} vs {len(self.frame_stats)}"
            )

    @property
    def totals(self) -> FrameStats:
        """Aggregate statistics over all simulated frames."""
        return FrameStats.total(list(self.frame_stats))

    def stats_for(self, frame_id: int) -> FrameStats:
        """Return the statistics of one simulated frame."""
        try:
            index = self.frame_ids.index(frame_id)
        except ValueError as exc:
            raise SimulationError(
                f"frame {frame_id} was not simulated in this run"
            ) from exc
        return self.frame_stats[index]

    def to_dict(self) -> dict:
        """JSON-serializable representation (for the artifact store).

        ``elapsed_seconds`` is persisted too: a store-hit evaluation
        then reports the same wall-clock speedup the original
        computation measured instead of a meaningless near-zero time.
        """
        return {
            "trace_name": self.trace_name,
            "frame_ids": list(self.frame_ids),
            "frame_stats": [stats.to_dict() for stats in self.frame_stats],
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SequenceResult":
        """Rebuild a result saved with :meth:`to_dict`."""
        return cls(
            trace_name=payload["trace_name"],
            frame_ids=tuple(payload["frame_ids"]),
            frame_stats=tuple(
                FrameStats.from_dict(stats) for stats in payload["frame_stats"]
            ),
            elapsed_seconds=payload["elapsed_seconds"],
        )

    def to_csv(self, path) -> None:
        """Write the per-frame statistics as a CSV file.

        One row per simulated frame, covering the headline metrics, work
        counts and per-phase energies — convenient for external analysis
        tooling (spreadsheets, pandas, R).
        """
        import csv
        from pathlib import Path

        columns = [
            "frame_id", "cycles", "dram_accesses", "l2_accesses",
            "tile_cache_accesses", "vertices_shaded", "primitives_binned",
            "fragments_generated", "fragments_shaded",
            "vertex_instructions", "fragment_instructions",
            "energy_geometry", "energy_tiling", "energy_raster",
        ]
        with Path(path).open("w", newline="") as stream:
            writer = csv.writer(stream)
            writer.writerow(columns)
            for frame_id, stats in zip(self.frame_ids, self.frame_stats):
                writer.writerow(
                    [frame_id]
                    + [getattr(stats, column) for column in columns[1:]]
                )


class CycleAccurateSimulator:
    """The cycle-level TBR GPU model."""

    def __init__(
        self,
        config: GPUConfig | None = None,
        energy_params: EnergyParams | None = None,
        cycle: CycleConfig | None = None,
    ) -> None:
        """Create a simulator.

        Args:
            config: GPU configuration; ``None`` uses the Table I baseline.
            energy_params: per-event energies; ``None`` uses the defaults.
            cycle: execution strategy; ``None`` runs the production vector
                backend (``CycleConfig(backend="scalar")`` runs the
                reference oracle).
        """
        self.config = config if config is not None else default_config()
        self.power_model = PowerModel(energy_params)
        self.cycle = cycle if cycle is not None else CycleConfig()

    def simulate(
        self,
        trace: WorkloadTrace,
        frame_ids: list[int] | None = None,
        warmup_frames: int = 0,
    ) -> SequenceResult:
        """Simulate ``trace`` (or a subset of its frames, in id order).

        Args:
            trace: the workload to simulate.
            frame_ids: optional subset of frames to simulate (e.g. the
                representatives MEGsim selected).  ``None`` simulates the
                whole sequence.
            warmup_frames: when sampling a subset, simulate up to this many
                frames *preceding* each selected frame first, discarding
                their statistics.  This reconstructs an approximate
                Architectural State Starting Image (the ASSI problem of
                Section II-C): the selected frame then runs against warm
                caches, like it would mid-sequence.  Ignored for full
                runs; the extra frames count toward the wall-clock cost.

        Returns:
            Per-frame statistics plus wall-clock time, the quantity the
            paper's simulation-time speedup compares.
        """
        if warmup_frames < 0:
            raise SimulationError(
                f"warmup_frames must be >= 0, got {warmup_frames}"
            )
        if frame_ids is None:
            selected = list(range(trace.frame_count))
            warmup_frames = 0
        else:
            # Dedup before sorting: a repeated id would otherwise simulate
            # the same frame twice and double-count it in the totals.
            selected = sorted(set(frame_ids))
            if not selected:
                raise SimulationError(
                    f"empty frame selection for trace {trace.name!r}: "
                    "pass frame_ids=None to simulate the full sequence"
                )
            for fid in selected:
                if not 0 <= fid < trace.frame_count:
                    raise SimulationError(
                        f"frame id {fid} outside trace of {trace.frame_count} frames"
                    )
        # The warmup schedule is backend-independent: (frame id, keep)
        # pairs in execution order, warmup frames interleaved before the
        # selected frame they warm (never re-running an already-simulated
        # frame).
        schedule: list[tuple[int, bool]] = []
        previous = -1
        for fid in selected:
            first_warm = max(fid - warmup_frames, previous + 1, 0)
            for warm_id in range(first_warm, fid):
                schedule.append((warm_id, False))
            schedule.append((fid, True))
            previous = fid
        warmed = len(schedule) - len(selected)
        with span(
            "cycle.simulate",
            trace=trace.name,
            frames=len(selected),
            warmup_frames=warmup_frames,
        ) as timing:
            if self.cycle.backend == "vector":
                from repro.gpu.vector import simulate_schedule

                stats = simulate_schedule(
                    trace, schedule, self.config, self.power_model
                )
            else:
                textures = {t.texture_id: t for t in trace.textures}
                mem = MemorySystem(self.config)
                stats = []
                for fid, keep in schedule:
                    frame_stats = self._simulate_frame(
                        trace.frames[fid], textures, mem
                    )
                    if keep:
                        stats.append(frame_stats)
            counter("cycle.frames_simulated", len(selected))
            if warmed:
                counter("cycle.warmup_frames", warmed)
            if get_collector() is not None:
                self._record_gauges(stats)
        return SequenceResult(
            trace_name=trace.name,
            frame_ids=tuple(selected),
            frame_stats=tuple(stats),
            elapsed_seconds=timing.elapsed_seconds,
        )

    @staticmethod
    def _record_gauges(stats: list[FrameStats]) -> None:
        """Surface the run's per-stage totals as gauges (tracing only)."""
        for frame_stats in stats:
            # Integral samples only: shared-name histograms must merge
            # with exact sums across worker buffers (docs/observability.md).
            observe("cycle.frame_dram_accesses", frame_stats.dram_accesses)
        totals = FrameStats.total(stats)
        gauge("cycle.cycles", totals.cycles)
        gauge("cycle.geometry_cycles", totals.geometry_cycles)
        gauge("cycle.tiling_cycles", totals.tiling_cycles)
        gauge("cycle.raster_cycles", totals.raster_cycles)
        gauge("cycle.dram_accesses", totals.dram_accesses)
        gauge("cycle.l2_accesses", totals.l2_accesses)
        gauge("cycle.tile_cache_accesses", totals.tile_cache_accesses)

    def _simulate_frame(
        self,
        frame: Frame,
        textures: dict,
        mem: MemorySystem,
    ) -> FrameStats:
        before = _snapshot(mem)
        # Per-frame phase attribution is rebuilt from scratch each frame.
        mem.l2_accesses_by_phase = {p: 0 for p in mem.l2_accesses_by_phase}
        mem.dram_lines_by_phase = {p: 0 for p in mem.dram_lines_by_phase}

        work = compute_frame_work(frame, self.config)
        geometry = simulate_geometry(work, self.config, mem)
        tiling = simulate_tiling(work, self.config, mem)
        raster = simulate_raster(work, self.config, mem, textures)

        stats = FrameStats(
            geometry_cycles=geometry.cycles,
            tiling_cycles=tiling.cycles,
            raster_cycles=raster.cycles,
            stall_cycles=geometry.stall_cycles
            + tiling.stall_cycles
            + raster.stall_cycles,
            vertex_instructions=geometry.vertex_instructions,
            fragment_instructions=raster.fragment_instructions,
            vertices_shaded=work.vertices_shaded,
            primitives_submitted=work.primitives_submitted,
            primitives_binned=work.primitives_binned,
            prim_tile_pairs=work.prim_tile_pairs,
            fragments_generated=work.fragments_generated,
            fragments_shaded=work.fragments_shaded,
        )
        after = _snapshot(mem)
        _fill_memory_deltas(stats, before, after)

        if self.config.rendering_mode == "imr":
            # No binning barrier: geometry streams straight into the
            # rasterizer, so the phases fully overlap.
            cycles = max(geometry.cycles, raster.cycles) + FRAME_OVERHEAD_CYCLES
        else:
            # TBR/TBDR: rasterization of a frame starts only once its
            # polygon lists are complete; geometry and binning overlap.
            cycles = (
                max(geometry.cycles, tiling.cycles)
                + raster.cycles
                + FRAME_OVERHEAD_CYCLES
            )
        dram_busy = after["dram"].busy_cycles - before["dram"].busy_cycles
        stats.cycles = max(cycles, float(dram_busy))

        self.power_model.attribute_frame(stats, mem)
        return stats


def _copy_cache_stats(stats: CacheStats) -> CacheStats:
    return CacheStats(
        accesses=stats.accesses,
        hits=stats.hits,
        misses=stats.misses,
        writebacks=stats.writebacks,
    )


def _snapshot(mem: MemorySystem) -> dict:
    return {
        "vertex": _copy_cache_stats(mem.vertex_cache.stats),
        "texture": _copy_cache_stats(mem.texture_stats()),
        "tile": _copy_cache_stats(mem.tile_cache.stats),
        "l2": _copy_cache_stats(mem.l2.stats),
        "color": _copy_cache_stats(mem.color_buffer),
        "depth": _copy_cache_stats(mem.depth_buffer),
        "dram": DRAMStats(
            read_accesses=mem.dram.stats.read_accesses,
            write_accesses=mem.dram.stats.write_accesses,
            row_hits=mem.dram.stats.row_hits,
            row_misses=mem.dram.stats.row_misses,
            busy_cycles=mem.dram.stats.busy_cycles,
        ),
    }


def _cache_delta(after: CacheStats, before: CacheStats) -> CacheStats:
    return CacheStats(
        accesses=after.accesses - before.accesses,
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        writebacks=after.writebacks - before.writebacks,
    )


def _fill_memory_deltas(stats: FrameStats, before: dict, after: dict) -> None:
    stats.vertex_cache = _cache_delta(after["vertex"], before["vertex"])
    stats.texture_cache = _cache_delta(after["texture"], before["texture"])
    stats.tile_cache = _cache_delta(after["tile"], before["tile"])
    stats.l2_cache = _cache_delta(after["l2"], before["l2"])
    stats.color_buffer = _cache_delta(after["color"], before["color"])
    stats.depth_buffer = _cache_delta(after["depth"], before["depth"])
    stats.dram = DRAMStats(
        read_accesses=after["dram"].read_accesses - before["dram"].read_accesses,
        write_accesses=after["dram"].write_accesses - before["dram"].write_accesses,
        row_hits=after["dram"].row_hits - before["dram"].row_hits,
        row_misses=after["dram"].row_misses - before["dram"].row_misses,
        busy_cycles=after["dram"].busy_cycles - before["dram"].busy_cycles,
    )

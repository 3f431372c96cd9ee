"""Memory system: L1 caches -> shared L2 -> DRAM.

:class:`MemorySystem` wires the Table I cache hierarchy together.  Pipeline
stage models call :meth:`access` naming the L1 they go through; misses
propagate to the L2 and then to DRAM, writebacks flow downward, and every
level's counters accumulate.  Each access is tagged with the pipeline
*phase* it belongs to (geometry / tiling / raster) so the power model can
attribute shared L2/DRAM energy to phases the way the paper's Figure 4
does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.dram import DRAMModel, DRAMStats
from repro.gpu.region_cache import RegionCache
from repro.gpu.stats import CacheStats

#: Valid pipeline phase tags for shared-resource attribution.
PHASES = ("geometry", "tiling", "raster")


@dataclass(frozen=True, slots=True)
class MemoryAccessResult:
    """Outcome of a batch access through one L1 and the shared levels."""

    l1_misses: int
    l2_misses: int
    dram_lines: int
    latency_cycles: float


class MemorySystem:
    """The full cache/DRAM hierarchy of the modelled GPU.

    Every cache is a region-granular LRU model
    (:class:`~repro.gpu.region_cache.RegionCache`).

    Args:
        config: the Table I configuration.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.vertex_cache = RegionCache(config.vertex_cache)
        self.texture_caches = tuple(
            RegionCache(config.texture_cache)
            for _ in range(config.fragment_processors)
        )
        self.tile_cache = RegionCache(config.tile_cache)
        self.l2 = RegionCache(config.l2_cache)
        self.dram = DRAMModel(config.dram)
        # On-chip tile buffers: always-hit SRAM, counted but not backed.
        self.color_buffer = CacheStats()
        self.depth_buffer = CacheStats()
        # Shared-level traffic attributed per pipeline phase, for energy.
        self.l2_accesses_by_phase: dict[str, int] = {p: 0 for p in PHASES}
        self.dram_lines_by_phase: dict[str, int] = {p: 0 for p in PHASES}

    def _l1(self, name: str, index: int) -> RegionCache:
        if name == "vertex":
            return self.vertex_cache
        if name == "texture":
            return self.texture_caches[index]
        if name == "tile":
            return self.tile_cache
        raise SimulationError(f"unknown L1 cache {name!r}")

    def access(
        self,
        l1_name: str,
        key: object,
        distinct_lines: int,
        total_accesses: int,
        phase: str,
        write: bool = False,
        l1_index: int = 0,
    ) -> MemoryAccessResult:
        """Run a region access through an L1, the L2 and DRAM.

        Args:
            l1_name: ``"vertex"``, ``"texture"`` or ``"tile"``.
            key: region identity (see :class:`RegionCache`).
            distinct_lines: distinct lines the batch touches.
            total_accesses: total L1 accesses in the batch.
            phase: pipeline phase tag for shared-traffic attribution.
            write: whether the batch dirties the region.
            l1_index: which texture cache (fragment processor) to use.

        Returns:
            Aggregate miss counts per level and the latency the issuing
            stage observes for the leading access.
        """
        if phase not in PHASES:
            raise SimulationError(f"unknown phase {phase!r}")
        l1 = self._l1(l1_name, l1_index)
        r1 = l1.access(key, distinct_lines, total_accesses, write=write)
        if r1.misses == 0 and r1.writeback_lines == 0:
            return MemoryAccessResult(0, 0, 0, l1.config.latency_cycles)

        l2_misses = 0
        dram_lines = 0
        latency = float(l1.config.latency_cycles)
        if r1.misses:
            r2 = self.l2.access(key, r1.misses, r1.misses, write=False)
            self.l2_accesses_by_phase[phase] += r1.misses
            latency += self.l2.config.latency_cycles
            l2_misses = r2.misses
            if r2.misses:
                latency += self.dram.transfer(r2.misses, write=False)
                self.dram_lines_by_phase[phase] += r2.misses
                dram_lines += r2.misses
            if r2.writeback_lines:
                self.dram.transfer(r2.writeback_lines, write=True)
                self.dram_lines_by_phase[phase] += r2.writeback_lines
                dram_lines += r2.writeback_lines
        if r1.writeback_lines:
            # Dirty L1 evictions land in the L2 as writes.
            r2wb = self.l2.access(
                ("wb", key), r1.writeback_lines, r1.writeback_lines, write=True
            )
            self.l2_accesses_by_phase[phase] += r1.writeback_lines
            extra = r2wb.misses + r2wb.writeback_lines
            if extra:
                self.dram.transfer(extra, write=True)
                self.dram_lines_by_phase[phase] += extra
                dram_lines += extra
        return MemoryAccessResult(r1.misses, l2_misses, dram_lines, latency)

    def access_l2_direct(
        self,
        key: object,
        distinct_lines: int,
        total_accesses: int,
        phase: str,
        write: bool = False,
    ) -> MemoryAccessResult:
        """Access a region directly at the L2 (no L1 in front).

        Used by the IMR configuration, whose depth and color buffers live
        in main memory behind the L2 rather than in on-chip tile SRAM.
        """
        if phase not in PHASES:
            raise SimulationError(f"unknown phase {phase!r}")
        result = self.l2.access(key, distinct_lines, total_accesses, write=write)
        self.l2_accesses_by_phase[phase] += total_accesses
        latency = float(self.l2.config.latency_cycles)
        dram_lines = 0
        if result.misses:
            latency += self.dram.transfer(result.misses, write=False)
            self.dram_lines_by_phase[phase] += result.misses
            dram_lines += result.misses
        if result.writeback_lines:
            self.dram.transfer(result.writeback_lines, write=True)
            self.dram_lines_by_phase[phase] += result.writeback_lines
            dram_lines += result.writeback_lines
        return MemoryAccessResult(0, result.misses, dram_lines, latency)

    def write_through_l2(
        self, key: object, lines: int, phase: str
    ) -> MemoryAccessResult:
        """Write a region into the L2 directly (framebuffer flush path).

        The TBR color resolve bypasses the small on-chip buffers: a finished
        tile's pixels are written once to the framebuffer through the L2.
        """
        if lines < 1:
            raise SimulationError(f"lines must be >= 1, got {lines}")
        if phase not in PHASES:
            raise SimulationError(f"unknown phase {phase!r}")
        result = self.l2.access(key, lines, lines, write=True)
        self.l2_accesses_by_phase[phase] += lines
        # Full-line writes allocate without fetching, so write misses cost
        # no DRAM reads; only evicted dirty data streams out.  For regions
        # larger than the L2 that is the whole region.
        dram_lines = result.writeback_lines
        if dram_lines:
            self.dram.transfer(dram_lines, write=True)
            self.dram_lines_by_phase[phase] += dram_lines
        return MemoryAccessResult(0, result.misses, dram_lines, 0.0)

    def tally_on_chip(self, buffer: str, accesses: int) -> None:
        """Count accesses to an always-hit on-chip tile buffer."""
        if accesses < 0:
            raise SimulationError(f"accesses must be >= 0, got {accesses}")
        target = self.color_buffer if buffer == "color" else self.depth_buffer
        if buffer not in ("color", "depth"):
            raise SimulationError(f"unknown on-chip buffer {buffer!r}")
        target.accesses += accesses
        target.hits += accesses

    def texture_stats(self) -> CacheStats:
        """Aggregate the per-processor texture caches into one counter."""
        total = CacheStats()
        for cache in self.texture_caches:
            total.merge(cache.stats)
        return total

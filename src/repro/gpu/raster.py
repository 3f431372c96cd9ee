"""Raster Pipeline timing model.

The back-end of Figure 1, processed one tile at a time: the Rasterizer
reads each tile's polygon list back through the tile cache and discretizes
primitives into fragments; the Early Z-Test culls occluded fragments using
the on-chip depth buffer; the Fragment Processors run the fragment shader
(sampling textures through their private texture caches); the Blending
Unit composites output colors into the on-chip color buffer; and finished
tiles are resolved to the framebuffer through the L2 exactly once — the
memory-traffic advantage of Tile-Based Rendering (Section II-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.config import GPUConfig
from repro.gpu.hierarchy import MemorySystem
from repro.gpu.queues import memory_stall_cycles, pipelined_cycles
from repro.gpu.tiling import polygon_list_lines, varyings_lines
from repro.gpu.workmodel import FrameWork
from repro.scene.mesh import Texture

# Mip-mapping overhead of a trilinear footprint: two adjacent levels are
# touched, the coarser one a quarter the size of the finer one.
TRILINEAR_FOOTPRINT_FACTOR = 1.25


@dataclass(frozen=True, slots=True)
class RasterResult:
    """Timing and activity of the raster phase of one frame."""

    cycles: float
    stall_cycles: float
    fragment_instructions: int
    texture_accesses: int
    framebuffer_lines: int


def texture_footprint_lines(
    texture: Texture, pixels_sampled: int, trilinear: bool, line_bytes: int
) -> int:
    """Distinct texture-cache lines touched when shading ``pixels_sampled``.

    With mip-mapping the sampled level is chosen so texels map ~1:1 to
    pixels, so the footprint is bounded both by the texture size and by the
    screen-space area being shaded.
    """
    footprint_bytes = pixels_sampled * texture.texel_bytes
    if trilinear:
        footprint_bytes = int(footprint_bytes * TRILINEAR_FOOTPRINT_FACTOR)
    footprint_bytes = min(footprint_bytes, texture.size_bytes)
    return max(1, math.ceil(footprint_bytes / line_bytes))


def simulate_raster(
    work: FrameWork,
    config: GPUConfig,
    mem: MemorySystem,
    textures: dict[int, Texture],
) -> RasterResult:
    """Run the per-tile raster phase of one frame through the memory system."""
    fragment_instructions = 0
    texture_accesses = 0
    stall = 0.0

    for index, dcw in enumerate(work.draw_work):
        if dcw.fragments_generated == 0:
            continue
        dc = dcw.draw_call

        # Read back the polygon list and the transformed vertices
        # (varyings) written during binning.
        if dcw.prim_tile_pairs:
            lines = polygon_list_lines(dcw.prim_tile_pairs, config)
            result = mem.access(
                "tile",
                key=("plist", index),
                distinct_lines=lines,
                total_accesses=dcw.prim_tile_pairs,
                phase="raster",
            )
            if result.l1_misses:
                stall += memory_stall_cycles(
                    result.l1_misses, result.latency_cycles, config.fragment_queue
                )
            varyings = varyings_lines(dcw.vertices_shaded, config)
            # Each binned primitive interpolates from its three corners.
            result = mem.access(
                "tile",
                key=("varyings", index),
                distinct_lines=varyings,
                total_accesses=max(3 * dcw.primitives_binned, 1),
                phase="raster",
            )
            if result.l1_misses:
                stall += memory_stall_cycles(
                    result.l1_misses, result.latency_cycles, config.fragment_queue
                )

        # Early-Z: every generated fragment tests depth; survivors write it.
        # Blending: survivors write color; transparent survivors also read
        # the destination color.  In TBR/TBDR both buffers are on-chip tile
        # SRAM; in IMR they live in main memory behind the L2 — the other
        # half of the overdraw cost Section II-A describes.
        depth_accesses = dcw.fragments_generated + dcw.fragments_shaded
        color_accesses = dcw.fragments_shaded
        if not dc.opaque:
            color_accesses += dcw.fragments_shaded
        if config.rendering_mode == "imr":
            buffer_lines = max(
                1,
                math.ceil(
                    dcw.footprint_pixels
                    * config.depth_bytes_per_pixel
                    / config.l2_cache.line_bytes
                ),
            )
            result = mem.access_l2_direct(
                ("depth_fb",), buffer_lines, depth_accesses,
                phase="raster", write=True,
            )
            stall += memory_stall_cycles(
                result.l2_misses, result.latency_cycles, config.fragment_queue
            )
            # Blending reads the destination color for transparent
            # fragments — only when any survived the depth test.
            if not dc.opaque and dcw.fragments_shaded:
                mem.access_l2_direct(
                    ("color_fb",), buffer_lines, dcw.fragments_shaded,
                    phase="raster",
                )
        else:
            mem.tally_on_chip("depth", depth_accesses)
            mem.tally_on_chip("color", color_accesses)

        # Fragment shading.
        fragment_instructions += (
            dcw.fragments_shaded * dc.fragment_shader.instruction_count
        )

        # Texture sampling: fragments are distributed round-robin over the
        # fragment processors, each with a private texture cache, so every
        # cache streams the draw call's footprint.
        # Texels are only fetched for fragments that survive early-Z, so the
        # streamed footprint shrinks with the call's occluded fraction.
        visible_fraction = dcw.fragments_shaded / dcw.fragments_generated
        visible_pixels = max(1, int(round(dcw.footprint_pixels * visible_fraction)))
        for sample in dc.fragment_shader.texture_samples:
            texture = textures[dc.texture_ids[sample.texture_slot]]
            accesses = dcw.fragments_shaded * sample.filter_mode.memory_accesses
            texture_accesses += accesses
            footprint = texture_footprint_lines(
                texture,
                visible_pixels,
                trilinear=sample.filter_mode.name == "TRILINEAR",
                line_bytes=config.texture_cache.line_bytes,
            )
            per_cache = max(1, accesses // config.fragment_processors)
            for cache_index in range(config.fragment_processors):
                result = mem.access(
                    "texture",
                    key=("tex", texture.texture_id),
                    distinct_lines=footprint,
                    total_accesses=per_cache,
                    phase="raster",
                    l1_index=cache_index,
                )
                if result.l1_misses:
                    stall += memory_stall_cycles(
                        result.l1_misses,
                        result.latency_cycles,
                        config.fragment_queue,
                    ) / config.fragment_processors

    # Color output traffic.  TBR/TBDR resolve each finished tile to the
    # framebuffer exactly once; IMR writes every surviving fragment's color
    # to memory as it blends — the overdraw traffic Section II-A describes.
    framebuffer_lines = 0
    if config.rendering_mode == "imr":
        if work.fragments_shaded:
            framebuffer_lines = math.ceil(
                work.fragments_shaded
                * config.color_bytes_per_pixel
                / config.l2_cache.line_bytes
            )
            mem.write_through_l2(
                key=("framebuffer",), lines=framebuffer_lines, phase="raster"
            )
    elif work.active_tiles:
        framebuffer_lines = math.ceil(
            work.active_tiles
            * config.tile_pixels
            * config.color_bytes_per_pixel
            / config.l2_cache.line_bytes
        )
        mem.write_through_l2(
            key=("framebuffer",), lines=framebuffer_lines, phase="raster"
        )

    fragments = work.fragments_generated
    shaded = work.fragments_shaded
    raster_cycles = (
        fragments
        * config.rasterized_attributes_per_fragment
        / config.rasterizer_attributes_per_cycle
    )
    # The early-Z unit tests quads (2x2 fragments), one per cycle, with the
    # in-flight window hiding the depth-buffer latency.
    z_cycles = math.ceil(fragments / 4)
    shading_cycles = fragment_instructions / config.fragment_processors
    blend_cycles = float(shaded)
    resolve_cycles = framebuffer_lines * 1.0  # one line per cycle into the L2

    cycles = (
        pipelined_cycles(
            [raster_cycles, float(z_cycles), shading_cycles, blend_cycles, resolve_cycles]
        )
        + stall
    )
    return RasterResult(
        cycles=cycles,
        stall_cycles=stall,
        fragment_instructions=fragment_instructions,
        texture_accesses=texture_accesses,
        framebuffer_lines=framebuffer_lines,
    )

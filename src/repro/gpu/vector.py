"""Batched ("vector") cycle-simulation backend, the production default.

The scalar backend in :mod:`repro.gpu.cycle_sim` walks every draw call of
every frame through :class:`~repro.gpu.hierarchy.MemorySystem`, paying
several Python calls and a result object per cache access — the profiled
wall-time dominator of every evaluation.  This module executes the *same
model* in three passes instead:

1. **Lower** — array code over the schedule's rows of the trace's draw
   table and their work (the columnar
   :func:`~repro.gpu.workmodel.compute_work_columns`, bit-identical to
   the per-draw model the scalar backend evaluates) builds the memory
   *op* stream as int64 numpy columns: op kind, region key and
   write-back key, distinct lines, access total, effective access total,
   write flag, phase and queue depth.  Each draw's op count per section
   (geometry, tiling, raster) follows from its work counts, so cumulative
   sums place every op in exactly the order the scalar stage models issue
   them, and every field is scattered into its column for all draws at
   once.  Region keys are integers, ``value * _NAMESPACES + namespace``,
   so no key is interned.
2. **Replay** — a single tight loop interprets the op stream against
   inlined LRU region state (plain dicts keyed by the integer region
   keys), the one part of the model that is inherently sequential.  It
   converts each column to a list once and walks them together.  The
   four per-fragment-processor texture caches receive identical streams
   by construction, so one replayed cache stands in for all of them
   (stats are scaled back at accounting time; their L2/DRAM side effects
   are replayed per processor, preserving order).  Stall cycles are accumulated per frame in issue
   order, so floating-point addition order matches the scalar backend
   exactly.
3. **Accumulate** — per-frame statistics fall out of cumulative counter
   snapshots taken at frame boundaries, differenced with numpy — the
   vectorized form of the scalar backend's snapshot/delta mechanism — and
   each kept frame's :class:`~repro.gpu.stats.FrameStats` is finalized with
   the identical cycle-composition and energy-attribution expressions.

Each pass runs under one span (``cycle.lower``, ``cycle.replay``,
``cycle.accumulate``) per simulated schedule.

The contract is **bit identity** with the scalar backend for every
configuration (rendering modes, warmup schedules, custom cache sizes);
:mod:`repro.gpu.parity` and the CI gate enforce it.  See
``docs/simulation-backends.md``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.errors import SimulationError
from repro.obs import span
from repro.gpu.config import FRAME_OVERHEAD_CYCLES, GPUConfig
from repro.gpu.dram import DRAMStats
from repro.gpu.power import PowerModel
from repro.gpu.raster import TRILINEAR_FOOTPRINT_FACTOR
from repro.gpu.stats import CacheStats, FrameStats
from repro.gpu.workmodel import compute_work_columns
from repro.scene.trace import WorkloadTrace

# Op kinds of the lowered access stream.
_OP_VERTEX = 0  # L1 access through the vertex cache
_OP_TILE = 1  # L1 access through the tile cache
_OP_TEXTURE = 2  # replicated access through every texture cache
_OP_L2_DIRECT = 3  # direct L2 access (IMR depth/color buffers)
_OP_WRITE_THROUGH = 4  # framebuffer write-through (no-fetch allocate)

# Phase indices (order matches repro.gpu.hierarchy.PHASES).
_GEOMETRY, _TILING, _RASTER = 0, 1, 2

# Region-key namespaces.  A region key is ``value * _NAMESPACES +
# namespace``, where the value is a mesh id (vb), an in-frame draw index
# (varyings, plist and their write-back twins) or a texture id (tex), and
# 0 for the single depth, color and framebuffer regions.  Values
# are non-negative, so the encoding is injective across namespaces.
# Vertex ops never write, so vb regions have no write-back twin.
(
    _NS_VB, _NS_VARYINGS, _NS_PLIST, _NS_WB_VARYINGS, _NS_WB_PLIST, _NS_TEX,
    _NS_DEPTH_FB, _NS_COLOR_FB, _NS_FRAMEBUFFER,
) = range(9)
_NAMESPACES = 9


class _CacheState:
    """Inlined LRU region state: the replay twin of ``RegionCache``."""

    __slots__ = ("regions", "resident", "cap", "acc", "hit", "miss", "wb")

    def __init__(self, capacity_lines: int) -> None:
        self.regions: OrderedDict[int, list] = OrderedDict()
        self.resident = 0
        self.cap = capacity_lines
        self.acc = 0
        self.hit = 0
        self.miss = 0
        self.wb = 0


class _DramState:
    """Cumulative DRAM counters (the replay twin of ``DRAMModel``)."""

    __slots__ = ("racc", "wacc", "rhit", "rmiss", "busy")

    def __init__(self) -> None:
        self.racc = 0
        self.wacc = 0
        self.rhit = 0
        self.rmiss = 0
        self.busy = 0


class _PhaseView:
    """The slice of ``MemorySystem`` the power model reads per frame."""

    __slots__ = ("l2_accesses_by_phase", "dram_lines_by_phase")

    def __init__(self, l2_by_phase: dict, dram_by_phase: dict) -> None:
        self.l2_accesses_by_phase = l2_by_phase
        self.dram_lines_by_phase = dram_by_phase


@dataclass(slots=True)
class _FrameRecord:
    """Per-frame scalars produced by lowering (work counts + cycle terms)."""

    vertices_shaded: int
    primitives_submitted: int
    primitives_binned: int
    prim_tile_pairs: int
    fragments_generated: int
    fragments_shaded: int
    vertex_instructions: int
    fetch_accesses: int
    list_entries: int
    fragment_instructions: int
    framebuffer_lines: int
    color_tally: int
    depth_tally: int


def _access(cache: _CacheState, key: int, lines: int, eff: int, write: bool):
    """Mirror of ``RegionCache.access`` over inlined state.

    ``eff`` is the effective access total ``max(total_accesses,
    distinct_lines)``, precomputed vectorized during lowering.  Returns
    ``(misses, writeback_lines)``.
    """
    regions = cache.regions
    region = regions.get(key)
    if region is not None:
        if region[0] >= lines:
            regions.move_to_end(key)
            if write:
                region[1] = True
            cache.acc += eff
            cache.hit += eff
            return 0, 0
        cache.resident -= region[0]
        del regions[key]
    cache.acc += eff
    cache.miss += lines
    cache.hit += eff - lines
    writebacks = 0
    if lines <= cache.cap:
        regions[key] = [lines, write]
        resident = cache.resident + lines
        while resident > cache.cap and len(regions) > 1:
            _, evicted = regions.popitem(last=False)
            resident -= evicted[0]
            if evicted[1]:
                writebacks += evicted[0]
        cache.resident = resident
    elif write:
        writebacks = lines
    cache.wb += writebacks
    return lines, writebacks


def _transfer(dram: _DramState, lines: int, write: bool, lpr: int, ltc: int,
              activation: int) -> None:
    """Mirror of ``DRAMModel.transfer`` (contiguous runs only)."""
    rows_opened = 1 + (lines - 1) // lpr
    dram.rhit += lines - rows_opened
    dram.rmiss += rows_opened
    if write:
        dram.wacc += lines
    else:
        dram.racc += lines
    dram.busy += lines * ltc + rows_opened * activation


def _lines(size: np.ndarray, line_bytes: int) -> np.ndarray:
    """``max(1, math.ceil(size / line_bytes))`` element-wise over int64 sizes."""
    return np.maximum(1, np.ceil(size / line_bytes).astype(np.int64))


def _section_starts(
    counts: np.ndarray, offsets: np.ndarray, frame_of: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each draw's first op within its frame's section, and the frame totals.

    ``counts`` is every draw's op count in one section; draws of frame
    ``i`` are rows ``offsets[i]:offsets[i + 1]``.
    """
    running = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=running[1:])
    firsts = running[offsets[:-1]]
    return running[:-1] - firsts[frame_of], running[offsets[1:]] - firsts


def _lower(
    trace: WorkloadTrace,
    schedule: list[tuple[int, bool]],
    config: GPUConfig,
):
    """Lower the schedule into the columnar op stream + per-frame records.

    A frame's ops are its draws' geometry ops, then their tiling ops,
    then their raster ops, then the framebuffer op: the order in which
    the scalar stage models issue them.  The work columns give every
    draw's op count per section, so cumulative sums place every op, and
    each op field is scattered into its column for all draws at once.
    """
    imr = config.rendering_mode == "imr"
    tile_line = config.tile_cache.line_bytes
    l2_line = config.l2_cache.line_bytes
    q_fragment = config.fragment_queue.entries

    draws = trace.draws.take([fid for fid, _keep in schedule])
    resources = trace.resources
    work = compute_work_columns(draws, resources, config)
    offsets = work.offsets
    per_frame = np.diff(offsets)
    frame_of = np.repeat(np.arange(draws.frame_count), per_frame)
    # A draw's index within its frame names its varyings and polygon list.
    index = np.arange(draws.draw_count, dtype=np.int64) - offsets[frame_of]

    vertices = work.vertices_shaded
    pairs = work.prim_tile_pairs
    generated = work.fragments_generated
    shaded = work.fragments_shaded
    footprint = work.footprint_pixels
    mesh = draws.mesh
    fs = draws.fragment_shader
    opaque = draws.opaque
    paired = pairs > 0
    drawn = generated > 0
    samples = np.where(drawn, np.diff(resources.fs_sample_offsets)[fs], 0)
    blended = drawn & ~opaque & (shaded > 0)

    # Op counts: per draw in the tiling and raster sections, and the
    # frames' framebuffer resolves (only those with lines).
    tile_counts = np.zeros_like(pairs) if imr else 1 + paired
    raster_counts = 2 * (drawn & paired) + samples
    frame_shaded = work.frame_sums(shaded)
    if imr:
        raster_counts += drawn.astype(np.int64) + blended
        framebuffer_lines = np.ceil(
            frame_shaded * config.color_bytes_per_pixel / l2_line
        ).astype(np.int64)
    else:
        framebuffer_lines = np.ceil(
            work.active_tiles * config.tile_pixels
            * config.color_bytes_per_pixel / l2_line
        ).astype(np.int64)
    resolved = framebuffer_lines > 0
    tile_starts, frame_tiles = _section_starts(tile_counts, offsets, frame_of)
    raster_starts, frame_rasters = _section_starts(
        raster_counts, offsets, frame_of
    )
    op_counts = per_frame + frame_tiles + frame_rasters + resolved
    frame_ends = np.cumsum(op_counts)
    geometry_base = frame_ends - op_counts
    tile_base = geometry_base + per_frame
    raster_base = tile_base + frame_tiles
    tile_at = tile_base[frame_of] + tile_starts
    raster_at = raster_base[frame_of] + raster_starts

    size = int(frame_ends[-1])
    kind, key, wbkey, lines, total, write, phase, queue = (
        np.empty(size, dtype=np.int64) for _ in range(8)
    )

    def put(at, op_kind, op_key, op_wbkey, op_lines, op_total, op_write,
            op_phase, op_queue) -> None:
        kind[at] = op_kind
        key[at] = op_key
        wbkey[at] = op_wbkey
        lines[at] = op_lines
        total[at] = op_total
        write[at] = op_write
        phase[at] = op_phase
        queue[at] = op_queue

    # Geometry: the Vertex Fetcher streams each instance's records
    # through the vertex cache.
    put(
        geometry_base[frame_of] + index, _OP_VERTEX,
        resources.mesh_id[mesh] * _NAMESPACES + _NS_VB, -1,
        _lines(resources.vertex_buffer_bytes, config.vertex_cache.line_bytes)[mesh],
        vertices, False, _GEOMETRY, config.vertex_input_queue.entries,
    )

    # Tiling: varyings + polygon-list writes through the tile cache
    # (tiling.varyings_lines and tiling.polygon_list_lines).
    varyings_lines = _lines(vertices * config.varyings_bytes_per_vertex, tile_line)
    plist_lines = _lines(pairs * config.polygon_list_entry_bytes, tile_line)
    varyings_key = index * _NAMESPACES + _NS_VARYINGS
    varyings_wb = index * _NAMESPACES + _NS_WB_VARYINGS
    plist_key = index * _NAMESPACES + _NS_PLIST
    plist_wb = index * _NAMESPACES + _NS_WB_PLIST
    if not imr:
        q_tile = config.tile_queue.entries
        put(
            tile_at, _OP_TILE, varyings_key, varyings_wb, varyings_lines,
            vertices, True, _TILING, q_tile,
        )
        on = np.flatnonzero(paired)
        put(
            tile_at[on] + 1, _OP_TILE, plist_key[on], plist_wb[on],
            plist_lines[on], pairs[on], True, _TILING, q_tile,
        )

    # Raster, per drawn draw: polygon-list/varyings read-back, the IMR
    # depth/color traffic, then texture sampling.
    on = np.flatnonzero(drawn & paired)
    put(
        raster_at[on], _OP_TILE, plist_key[on], plist_wb[on],
        plist_lines[on], pairs[on], False, _RASTER, q_fragment,
    )
    put(
        raster_at[on] + 1, _OP_TILE, varyings_key[on], varyings_wb[on],
        varyings_lines[on], np.maximum(3 * work.primitives_binned[on], 1),
        False, _RASTER, q_fragment,
    )
    sample_at = raster_at + 2 * paired
    if imr:
        buffer_lines = _lines(footprint * config.depth_bytes_per_pixel, l2_line)
        on = np.flatnonzero(drawn)
        put(
            sample_at[on], _OP_L2_DIRECT, _NS_DEPTH_FB, -1, buffer_lines[on],
            generated[on] + shaded[on], True, _RASTER, q_fragment,
        )
        on = np.flatnonzero(blended)
        put(
            sample_at[on] + 1, _OP_L2_DIRECT, _NS_COLOR_FB, -1,
            buffer_lines[on], shaded[on], False, _RASTER, q_fragment,
        )
        sample_at = sample_at + drawn + blended

    # Texture sampling, one op per sample of the draw's fragment shader
    # in program order (raster.texture_footprint_lines).  Texels are
    # only fetched for fragments that survive early-Z, so the footprint
    # shrinks with the draw's occluded fraction.
    row = np.repeat(np.arange(draws.draw_count), samples)
    nth = np.arange(len(row), dtype=np.int64) - (np.cumsum(samples) - samples)[row]
    sample = resources.fs_sample_offsets[fs[row]] + nth
    texture_id = draws.texture_ids[
        draws.texture_offsets[row] + resources.sample_slot[sample]
    ]
    texture = resources.texture_rows(texture_id)
    visible_pixels = np.maximum(
        1, np.rint(footprint[row] * (shaded[row] / generated[row])).astype(np.int64)
    )
    footprint_bytes = visible_pixels * resources.texel_bytes[texture]
    trilinear = resources.sample_trilinear[sample]
    footprint_bytes[trilinear] = (
        footprint_bytes[trilinear] * TRILINEAR_FOOTPRINT_FACTOR
    ).astype(np.int64)
    footprint_bytes = np.minimum(footprint_bytes, resources.size_bytes[texture])
    accesses = shaded[row] * resources.sample_accesses[sample]
    put(
        sample_at[row] + nth, _OP_TEXTURE, texture_id * _NAMESPACES + _NS_TEX,
        -1, _lines(footprint_bytes, config.texture_cache.line_bytes),
        np.maximum(1, accesses // config.fragment_processors), False,
        _RASTER, q_fragment,
    )

    # Framebuffer resolve: full-line writes through the L2, last in the
    # frame.
    on = np.flatnonzero(resolved)
    put(
        frame_ends[on] - 1, _OP_WRITE_THROUGH, _NS_FRAMEBUFFER, -1,
        framebuffer_lines[on], framebuffer_lines[on], True, _RASTER, 0,
    )

    if size and (int(lines.min()) < 1 or int(total.min()) < 1):
        raise SimulationError(
            "lowered access stream contains a batch with zero lines or "
            "zero accesses"
        )

    def frame_sums(column: np.ndarray) -> list[int]:
        return work.frame_sums(column).tolist()

    # TBR/TBDR tally each drawn draw's depth and color traffic on chip; a
    # transparent draw also reads its destination color.
    on_chip = np.zeros_like(drawn) if imr else drawn
    records = [
        _FrameRecord(*fields)
        for fields in zip(
            frame_sums(vertices),
            frame_sums(work.primitives_submitted),
            frame_sums(work.primitives_binned),
            frame_sums(pairs),
            frame_sums(generated),
            frame_shaded.tolist(),
            frame_sums(vertices * resources.vs_instructions[draws.vertex_shader]),
            frame_sums(vertices),
            frame_sums(pairs),  # list entries (IMR draws have no pairs)
            frame_sums(drawn * shaded * resources.fs_instructions[fs]),
            framebuffer_lines.tolist(),
            frame_sums(on_chip * shaded * (2 - opaque)),
            frame_sums(on_chip * (generated + shaded)),
        )
    ]
    # Effective access totals: RegionCache clamps total_accesses up to
    # distinct_lines.
    eff = np.maximum(total, lines)
    stream = (kind, key, wbkey, lines, total, eff, write, phase, queue)
    return stream, op_counts.tolist(), records


def simulate_schedule(
    trace: WorkloadTrace,
    schedule: list[tuple[int, bool]],
    config: GPUConfig,
    power_model: PowerModel,
) -> list[FrameStats]:
    """Simulate ``schedule`` with the vector backend.

    ``schedule`` is the backend-independent list of ``(frame_id, keep)``
    pairs built by :meth:`CycleAccurateSimulator.simulate`; statistics are
    returned for kept frames only (warmup frames mutate cache state but
    are discarded), in schedule order.
    """
    with span("cycle.lower", frames=len(schedule)):
        stream, op_counts, records = _lower(trace, schedule, config)
    with span("cycle.replay", ops=len(stream[0])):
        marks, stalls = _replay(stream, op_counts, config)
    with span("cycle.accumulate", frames=len(schedule)):
        return _accumulate(
            schedule, records, marks, stalls, config, power_model
        )


def _replay(stream: tuple, op_counts: list[int], config: GPUConfig):
    """Interpret the op stream against the inlined cache/DRAM state.

    ``stream`` holds the op columns ``kind, key, wbkey, lines, total,
    eff, write, phase, queue``; ``op_counts`` each frame's op count.

    Returns the cumulative counter snapshot at every frame boundary
    (first row all zeros) and each frame's per-phase stall cycles.
    """
    vertex = _CacheState(config.vertex_cache.lines)
    texture = _CacheState(config.texture_cache.lines)
    tile = _CacheState(config.tile_cache.lines)
    l2 = _CacheState(config.l2_cache.lines)
    dram = _DramState()
    l2_cap = l2.cap
    fragment_processors = config.fragment_processors

    lat_vertex = float(config.vertex_cache.latency_cycles)
    lat_texture = float(config.texture_cache.latency_cycles)
    lat_tile = float(config.tile_cache.latency_cycles)
    lat_l2_f = float(config.l2_cache.latency_cycles)
    lat_l2 = config.l2_cache.latency_cycles
    dram_max = config.dram.max_latency_cycles
    activation = dram_max - config.dram.min_latency_cycles
    ltc = config.dram.line_transfer_cycles
    lpr = config.dram.row_bytes // config.dram.line_bytes
    l1_latency = {_OP_VERTEX: lat_vertex, _OP_TILE: lat_tile}

    l2_phase = [0, 0, 0]
    dram_phase = [0, 0, 0]
    marks = [(0,) * 27]
    stalls: list[tuple[float, float, float]] = []

    ops = zip(*(column.tolist() for column in stream))
    for count in op_counts:
        frame_stall = [0.0, 0.0, 0.0]
        for (
            kind, key, wbkey, lines, total, eff_total, write, phase, queue
        ) in islice(ops, count):
            if kind == _OP_TEXTURE:
                m1, _ = _access(texture, key, lines, eff_total, False)
                if m1 == 0:
                    continue
                # The leading texture cache refills through the L2; the
                # other processors' identical refills follow in order.
                m2, w2 = _access(l2, key, m1, m1, False)
                l2_phase[_RASTER] += m1
                latency = lat_texture + lat_l2
                if m2:
                    latency += dram_max
                    _transfer(dram, m2, False, lpr, ltc, activation)
                    dram_phase[_RASTER] += m2
                if w2:
                    _transfer(dram, w2, True, lpr, ltc, activation)
                    dram_phase[_RASTER] += w2
                overlap = queue if queue < m1 else m1
                frame_stall[_RASTER] += (
                    m1 * latency / overlap
                ) / fragment_processors
                if m1 <= l2_cap:
                    # The refill left the region resident, so the other
                    # processors' replays are guaranteed L2 hits.
                    l2.acc += (fragment_processors - 1) * m1
                    l2.hit += (fragment_processors - 1) * m1
                    l2_phase[_RASTER] += (fragment_processors - 1) * m1
                    repeat_stall = (
                        m1 * (lat_texture + lat_l2) / overlap
                    ) / fragment_processors
                    for _ in range(fragment_processors - 1):
                        frame_stall[_RASTER] += repeat_stall
                else:
                    # Over-capacity footprint: every processor's replay
                    # streams through the L2 and out to DRAM again.
                    for _ in range(fragment_processors - 1):
                        m2r, w2r = _access(l2, key, m1, m1, False)
                        l2_phase[_RASTER] += m1
                        latency = lat_texture + lat_l2
                        if m2r:
                            latency += dram_max
                            _transfer(dram, m2r, False, lpr, ltc, activation)
                            dram_phase[_RASTER] += m2r
                        if w2r:
                            _transfer(dram, w2r, True, lpr, ltc, activation)
                            dram_phase[_RASTER] += w2r
                        frame_stall[_RASTER] += (
                            m1 * latency / overlap
                        ) / fragment_processors
                # Texture stats are replayed once and scaled by the
                # processor count at accounting time.
                continue
            if kind == _OP_VERTEX or kind == _OP_TILE:
                l1 = vertex if kind == _OP_VERTEX else tile
                m1, w1 = _access(l1, key, lines, eff_total, write)
                if m1 == 0 and w1 == 0:
                    continue
                latency = l1_latency[kind]
                if m1:
                    m2, w2 = _access(l2, key, m1, m1, False)
                    l2_phase[phase] += m1
                    latency += lat_l2
                    if m2:
                        latency += dram_max
                        _transfer(dram, m2, False, lpr, ltc, activation)
                        dram_phase[phase] += m2
                    if w2:
                        _transfer(dram, w2, True, lpr, ltc, activation)
                        dram_phase[phase] += w2
                if w1:
                    m2b, w2b = _access(l2, wbkey, w1, w1, True)
                    l2_phase[phase] += w1
                    extra = m2b + w2b
                    if extra:
                        _transfer(dram, extra, True, lpr, ltc, activation)
                        dram_phase[phase] += extra
                if m1:
                    overlap = queue if queue < m1 else m1
                    frame_stall[phase] += m1 * latency / overlap
                continue
            if kind == _OP_L2_DIRECT:
                m2, w2 = _access(l2, key, lines, eff_total, write)
                l2_phase[_RASTER] += total
                latency = lat_l2_f
                if m2:
                    latency += dram_max
                    _transfer(dram, m2, False, lpr, ltc, activation)
                    dram_phase[_RASTER] += m2
                if w2:
                    _transfer(dram, w2, True, lpr, ltc, activation)
                    dram_phase[_RASTER] += w2
                # Only the depth pass (a write) exposes its stall; the
                # blend read streams behind it (mirrors simulate_raster).
                if write and m2:
                    overlap = queue if queue < m2 else m2
                    frame_stall[_RASTER] += m2 * latency / overlap
                continue
            # _OP_WRITE_THROUGH: full-line writes allocate without
            # fetching; only evicted dirty data reaches DRAM.
            _, w2 = _access(l2, key, lines, eff_total, True)
            l2_phase[_RASTER] += lines
            if w2:
                _transfer(dram, w2, True, lpr, ltc, activation)
                dram_phase[_RASTER] += w2
        stalls.append(tuple(frame_stall))
        marks.append((
            vertex.acc, vertex.hit, vertex.miss, vertex.wb,
            texture.acc, texture.hit, texture.miss, texture.wb,
            tile.acc, tile.hit, tile.miss, tile.wb,
            l2.acc, l2.hit, l2.miss, l2.wb,
            l2_phase[0], l2_phase[1], l2_phase[2],
            dram_phase[0], dram_phase[1], dram_phase[2],
            dram.racc, dram.wacc, dram.rhit, dram.rmiss, dram.busy,
        ))
    return marks, stalls


def _accumulate(
    schedule: list[tuple[int, bool]],
    records: list[_FrameRecord],
    marks: list[tuple],
    stalls: list[tuple[float, float, float]],
    config: GPUConfig,
    power_model: PowerModel,
) -> list[FrameStats]:
    """Finalize each kept frame's statistics from the replay snapshots."""
    # Per-frame deltas of every cumulative counter, in one vectorized
    # difference over the frame-boundary snapshots.
    deltas = np.diff(np.asarray(marks, dtype=np.int64), axis=0)

    imr = config.rendering_mode == "imr"
    vp = config.vertex_processors
    pa = config.primitive_assembly_vertices_per_cycle
    fp = config.fragment_processors
    rapf = config.rasterized_attributes_per_fragment
    rapc = config.rasterizer_attributes_per_cycle

    results: list[FrameStats] = []
    for index, (fid, keep) in enumerate(schedule):
        if not keep:
            continue
        rec = records[index]
        d = deltas[index]
        g_stall, t_stall, r_stall = stalls[index]

        vs_cycles = rec.vertex_instructions / vp
        fetch_cycles = float(rec.fetch_accesses)
        assembly_cycles = rec.vertices_shaded / pa
        geometry_cycles = (
            max([fetch_cycles, vs_cycles, assembly_cycles]) + g_stall
        )

        if imr:
            tiling_cycles = 0.0
        else:
            tiling_cycles = (
                float(rec.list_entries + rec.primitives_binned) + t_stall
            )

        raster_rate_cycles = rec.fragments_generated * rapf / rapc
        z_cycles = math.ceil(rec.fragments_generated / 4)
        shading_cycles = rec.fragment_instructions / fp
        blend_cycles = float(rec.fragments_shaded)
        resolve_cycles = rec.framebuffer_lines * 1.0
        raster_cycles = (
            max([raster_rate_cycles, float(z_cycles), shading_cycles,
                 blend_cycles, resolve_cycles])
            + r_stall
        )

        stats = FrameStats(
            geometry_cycles=geometry_cycles,
            tiling_cycles=tiling_cycles,
            raster_cycles=raster_cycles,
            stall_cycles=g_stall + t_stall + r_stall,
            vertex_instructions=rec.vertex_instructions,
            fragment_instructions=rec.fragment_instructions,
            vertices_shaded=rec.vertices_shaded,
            primitives_submitted=rec.primitives_submitted,
            primitives_binned=rec.primitives_binned,
            prim_tile_pairs=rec.prim_tile_pairs,
            fragments_generated=rec.fragments_generated,
            fragments_shaded=rec.fragments_shaded,
        )
        stats.vertex_cache = CacheStats(
            accesses=int(d[0]), hits=int(d[1]),
            misses=int(d[2]), writebacks=int(d[3]),
        )
        stats.texture_cache = CacheStats(
            accesses=int(d[4]) * fp, hits=int(d[5]) * fp,
            misses=int(d[6]) * fp, writebacks=int(d[7]) * fp,
        )
        stats.tile_cache = CacheStats(
            accesses=int(d[8]), hits=int(d[9]),
            misses=int(d[10]), writebacks=int(d[11]),
        )
        stats.l2_cache = CacheStats(
            accesses=int(d[12]), hits=int(d[13]),
            misses=int(d[14]), writebacks=int(d[15]),
        )
        stats.color_buffer = CacheStats(
            accesses=rec.color_tally, hits=rec.color_tally,
        )
        stats.depth_buffer = CacheStats(
            accesses=rec.depth_tally, hits=rec.depth_tally,
        )
        stats.dram = DRAMStats(
            read_accesses=int(d[22]),
            write_accesses=int(d[23]),
            row_hits=int(d[24]),
            row_misses=int(d[25]),
            busy_cycles=int(d[26]),
        )

        if imr:
            cycles = max(geometry_cycles, raster_cycles) + FRAME_OVERHEAD_CYCLES
        else:
            cycles = (
                max(geometry_cycles, tiling_cycles)
                + raster_cycles
                + FRAME_OVERHEAD_CYCLES
            )
        stats.cycles = max(cycles, float(int(d[26])))

        power_model.attribute_frame(
            stats,
            _PhaseView(
                {"geometry": int(d[16]), "tiling": int(d[17]),
                 "raster": int(d[18])},
                {"geometry": int(d[19]), "tiling": int(d[20]),
                 "raster": int(d[21])},
            ),
        )
        results.append(stats)
    return results

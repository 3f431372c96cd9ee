"""Batched ("vector") cycle-simulation backend, the production default.

The scalar backend in :mod:`repro.gpu.cycle_sim` walks every draw call of
every frame through :class:`~repro.gpu.hierarchy.MemorySystem`, paying
several Python calls and a result object per cache access — the profiled
wall-time dominator of every evaluation.  This module executes the *same
model* in three passes instead:

1. **Lower** — one pass over the frame schedule turns the frames' rows
   of the trace's draw table and their work (the columnar
   :func:`~repro.gpu.workmodel.compute_work_columns`, bit-identical to
   the per-draw model the scalar backend evaluates) into columnar
   arrays of memory *ops*: interned region
   keys, distinct-line counts, access totals, write flags, phase tags and
   queue depths, in exactly the order the scalar stage models would issue
   them.  Derived columns (effective access totals, over-capacity
   classification) are computed vectorized with numpy.
2. **Replay** — a single tight loop interprets the op stream against
   inlined LRU region state (plain dicts keyed by interned ints), the one
   part of the model that is inherently sequential.  The four per-fragment-
   processor texture caches receive identical streams by construction, so
   one replayed cache stands in for all of them (stats are scaled back at
   accounting time; their L2/DRAM side effects are replayed per processor,
   preserving order).  Stall cycles are accumulated per frame in issue
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

import numpy as np

from repro.errors import SimulationError
from repro.obs import span
from repro.gpu.config import FRAME_OVERHEAD_CYCLES, GPUConfig
from repro.gpu.dram import DRAMStats
from repro.gpu.power import PowerModel
from repro.gpu.raster import texture_footprint_lines
from repro.gpu.stats import CacheStats, FrameStats
from repro.gpu.tiling import polygon_list_lines, varyings_lines
from repro.gpu.workmodel import compute_work_columns
from repro.scene.mesh import Texture
from repro.scene.trace import WorkloadTrace

# Op kinds of the lowered access stream.
_OP_VERTEX = 0  # L1 access through the vertex cache
_OP_TILE = 1  # L1 access through the tile cache
_OP_TEXTURE = 2  # replicated access through every texture cache
_OP_L2_DIRECT = 3  # direct L2 access (IMR depth/color buffers)
_OP_WRITE_THROUGH = 4  # framebuffer write-through (no-fetch allocate)

# Phase indices (order matches repro.gpu.hierarchy.PHASES).
_GEOMETRY, _TILING, _RASTER = 0, 1, 2


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


def _lower(
    trace: WorkloadTrace,
    schedule: list[tuple[int, bool]],
    config: GPUConfig,
    textures: dict[int, Texture],
):
    """Lower the schedule into the columnar op stream + per-frame records."""
    imr = config.rendering_mode == "imr"
    vline = config.vertex_cache.line_bytes
    tex_line = config.texture_cache.line_bytes
    l2_line = config.l2_cache.line_bytes
    fragment_processors = config.fragment_processors
    q_vertex = config.vertex_input_queue.entries
    q_tile = config.tile_queue.entries
    q_fragment = config.fragment_queue.entries

    intern: dict[object, int] = {}
    # Columns of the op stream.
    kinds: list[int] = []
    keys: list[int] = []
    wbkeys: list[int] = []
    linecol: list[int] = []
    totals: list[int] = []
    writes: list[bool] = []
    phases: list[int] = []
    queues: list[int] = []

    op_counts: list[int] = []
    records: list[_FrameRecord] = []

    def key_id(key: object) -> int:
        ident = intern.get(key)
        if ident is None:
            ident = len(intern)
            intern[key] = ident
        return ident

    emit = kinds.append

    def push(kind, key, wbkey, lines, total, write, phase, queue):
        emit(kind)
        keys.append(key)
        wbkeys.append(wbkey)
        linecol.append(lines)
        totals.append(total)
        writes.append(write)
        phases.append(phase)
        queues.append(queue)

    draws = trace.draws.take([fid for fid, _keep in schedule])
    resources = trace.resources
    work = compute_work_columns(draws, resources, config)
    # Per-mesh and per-shader constants, and the draw columns the loops
    # read, as Python lists indexed by table row.
    mesh_ids = resources.mesh_id.tolist()
    mesh_lines = [
        max(1, math.ceil(size / vline))
        for size in resources.vertex_buffer_bytes.tolist()
    ]
    vs_instructions = resources.vs_instructions.tolist()
    fs_instructions = resources.fs_instructions.tolist()
    fragment_shaders = trace.fragment_shaders
    mesh_of = draws.mesh.tolist()
    vs_of = draws.vertex_shader.tolist()
    fs_of = draws.fragment_shader.tolist()
    opaque_of = draws.opaque.tolist()
    binding_starts = draws.texture_offsets.tolist()
    bindings = draws.texture_ids.tolist()
    starts = work.offsets.tolist()
    vertices_of = work.vertices_shaded.tolist()
    binned_of = work.primitives_binned.tolist()
    pairs_of = work.prim_tile_pairs.tolist()
    footprint_of = work.footprint_pixels.tolist()
    generated_of = work.fragments_generated.tolist()
    shaded_of = work.fragments_shaded.tolist()
    frame_totals = {
        name: work.frame_sums(getattr(work, name)).tolist()
        for name in (
            "vertices_shaded", "primitives_submitted", "primitives_binned",
            "prim_tile_pairs", "fragments_generated", "fragments_shaded",
        )
    }
    active_tiles = work.active_tiles.tolist()

    for slot in range(draws.frame_count):
        base = len(kinds)
        first = starts[slot]
        draw_count = starts[slot + 1] - first

        # Geometry: the Vertex Fetcher streams each instance's records
        # through the vertex cache.
        vertex_instructions = 0
        fetch_accesses = 0
        for row in range(first, first + draw_count):
            vertices = vertices_of[row]
            vertex_instructions += vertices * vs_instructions[vs_of[row]]
            mesh = mesh_of[row]
            fetch_accesses += vertices
            push(
                _OP_VERTEX, key_id(("vb", mesh_ids[mesh])), -1,
                mesh_lines[mesh], vertices, False, _GEOMETRY, q_vertex,
            )

        # Tiling: varyings + polygon-list writes through the tile cache.
        list_entries = 0
        if not imr:
            for index in range(draw_count):
                vertices = vertices_of[first + index]
                pairs = pairs_of[first + index]
                varyings = varyings_lines(vertices, config)
                vkey = ("varyings", index)
                push(
                    _OP_TILE, key_id(vkey), key_id(("wb", vkey)), varyings,
                    vertices, True, _TILING, q_tile,
                )
                if pairs == 0:
                    continue
                list_entries += pairs
                lines = polygon_list_lines(pairs, config)
                pkey = ("plist", index)
                push(
                    _OP_TILE, key_id(pkey), key_id(("wb", pkey)), lines,
                    pairs, True, _TILING, q_tile,
                )

        # Raster: polygon-list/varyings read-back, depth/color traffic,
        # texture sampling and the framebuffer resolve.
        fragment_instructions = 0
        color_tally = 0
        depth_tally = 0
        for index in range(draw_count):
            row = first + index
            generated = generated_of[row]
            if generated == 0:
                continue
            shaded = shaded_of[row]
            pairs = pairs_of[row]
            if pairs:
                lines = polygon_list_lines(pairs, config)
                pkey = ("plist", index)
                push(
                    _OP_TILE, key_id(pkey), key_id(("wb", pkey)), lines,
                    pairs, False, _RASTER, q_fragment,
                )
                varyings = varyings_lines(vertices_of[row], config)
                vkey = ("varyings", index)
                push(
                    _OP_TILE, key_id(vkey), key_id(("wb", vkey)), varyings,
                    max(3 * binned_of[row], 1), False, _RASTER,
                    q_fragment,
                )

            opaque = opaque_of[row]
            depth_accesses = generated + shaded
            color_accesses = shaded
            if not opaque:
                color_accesses += shaded
            if imr:
                buffer_lines = max(
                    1,
                    math.ceil(
                        footprint_of[row]
                        * config.depth_bytes_per_pixel
                        / l2_line
                    ),
                )
                push(
                    _OP_L2_DIRECT, key_id(("depth_fb",)), -1, buffer_lines,
                    depth_accesses, True, _RASTER, q_fragment,
                )
                if not opaque and shaded:
                    push(
                        _OP_L2_DIRECT, key_id(("color_fb",)), -1,
                        buffer_lines, shaded, False, _RASTER,
                        q_fragment,
                    )
            else:
                depth_tally += depth_accesses
                color_tally += color_accesses

            fragment_instructions += shaded * fs_instructions[fs_of[row]]

            visible_fraction = shaded / generated
            visible_pixels = max(
                1, int(round(footprint_of[row] * visible_fraction))
            )
            for sample in fragment_shaders[fs_of[row]].texture_samples:
                texture = textures[
                    bindings[binding_starts[row] + sample.texture_slot]
                ]
                accesses = shaded * sample.filter_mode.memory_accesses
                footprint = texture_footprint_lines(
                    texture,
                    visible_pixels,
                    trilinear=sample.filter_mode.name == "TRILINEAR",
                    line_bytes=tex_line,
                )
                per_cache = max(1, accesses // fragment_processors)
                push(
                    _OP_TEXTURE, key_id(("tex", texture.texture_id)), -1,
                    footprint, per_cache, False, _RASTER, q_fragment,
                )

        framebuffer_lines = 0
        frame_shaded = frame_totals["fragments_shaded"][slot]
        if imr:
            if frame_shaded:
                framebuffer_lines = math.ceil(
                    frame_shaded
                    * config.color_bytes_per_pixel
                    / l2_line
                )
                push(
                    _OP_WRITE_THROUGH, key_id(("framebuffer",)), -1,
                    framebuffer_lines, framebuffer_lines, True, _RASTER, 0,
                )
        elif active_tiles[slot]:
            framebuffer_lines = math.ceil(
                active_tiles[slot]
                * config.tile_pixels
                * config.color_bytes_per_pixel
                / l2_line
            )
            push(
                _OP_WRITE_THROUGH, key_id(("framebuffer",)), -1,
                framebuffer_lines, framebuffer_lines, True, _RASTER, 0,
            )

        op_counts.append(len(kinds) - base)
        records.append(
            _FrameRecord(
                vertices_shaded=frame_totals["vertices_shaded"][slot],
                primitives_submitted=frame_totals["primitives_submitted"][slot],
                primitives_binned=frame_totals["primitives_binned"][slot],
                prim_tile_pairs=frame_totals["prim_tile_pairs"][slot],
                fragments_generated=frame_totals["fragments_generated"][slot],
                fragments_shaded=frame_shaded,
                vertex_instructions=vertex_instructions,
                fetch_accesses=fetch_accesses,
                list_entries=list_entries,
                fragment_instructions=fragment_instructions,
                framebuffer_lines=framebuffer_lines,
                color_tally=color_tally,
                depth_tally=depth_tally,
            )
        )

    if kinds:
        lines_arr = np.asarray(linecol, dtype=np.int64)
        totals_arr = np.asarray(totals, dtype=np.int64)
        if int(lines_arr.min()) < 1 or int(totals_arr.min()) < 1:
            raise SimulationError(
                "lowered access stream contains a batch with zero lines or "
                "zero accesses"
            )
        # Effective access totals (RegionCache clamps total_accesses up to
        # distinct_lines), computed vectorized over the whole stream.
        eff = np.maximum(totals_arr, lines_arr).tolist()
    else:
        eff = []
    rows = list(zip(kinds, keys, wbkeys, linecol, totals, eff, writes,
                    phases, queues))
    return rows, op_counts, records


def simulate_schedule(
    trace: WorkloadTrace,
    schedule: list[tuple[int, bool]],
    config: GPUConfig,
    power_model: PowerModel,
    textures: dict[int, Texture],
) -> list[FrameStats]:
    """Simulate ``schedule`` with the vector backend.

    ``schedule`` is the backend-independent list of ``(frame_id, keep)``
    pairs built by :meth:`CycleAccurateSimulator.simulate`; statistics are
    returned for kept frames only (warmup frames mutate cache state but
    are discarded), in schedule order.
    """
    with span("cycle.lower", frames=len(schedule)):
        rows, op_counts, records = _lower(trace, schedule, config, textures)
    with span("cycle.replay", ops=len(rows)):
        marks, stalls = _replay(rows, op_counts, config)
    with span("cycle.accumulate", frames=len(schedule)):
        return _accumulate(
            schedule, records, marks, stalls, config, power_model
        )


def _replay(rows: list, op_counts: list[int], config: GPUConfig):
    """Interpret the op stream against the inlined cache/DRAM state.

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

    pos = 0
    for count in op_counts:
        frame_stall = [0.0, 0.0, 0.0]
        for row in rows[pos:pos + count]:
            kind, key, wbkey, lines, total, eff_total, write, phase, queue = row
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
        pos += count
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

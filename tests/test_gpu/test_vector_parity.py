"""Vector backend parity: batched lowering must match the scalar oracle.

The vector backend is only admissible because it is bit-identical to the
scalar reference model (docs/simulation-backends.md).  These tests assert
that contract on every rendering mode, plus the harness's own guarantees
(deterministic sampling, field-level mismatch reporting) and the
frame-selection fixes that rode along (duplicate dedup, empty-selection
error).
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.gpu import vector
from repro.gpu.config import CacheConfig, CycleConfig, DRAMConfig, GPUConfig
from repro.gpu.cycle_sim import CycleAccurateSimulator
from repro.gpu.parity import (
    check_backend_parity,
    compare_results,
    sample_frame_ids,
)
from repro.gpu.workmodel import compute_work_columns
from repro.scene.draw import DrawCall
from repro.scene.frame import Camera, Frame
from repro.scene.mesh import Mesh, Texture
from repro.scene.shader import (
    FilterMode,
    ShaderKind,
    ShaderProgram,
    TextureSample,
)
from repro.scene.trace import WorkloadTrace
from repro.scene.vectors import Vec3
from repro.workloads import make_benchmark


def scalar_sim(**kwargs) -> CycleAccurateSimulator:
    return CycleAccurateSimulator(cycle=CycleConfig(backend="scalar"), **kwargs)


def vector_sim(**kwargs) -> CycleAccurateSimulator:
    return CycleAccurateSimulator(cycle=CycleConfig(backend="vector"), **kwargs)


class TestParity:
    @pytest.mark.parametrize("mode", ["tbr", "tbdr", "imr"])
    def test_bit_identical_per_mode(self, tiny_trace, mode):
        report = check_backend_parity(
            tiny_trace, config=GPUConfig(rendering_mode=mode)
        )
        assert report.identical, report.mismatches
        assert report.mismatches == ()

    def test_full_sequence_identity(self, tiny_trace):
        scalar = scalar_sim().simulate(tiny_trace)
        vector = vector_sim().simulate(tiny_trace)
        assert scalar.frame_ids == vector.frame_ids
        for left, right in zip(scalar.frame_stats, vector.frame_stats):
            assert left == right

    def test_parity_with_warmup(self, tiny_trace):
        report = check_backend_parity(
            tiny_trace, frame_ids=[2, 4], warmup_frames=2
        )
        assert report.identical, report.mismatches

    def test_report_shape(self, tiny_trace):
        report = check_backend_parity(tiny_trace)
        assert report.trace_name == tiny_trace.name
        assert report.frame_ids == tuple(range(tiny_trace.frame_count))
        payload = report.to_dict()
        assert payload["identical"] is True
        assert payload["mismatches"] == []

    def test_compare_reports_field_mismatch(self, tiny_trace):
        result = scalar_sim().simulate(tiny_trace, frame_ids=[0, 1])
        stats = list(result.frame_stats)
        stats[1] = dataclasses.replace(stats[1], cycles=stats[1].cycles + 1.0)
        doctored = dataclasses.replace(result, frame_stats=tuple(stats))
        mismatches = compare_results(result, doctored)
        assert len(mismatches) == 1
        assert "frame 1" in mismatches[0] and "cycles" in mismatches[0]


@functools.cache
def drawn_trace() -> WorkloadTrace:
    """Six frames of a 3D benchmark: dozens of draws per frame, textures,
    transparency and several depth layers, so drawn caches evict."""
    trace = make_benchmark("asp", scale=0.02)
    frames = tuple(
        dataclasses.replace(frame, frame_id=index)
        for index, frame in enumerate(trace.frames[::13][:6])
    )
    return WorkloadTrace.from_frames(
        "asp-drawn", trace.vertex_shaders, trace.fragment_shaders,
        trace.meshes, trace.textures, frames,
    )


@st.composite
def caches(draw, name: str, max_sets: int) -> CacheConfig:
    line = draw(st.sampled_from([32, 64, 128]))
    ways = draw(st.sampled_from([1, 2, 4, 8]))
    sets = draw(st.integers(1, max_sets))
    latency = draw(st.integers(1, 20))
    return CacheConfig(name, sets * ways * line, line, ways,
                       latency_cycles=latency)


@st.composite
def drams(draw) -> DRAMConfig:
    line = draw(st.sampled_from([32, 64, 128]))
    min_latency = draw(st.integers(1, 120))
    return DRAMConfig(
        min_latency_cycles=min_latency,
        max_latency_cycles=min_latency + draw(st.integers(0, 120)),
        bandwidth_bytes_per_cycle=draw(st.sampled_from([1, 2, 4, 8, 16])),
        line_bytes=line,
        row_bytes=line * draw(st.sampled_from([1, 4, 32])),
    )


gpu_configs = st.builds(
    GPUConfig,
    screen_width=st.integers(160, 1920),
    screen_height=st.integers(120, 1080),
    tile_size=st.sampled_from([8, 16, 32, 64]),
    rendering_mode=st.sampled_from(["tbr", "tbdr", "imr"]),
    vertex_processors=st.integers(1, 8),
    fragment_processors=st.integers(1, 8),
    vertex_cache=caches("vertex", 64),
    texture_cache=caches("texture", 128),
    tile_cache=caches("tile", 512),
    l2_cache=caches("l2", 2048),
    dram=drams(),
)


@given(
    config=gpu_configs,
    frame_ids=st.none() | st.lists(st.integers(0, 5), min_size=1, max_size=3),
    warmup=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_parity_over_drawn_configs(config, frame_ids, warmup):
    """vector equals scalar bit for bit on drawn GPU configurations, all
    three rendering modes and drawn warmup schedules."""
    trace = drawn_trace()
    scalar = scalar_sim(config=config).simulate(trace, frame_ids, warmup)
    vector = vector_sim(config=config).simulate(trace, frame_ids, warmup)
    assert vector.frame_ids == scalar.frame_ids
    assert vector.frame_stats == scalar.frame_stats
    assert not compare_results(scalar, vector)


@functools.cache
def edge_trace() -> WorkloadTrace:
    """Frames that reach the lowering's corner cases.

    Frames 0 and 3 have no draws.  In the others, draw 0 fills the screen
    opaquely and samples a texture twice, once trilinear (a footprint
    larger than the L2) and once bilinear (larger than a texture cache
    and smaller than the L2); draw 1 sits fully occluded behind it, draw
    2 is behind the camera (no fragments), and draw 3 is a transparent
    draw in front whose shader samples nothing.  Mesh and texture ids
    equal the in-frame indices of the draws that use them, so a region
    key that ignored its namespace would collide.
    """
    vs = ShaderProgram(shader_id=0, kind=ShaderKind.VERTEX, alu_instructions=9)
    plain = ShaderProgram(shader_id=0, kind=ShaderKind.FRAGMENT, alu_instructions=5)
    sampled = ShaderProgram(
        shader_id=1, kind=ShaderKind.FRAGMENT, alu_instructions=7,
        texture_samples=(
            TextureSample(texture_slot=0, filter_mode=FilterMode.TRILINEAR),
            TextureSample(texture_slot=1, filter_mode=FilterMode.BILINEAR),
        ),
    )
    meshes = tuple(
        Mesh(mesh_id=index, vertex_count=60 * (index + 1),
             primitive_count=90 * (index + 1), vertex_stride_bytes=32,
             bounding_radius=1.0, base_address=index << 20)
        for index in range(4)
    )
    textures = (
        Texture(texture_id=0, width=1024, height=1024, texel_bytes=4,
                base_address=1 << 30),
        Texture(texture_id=1, width=64, height=64, texel_bytes=4,
                base_address=1 << 31),
    )
    full_screen = DrawCall(
        mesh=meshes[0], vertex_shader=vs, fragment_shader=sampled,
        texture_ids=(0, 1), position=Vec3(0.0, 0.0, -2.0), scale=4.0,
        instance_count=4, depth_layer=1,
    )
    occluded = DrawCall(
        mesh=meshes[1], vertex_shader=vs, fragment_shader=sampled,
        texture_ids=(1, 0), position=Vec3(0.5, 0.0, -20.0), scale=2.0,
        overdraw=1.5, depth_layer=2,
    )
    behind = DrawCall(
        mesh=meshes[2], vertex_shader=vs, fragment_shader=plain,
        position=Vec3(0.0, 0.0, 30.0),
    )
    transparent = DrawCall(
        mesh=meshes[3], vertex_shader=vs, fragment_shader=plain,
        position=Vec3(-1.0, 0.5, -8.0), scale=1.5, overdraw=2.0,
        opaque=False, depth_layer=0,
    )
    drawn = (full_screen, occluded, behind, transparent)
    schedule = [(), drawn, drawn, (), drawn[::-1], drawn]
    frames = tuple(
        Frame(frame_id=index, camera=Camera(), draw_calls=draw_calls)
        for index, draw_calls in enumerate(schedule)
    )
    return WorkloadTrace.from_frames(
        "edges", (vs,), (plain, sampled), meshes, textures, frames
    )


@pytest.mark.parametrize("mode", ["tbr", "tbdr", "imr"])
def test_edge_trace_reaches_its_cases(mode):
    trace = edge_trace()
    config = GPUConfig(rendering_mode=mode)
    work = compute_work_columns(trace.draws, trace.resources, config)
    assert 0 in np.diff(work.offsets).tolist()
    generated = work.fragments_generated
    assert (generated == 0).any()
    assert ((generated > 0) & (work.fragments_shaded == 0)).any()
    schedule = [(fid, True) for fid in range(trace.frame_count)]
    stream, _, _ = vector._lower(trace, schedule, config)
    kind, lines = stream[0], stream[3]
    texture_lines = lines[kind == vector._OP_TEXTURE]
    assert texture_lines.max() > config.l2_cache.lines
    between = (texture_lines > config.texture_cache.lines) & (
        texture_lines <= config.l2_cache.lines
    )
    assert between.any()


@pytest.mark.parametrize("mode", ["tbr", "tbdr", "imr"])
@pytest.mark.parametrize("frame_ids,warmup", [
    (None, 0), ([2, 4, 5], 2), ([1, 5], 3),
])
def test_edge_trace_parity(mode, frame_ids, warmup):
    """vector equals scalar bit for bit on the lowering's corner cases."""
    trace = edge_trace()
    config = GPUConfig(rendering_mode=mode)
    scalar = scalar_sim(config=config).simulate(trace, frame_ids, warmup)
    vector_result = vector_sim(config=config).simulate(trace, frame_ids, warmup)
    assert vector_result.frame_ids == scalar.frame_ids
    assert vector_result.frame_stats == scalar.frame_stats


@pytest.mark.parametrize("mode", ["tbr", "tbdr", "imr"])
def test_lowering_refuses_zero_access_ops(monkeypatch, tiny_trace, mode):
    """An op with zero accesses is refused, as RegionCache.access refuses
    one (test_region_cache.py::test_invalid)."""

    def no_vertices(draws, resources, config):
        work = compute_work_columns(draws, resources, config)
        return dataclasses.replace(
            work, vertices_shaded=np.zeros_like(work.vertices_shaded)
        )

    monkeypatch.setattr(vector, "compute_work_columns", no_vertices)
    config = GPUConfig(rendering_mode=mode)
    with pytest.raises(SimulationError, match="zero lines or zero accesses"):
        vector_sim(config=config).simulate(tiny_trace)


class TestSampling:
    def test_small_trace_takes_all_frames(self):
        assert sample_frame_ids(5, max_frames=16) == [0, 1, 2, 3, 4]

    def test_large_trace_strides_and_keeps_last(self):
        sampled = sample_frame_ids(1000, max_frames=16)
        assert len(sampled) == 16
        assert sampled[0] == 0
        assert sampled[-1] == 999
        assert sampled == sorted(set(sampled))

    def test_deterministic(self):
        assert sample_frame_ids(317, max_frames=9) == sample_frame_ids(
            317, max_frames=9
        )

    def test_rejects_empty_trace(self):
        with pytest.raises(SimulationError):
            sample_frame_ids(0)

    def test_rejects_bad_max(self):
        with pytest.raises(SimulationError):
            sample_frame_ids(10, max_frames=0)


class TestFrameSelection:
    """Regression tests for the simulate() frame-selection fixes."""

    def test_duplicate_frame_ids_deduplicated(self, tiny_trace):
        sim = scalar_sim()
        duplicated = sim.simulate(tiny_trace, frame_ids=[3, 3, 5, 5, 3])
        clean = sim.simulate(tiny_trace, frame_ids=[3, 5])
        assert duplicated.frame_ids == (3, 5)
        assert duplicated.frame_stats == clean.frame_stats

    def test_empty_frame_ids_rejected(self, tiny_trace):
        with pytest.raises(SimulationError, match="empty frame selection"):
            scalar_sim().simulate(tiny_trace, frame_ids=[])

    def test_empty_frame_ids_rejected_by_vector_backend(self, tiny_trace):
        with pytest.raises(SimulationError, match="empty frame selection"):
            vector_sim().simulate(tiny_trace, frame_ids=[])


class TestCycleConfig:
    def test_default_is_vector(self):
        assert CycleConfig().backend == "vector"
        assert CycleAccurateSimulator().cycle.backend == "vector"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            CycleConfig(backend="simd")

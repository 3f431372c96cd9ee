"""The columnar work model equals the per-draw oracle, field for field.

:func:`compute_work_columns` is what the functional profile and the vector
cycle backend run; :func:`compute_frame_work` is the per-draw oracle the
scalar backend runs.  Bit identity between them is the contract, checked
here on hypothesis-drawn frames (cameras, screen and tile geometry, all
three rendering modes) and on slices of the synthetic benchmarks.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.config import GPUConfig
from repro.gpu.functional_sim import FunctionalSimulator
from repro.gpu.workmodel import compute_frame_work, compute_work_columns
from repro.scene.draw import DrawCall
from repro.scene.frame import Camera, Frame
from repro.scene.mesh import Mesh
from repro.scene.shader import ShaderKind, ShaderProgram
from repro.scene.trace import WorkloadTrace
from repro.scene.vectors import Vec3
from repro.workloads import make_benchmark

MODES = ("tbr", "tbdr", "imr")
FIELDS = (
    "vertices_shaded",
    "primitives_submitted",
    "primitives_binned",
    "prim_tile_pairs",
    "footprint_pixels",
    "fragments_generated",
    "fragments_shaded",
    "tiles_covered",
)
#: The per-frame totals :class:`FrameWork` exposes.
FRAME_TOTALS = (
    "vertices_shaded",
    "primitives_submitted",
    "primitives_binned",
    "prim_tile_pairs",
    "fragments_generated",
    "fragments_shaded",
)
VS = ShaderProgram(0, ShaderKind.VERTEX, alu_instructions=10)
FS = ShaderProgram(0, ShaderKind.FRAGMENT, alu_instructions=15)


def trace_of(frames):
    """A trace of ``frames`` whose mesh table holds each distinct mesh."""
    meshes = tuple(
        dict.fromkeys(dc.mesh for frame in frames for dc in frame.draw_calls)
    )
    return WorkloadTrace.from_frames("drawn", (VS,), (FS,), meshes, (), frames)


def assert_columns_match_oracle(trace, frame_ids, frames, config):
    """The columns of ``trace``'s ``frame_ids`` equal the oracle on ``frames``."""
    columns = compute_work_columns(
        trace.draws.take(frame_ids), trace.resources, config
    )
    assert columns.offsets.tolist() == list(
        np.cumsum([0] + [len(f.draw_calls) for f in frames])
    )
    for slot, frame in enumerate(frames):
        oracle = compute_frame_work(frame, config)
        rows = slice(columns.offsets[slot], columns.offsets[slot + 1])
        for name in FIELDS:
            assert getattr(columns, name)[rows].tolist() == [
                getattr(work, name) for work in oracle.draw_work
            ], (slot, name)
        assert columns.active_tiles[slot] == oracle.active_tiles, slot
        for name in FRAME_TOTALS:
            total = columns.frame_sums(getattr(columns, name))[slot]
            assert total == getattr(oracle, name), (slot, name)


meshes = st.builds(
    Mesh,
    mesh_id=st.just(0),
    vertex_count=st.integers(4, 3000),
    primitive_count=st.integers(2, 6000),
    vertex_stride_bytes=st.sampled_from([16, 32]),
    bounding_radius=st.floats(0.1, 5.0),
    base_address=st.just(0),
    closed_surface=st.booleans(),
)
draw_calls = st.builds(
    DrawCall,
    mesh=meshes,
    vertex_shader=st.just(VS),
    fragment_shader=st.just(FS),
    position=st.builds(
        Vec3, st.floats(-50, 50), st.floats(-50, 50), st.floats(-100, 20)
    ),
    scale=st.floats(0.1, 20.0),
    instance_count=st.integers(1, 6),
    overdraw=st.floats(1.0, 4.0),
    opaque=st.booleans(),
    depth_layer=st.integers(0, 5),
)
cameras = st.builds(
    Camera,
    position=st.builds(
        Vec3, st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
    ),
    fov_y_degrees=st.floats(20.0, 120.0),
    orthographic=st.booleans(),
    ortho_height=st.floats(1.0, 60.0),
    near=st.floats(0.05, 2.0),
)
frame_runs = st.lists(
    st.tuples(cameras, st.lists(draw_calls, max_size=8)), max_size=4
).map(
    lambda drawn: [
        Frame(frame_id=i, camera=camera, draw_calls=tuple(dcs))
        for i, (camera, dcs) in enumerate(drawn)
    ]
)
configs = st.builds(
    GPUConfig,
    screen_width=st.integers(64, 1920),
    screen_height=st.integers(64, 1080),
    tile_size=st.sampled_from([8, 16, 32, 64]),
    rendering_mode=st.sampled_from(MODES),
)


@given(frames=frame_runs, config=configs)
@settings(max_examples=150, deadline=None)
def test_columns_equal_oracle_on_drawn_frames(frames, config):
    # A trace needs a frame: pad the (possibly empty) run with an empty
    # frame that is not compared.
    padding = Frame(frame_id=len(frames), camera=Camera(), draw_calls=())
    trace = trace_of(frames + [padding])
    assert_columns_match_oracle(trace, range(len(frames)), frames, config)


@pytest.fixture(scope="module")
def asp_trace():
    return make_benchmark("asp", scale=0.02)


@pytest.mark.parametrize("mode", MODES)
def test_columns_equal_oracle_on_benchmark_frames(asp_trace, mode):
    assert_columns_match_oracle(
        asp_trace, range(0, asp_trace.frame_count, 8), asp_trace.frames[::8],
        GPUConfig(rendering_mode=mode),
    )


@pytest.mark.parametrize("mode", MODES)
def test_profile_equals_per_draw_oracle(mode):
    trace = make_benchmark("hwh", scale=0.02)
    config = GPUConfig(rendering_mode=mode)
    profiles = FunctionalSimulator(config).profile(trace).profiles
    for frame, profile in zip(trace.frames, profiles):
        vs = np.zeros(len(trace.vertex_shaders), dtype=np.int64)
        fs = np.zeros(len(trace.fragment_shaders), dtype=np.int64)
        vertex_instructions = fragment_instructions = 0
        work = compute_frame_work(frame, config)
        for dcw in work.draw_work:
            dc = dcw.draw_call
            vs[dc.vertex_shader.shader_id] += dcw.vertices_shaded
            fs[dc.fragment_shader.shader_id] += dcw.fragments_shaded
            vertex_instructions += (
                dcw.vertices_shaded * dc.vertex_shader.instruction_count
            )
            fragment_instructions += (
                dcw.fragments_shaded * dc.fragment_shader.instruction_count
            )
        assert profile.vs_executions.tolist() == vs.tolist()
        assert profile.fs_executions.tolist() == fs.tolist()
        assert profile.primitives == work.primitives_binned
        assert profile.vertex_instructions == vertex_instructions
        assert profile.fragment_instructions == fragment_instructions


def test_empty_run_and_empty_frames():
    empty = Frame(frame_id=0, camera=Camera(), draw_calls=())
    trace = trace_of([empty, dataclasses.replace(empty, frame_id=1)])
    columns = compute_work_columns(trace.draws, trace.resources, GPUConfig())
    assert columns.offsets.tolist() == [0, 0, 0]
    assert columns.active_tiles.tolist() == [0, 0]
    assert compute_work_columns(
        trace.draws.take([]), trace.resources, GPUConfig()
    ).offsets.tolist() == [0]

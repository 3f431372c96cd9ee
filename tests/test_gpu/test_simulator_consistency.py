"""Property test: functional and cycle-accurate simulators always agree.

The methodology depends on the functional profile counting exactly the
shader work the timing model executes (Section IV-A: TEAPOT's functional
front-end feeds its timing back-end).  This fuzzes randomly generated
frames through both simulators and checks the shared counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cycle_sim import CycleAccurateSimulator
from repro.gpu.functional_sim import FunctionalSimulator
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

VS = ShaderProgram(0, ShaderKind.VERTEX, alu_instructions=12)
FS_PLAIN = ShaderProgram(0, ShaderKind.FRAGMENT, alu_instructions=9)
FS_TEXTURED = ShaderProgram(
    1, ShaderKind.FRAGMENT, alu_instructions=14,
    texture_samples=(TextureSample(0, FilterMode.BILINEAR),),
)
TEXTURE = Texture(0, 256, 256, 4, 8 << 20)
MESHES = (
    Mesh(0, 60, 100, 32, 1.0, 0 << 20, closed_surface=True),
    Mesh(1, 4, 2, 16, 1.0, 1 << 20, closed_surface=False),
)


def draw_calls():
    return st.builds(
        DrawCall,
        mesh=st.sampled_from(MESHES),
        vertex_shader=st.just(VS),
        fragment_shader=st.sampled_from([FS_PLAIN, FS_TEXTURED]),
        texture_ids=st.just((0,)),
        position=st.builds(
            Vec3, st.floats(-30, 30), st.floats(-20, 20), st.floats(-80, 10)
        ),
        scale=st.floats(0.2, 12.0),
        instance_count=st.integers(1, 4),
        overdraw=st.floats(1.0, 3.0),
        opaque=st.booleans(),
        depth_layer=st.integers(0, 3),
    )


def traces():
    def build(frames_calls):
        frames = tuple(
            Frame(frame_id=i, camera=Camera(), draw_calls=tuple(calls))
            for i, calls in enumerate(frames_calls)
        )
        return WorkloadTrace.from_frames(
            name="fuzz",
            vertex_shaders=(VS,),
            fragment_shaders=(FS_PLAIN, FS_TEXTURED),
            meshes=MESHES,
            textures=(TEXTURE,),
            frames=frames,
        )

    return st.lists(
        st.lists(draw_calls(), min_size=1, max_size=4), min_size=1, max_size=4
    ).map(build)


class TestConsistency:
    @given(trace=traces())
    @settings(max_examples=40, deadline=None)
    def test_shader_counts_agree(self, trace):
        profile = FunctionalSimulator().profile(trace)
        cycle = CycleAccurateSimulator().simulate(trace)
        for frame_profile, frame_stats in zip(
            profile.profiles, cycle.frame_stats
        ):
            assert (
                frame_profile.vs_executions.sum() == frame_stats.vertices_shaded
            )
            assert (
                frame_profile.fs_executions.sum() == frame_stats.fragments_shaded
            )
            assert frame_profile.primitives == frame_stats.primitives_binned
            assert (
                frame_profile.vertex_instructions
                == frame_stats.vertex_instructions
            )
            assert (
                frame_profile.fragment_instructions
                == frame_stats.fragment_instructions
            )

    @given(trace=traces())
    @settings(max_examples=20, deadline=None)
    def test_cycle_sim_invariants(self, trace):
        result = CycleAccurateSimulator().simulate(trace)
        for stats in result.frame_stats:
            assert stats.cycles > 0
            assert stats.energy_raster >= 0
            assert stats.l2_cache.hits + stats.l2_cache.misses == (
                stats.l2_cache.accesses
            )
            assert stats.dram.row_hits + stats.dram.row_misses == (
                stats.dram.total_accesses
            )

"""Tests for the TBDR / IMR rendering-mode extensions (Section IV-A)."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig, default_config
from repro.gpu.cycle_sim import CycleAccurateSimulator
from repro.gpu.workmodel import compute_frame_work


def config_for(mode: str) -> GPUConfig:
    return dataclasses.replace(default_config(), rendering_mode=mode)


class TestConfig:
    def test_default_is_tbr(self):
        assert default_config().rendering_mode == "tbr"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            config_for("raytracing")


class TestWorkModel:
    def test_tbdr_shades_one_opaque_layer(self, tiny_trace):
        """HSR removes opaque overdraw entirely (conftest dc: overdraw 1.5)."""
        frame = tiny_trace.frames[0]
        tbr = compute_frame_work(frame, config_for("tbr"))
        tbdr = compute_frame_work(frame, config_for("tbdr"))
        assert tbdr.fragments_shaded < tbr.fragments_shaded
        dcw = tbdr.draw_work[0]
        assert dcw.fragments_shaded == pytest.approx(
            dcw.footprint_pixels, rel=0.01
        )

    def test_tbdr_generated_unchanged(self, tiny_trace):
        frame = tiny_trace.frames[0]
        tbr = compute_frame_work(frame, config_for("tbr"))
        tbdr = compute_frame_work(frame, config_for("tbdr"))
        assert tbdr.fragments_generated == tbr.fragments_generated

    def test_imr_has_no_binning_pairs(self, tiny_trace):
        frame = tiny_trace.frames[0]
        imr = compute_frame_work(frame, config_for("imr"))
        assert imr.prim_tile_pairs == 0
        assert imr.active_tiles == 0
        # But primitives are still processed (PRIM stays meaningful).
        assert imr.primitives_binned > 0

    def test_imr_occlusion_follows_submission_order(
        self, simple_mesh, vertex_shader, fragment_shader
    ):
        """Back-to-front submission defeats IMR's depth test but not TBR's
        depth-sorted model."""
        from repro.scene.draw import DrawCall
        from repro.scene.frame import Camera, Frame
        from repro.scene.vectors import Vec3

        front = DrawCall(
            mesh=simple_mesh, vertex_shader=vertex_shader,
            fragment_shader=fragment_shader, texture_ids=(0,),
            position=Vec3(0, 0, -5), scale=3.0, depth_layer=0,
        )
        back = DrawCall(
            mesh=simple_mesh, vertex_shader=vertex_shader,
            fragment_shader=fragment_shader, texture_ids=(0,),
            position=Vec3(0, 0, -10), scale=3.0, depth_layer=1,
        )
        # Submit back first (painter's order).
        frame = Frame(frame_id=0, camera=Camera(), draw_calls=(back, front))
        tbr = compute_frame_work(frame, config_for("tbr"))
        imr = compute_frame_work(frame, config_for("imr"))
        assert imr.fragments_shaded > tbr.fragments_shaded


def painter_order_trace(simple_mesh, vertex_shader, fragment_shader, texture):
    """A dense back-to-front scene: IMR's worst case, TBR's bread and
    butter (large overlapping layers filling the screen)."""
    from repro.scene.draw import DrawCall
    from repro.scene.frame import Camera, Frame
    from repro.scene.trace import WorkloadTrace
    from repro.scene.vectors import Vec3

    camera = Camera()
    draw_calls = tuple(
        DrawCall(
            mesh=simple_mesh, vertex_shader=vertex_shader,
            fragment_shader=fragment_shader, texture_ids=(0,),
            position=Vec3(0, 0, -4.0 - layer), scale=8.0,
            overdraw=1.5, depth_layer=4 - layer,  # farthest first
        )
        for layer in range(5)
    )
    frames = tuple(
        Frame(frame_id=i, camera=camera, draw_calls=draw_calls)
        for i in range(3)
    )
    return WorkloadTrace.from_frames(
        name="painter", vertex_shaders=(vertex_shader,),
        fragment_shaders=(fragment_shader,), meshes=(simple_mesh,),
        textures=(texture,), frames=frames,
    )


class TestIMRFullyOccludedTransparent:
    def test_occluded_transparent_call_simulates(
        self, simple_mesh, vertex_shader, fragment_shader, texture
    ):
        """Regression: a transparent draw call whose fragments are all
        depth-culled in IMR must not crash the raster model."""
        from repro.scene.draw import DrawCall
        from repro.scene.frame import Camera, Frame
        from repro.scene.trace import WorkloadTrace
        from repro.scene.vectors import Vec3

        occluder = DrawCall(
            mesh=simple_mesh, vertex_shader=vertex_shader,
            fragment_shader=fragment_shader, texture_ids=(0,),
            position=Vec3(0, 0, -2.0), scale=50.0, depth_layer=0,
        )
        hidden_transparent = DrawCall(
            mesh=simple_mesh, vertex_shader=vertex_shader,
            fragment_shader=fragment_shader, texture_ids=(0,),
            position=Vec3(0, 0, -10.0), scale=0.5, depth_layer=1,
            opaque=False,
        )
        frame = Frame(
            frame_id=0, camera=Camera(),
            draw_calls=(occluder, hidden_transparent),
        )
        trace = WorkloadTrace.from_frames(
            name="occluded", vertex_shaders=(vertex_shader,),
            fragment_shaders=(fragment_shader,), meshes=(simple_mesh,),
            textures=(texture,), frames=(frame,),
        )
        result = CycleAccurateSimulator(config_for("imr")).simulate(trace)
        assert result.totals.cycles > 0


class TestSimulator:
    def test_tbr_beats_imr_on_dram_traffic(
        self, simple_mesh, vertex_shader, fragment_shader, texture
    ):
        """Section II-A: TBR writes each pixel once; IMR writes every
        overdrawn fragment's color to memory."""
        trace = painter_order_trace(
            simple_mesh, vertex_shader, fragment_shader, texture
        )
        tbr = CycleAccurateSimulator(config_for("tbr")).simulate(trace)
        imr = CycleAccurateSimulator(config_for("imr")).simulate(trace)
        assert imr.totals.dram.write_accesses > tbr.totals.dram.write_accesses
        assert imr.totals.fragments_shaded > tbr.totals.fragments_shaded

    def test_imr_has_no_tiling_activity(self, tiny_trace):
        imr = CycleAccurateSimulator(config_for("imr")).simulate(tiny_trace)
        assert imr.totals.tile_cache_accesses == 0
        assert imr.totals.tiling_cycles == 0
        assert imr.totals.energy_tiling < imr.totals.energy_raster * 0.01

    def test_tbdr_saves_fragment_work(self, tiny_trace):
        tbr = CycleAccurateSimulator(config_for("tbr")).simulate(tiny_trace)
        tbdr = CycleAccurateSimulator(config_for("tbdr")).simulate(tiny_trace)
        assert tbdr.totals.fragment_instructions < tbr.totals.fragment_instructions
        assert tbdr.totals.cycles < tbr.totals.cycles

    def test_megsim_features_remain_valid_on_tbdr(self, tiny_trace):
        """The methodology is architecture-independent: plans built from a
        TBDR functional profile still cover every frame."""
        import dataclasses as dc

        from repro.core.sampler import MEGsim
        from repro.gpu.functional_sim import FunctionalSimulator

        profile = FunctionalSimulator(config_for("tbdr")).profile(tiny_trace)
        plan = MEGsim().plan_from_profile(profile)
        assert sum(c.weight for c in plan.clusters) == tiny_trace.frame_count

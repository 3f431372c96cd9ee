"""Fixtures for the parallel-engine tests.

The determinism cross-checks need a sequence long enough to split into
many chunks and to cluster into several phases, yet cheap enough to
profile repeatedly — a hand-built 256-frame synthetic trace with four
visually distinct phases (the same construction as ``tiny_trace``,
longer and with per-phase geometry).
"""

from __future__ import annotations

import pytest

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


@pytest.fixture(scope="session")
def phased_trace() -> WorkloadTrace:
    """A 256-frame trace with four distinct rendering phases."""
    vertex_shader = ShaderProgram(
        shader_id=0, kind=ShaderKind.VERTEX, alu_instructions=12
    )
    fragment_shader = ShaderProgram(
        shader_id=0,
        kind=ShaderKind.FRAGMENT,
        alu_instructions=20,
        texture_samples=(
            TextureSample(texture_slot=0, filter_mode=FilterMode.BILINEAR),
        ),
    )
    mesh = Mesh(
        mesh_id=0,
        vertex_count=300,
        primitive_count=500,
        vertex_stride_bytes=32,
        bounding_radius=1.0,
        base_address=0,
        closed_surface=True,
    )
    texture = Texture(
        texture_id=0, width=256, height=256, texel_bytes=4,
        base_address=1 << 20,
    )
    camera = Camera()
    # Four 64-frame phases: near scene, far scene, crowded scene, and a
    # sparse scene — different shader-execution and primitive profiles.
    phases = (
        {"depth": -10.0, "scale": 2.0, "copies": 1, "overdraw": 1.5},
        {"depth": -30.0, "scale": 2.0, "copies": 1, "overdraw": 1.5},
        {"depth": -15.0, "scale": 1.5, "copies": 3, "overdraw": 2.0},
        {"depth": -40.0, "scale": 1.0, "copies": 1, "overdraw": 1.0},
    )
    frames = []
    for frame_id in range(256):
        phase = phases[frame_id // 64]
        draw_calls = tuple(
            DrawCall(
                mesh=mesh,
                vertex_shader=vertex_shader,
                fragment_shader=fragment_shader,
                texture_ids=(0,),
                position=Vec3(1.5 * copy, 0.0, phase["depth"]),
                scale=phase["scale"],
                overdraw=phase["overdraw"],
            )
            for copy in range(phase["copies"])
        )
        frames.append(
            Frame(frame_id=frame_id, camera=camera, draw_calls=draw_calls)
        )
    return WorkloadTrace.from_frames(
        name="phased256",
        vertex_shaders=(vertex_shader,),
        fragment_shaders=(fragment_shader,),
        meshes=(mesh,),
        textures=(texture,),
        frames=tuple(frames),
    )

"""Shared fixtures: hand-built miniature traces and common objects."""

from __future__ import annotations

import os

import pytest

from repro.store import STORE_ENV_VAR, set_store

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


@pytest.fixture(scope="session", autouse=True)
def _hermetic_store(tmp_path_factory) -> None:
    """Point the artifact store at a session-private temporary root.

    Keeps the suite hermetic — no reads from or writes to the user's
    ``~/.cache/megsim`` — while still exercising the persistent disk
    tier and sharing expensive evaluations across test modules.
    """
    previous = os.environ.get(STORE_ENV_VAR)
    os.environ[STORE_ENV_VAR] = str(tmp_path_factory.mktemp("megsim-store"))
    set_store(None)  # rebuild lazily from the new environment
    yield
    if previous is None:
        os.environ.pop(STORE_ENV_VAR, None)
    else:
        os.environ[STORE_ENV_VAR] = previous
    set_store(None)


@pytest.fixture
def vertex_shader() -> ShaderProgram:
    return ShaderProgram(shader_id=0, kind=ShaderKind.VERTEX, alu_instructions=12)


@pytest.fixture
def fragment_shader() -> ShaderProgram:
    return ShaderProgram(
        shader_id=0,
        kind=ShaderKind.FRAGMENT,
        alu_instructions=20,
        texture_samples=(
            TextureSample(texture_slot=0, filter_mode=FilterMode.BILINEAR),
        ),
    )


@pytest.fixture
def simple_mesh() -> Mesh:
    return Mesh(
        mesh_id=0,
        vertex_count=300,
        primitive_count=500,
        vertex_stride_bytes=32,
        bounding_radius=1.0,
        base_address=0,
        closed_surface=True,
    )


@pytest.fixture
def texture() -> Texture:
    return Texture(
        texture_id=0, width=256, height=256, texel_bytes=4, base_address=1 << 20
    )


@pytest.fixture
def draw_call(simple_mesh, vertex_shader, fragment_shader) -> DrawCall:
    return DrawCall(
        mesh=simple_mesh,
        vertex_shader=vertex_shader,
        fragment_shader=fragment_shader,
        texture_ids=(0,),
        position=Vec3(0.0, 0.0, -12.0),
        scale=2.0,
        overdraw=1.5,
    )


@pytest.fixture
def tiny_trace(simple_mesh, vertex_shader, fragment_shader, texture) -> WorkloadTrace:
    """A 6-frame trace with two visually distinct halves."""
    camera = Camera()
    frames = []
    for frame_id in range(6):
        # First half: one near object.  Second half: the object recedes,
        # shrinking its footprint.
        depth = -10.0 if frame_id < 3 else -30.0
        dc = DrawCall(
            mesh=simple_mesh,
            vertex_shader=vertex_shader,
            fragment_shader=fragment_shader,
            texture_ids=(0,),
            position=Vec3(0.0, 0.0, depth),
            scale=2.0,
            overdraw=1.5,
        )
        frames.append(Frame(frame_id=frame_id, camera=camera, draw_calls=(dc,)))
    return WorkloadTrace.from_frames(
        name="tiny",
        vertex_shaders=(vertex_shader,),
        fragment_shaders=(fragment_shader,),
        meshes=(simple_mesh,),
        textures=(texture,),
        frames=tuple(frames),
    )

"""Scene substrate: the workload representation consumed by the simulators.

This package models what an OpenGL trace captured from a running game would
contain, at the granularity the simulators need: shader programs with their
instruction mixes, meshes, textures, draw calls, per-frame cameras and whole
video-sequence traces.
"""

from repro.scene.vectors import Vec3
from repro.scene.shader import FilterMode, ShaderKind, ShaderProgram, TextureSample
from repro.scene.mesh import Mesh, Texture
from repro.scene.draw import DrawCall
from repro.scene.frame import Camera, Frame
from repro.scene.table import DrawTable
from repro.scene.trace import WorkloadTrace

__all__ = [
    "Vec3",
    "FilterMode",
    "ShaderKind",
    "ShaderProgram",
    "TextureSample",
    "Mesh",
    "Texture",
    "DrawCall",
    "Camera",
    "Frame",
    "DrawTable",
    "WorkloadTrace",
]

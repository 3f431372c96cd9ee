"""The draw table: every draw call of a trace as numpy columns.

A :class:`~repro.scene.trace.WorkloadTrace` stores its frames as one
:class:`DrawTable` rather than as :class:`~repro.scene.frame.Frame` and
:class:`~repro.scene.draw.DrawCall` objects.  Capture parsers and the
synthetic generator fill the columns directly, and the functional pass
and the vector cycle backend read them without gathering per-draw
objects back into arrays.  Resources (meshes, shaders, textures) stay in
the trace's small object tables; the table refers to them by index
(meshes) or id (shaders, textures).  :class:`ResourceColumns` holds the
per-row constants of those tables that draw columns index, so each
consumer indexes one set of arrays rather than rebuilding its own.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from typing import Sequence

import numpy as np

from repro.errors import TraceError
from repro.scene.mesh import Mesh, Texture
from repro.scene.shader import FilterMode, ShaderProgram

#: Accepted numpy dtype kinds of an integer column's values and of any
#: other column's (b: bool, i/u: int, f: float).
_INT, _NUMBER = "biu", "biuf"

#: (name, dtype, accepted value kinds) of the per-frame camera columns
#: and of the per-draw columns, in the order :func:`make_table` takes
#: their values.  ``camera_position`` and ``position`` hold x/y/z rows.
FRAME_COLUMNS = (
    ("camera_position", np.float64, _NUMBER),
    ("fov_y_degrees", np.float64, _NUMBER),
    ("orthographic", np.bool_, _NUMBER),
    ("ortho_height", np.float64, _NUMBER),
    ("near", np.float64, _NUMBER),
)
DRAW_COLUMNS = (
    ("mesh", np.int64, _INT),
    ("vertex_shader", np.int64, _INT),
    ("fragment_shader", np.int64, _INT),
    ("position", np.float64, _NUMBER),
    ("scale", np.float64, _NUMBER),
    ("instance_count", np.int64, _INT),
    ("overdraw", np.float64, _NUMBER),
    ("opaque", np.bool_, _NUMBER),
    ("depth_layer", np.int64, _INT),
)


@dataclass(frozen=True, eq=False)
class DrawTable:
    """Per-frame camera columns and per-draw columns of a run of frames.

    Frame ``i``'s draws are rows ``frame_offsets[i]:frame_offsets[i + 1]``
    in submission order; draw ``j`` binds textures
    ``texture_ids[texture_offsets[j]:texture_offsets[j + 1]]`` (the
    binding for sampler slot ``k`` is the ``k``-th of them).

    Attributes:
        frame_offsets: int64, one more entry than there are frames.
        camera_position: float64 ``(frames, 3)`` eye positions.
        fov_y_degrees, ortho_height, near: float64 per-frame camera fields.
        orthographic: bool per frame.
        mesh: int64 per draw, the row of the trace's mesh table.
        vertex_shader, fragment_shader: int64 per draw, shader ids (the
            shader tables are densely indexed, so an id is also a row).
        position: float64 ``(draws, 3)`` world-space positions.
        scale, overdraw: float64 per draw.
        instance_count, depth_layer: int64 per draw.
        opaque: bool per draw.
        texture_offsets: int64, one more entry than there are draws.
        texture_ids: int64 bound texture ids, all draws back to back.
    """

    frame_offsets: np.ndarray
    camera_position: np.ndarray
    fov_y_degrees: np.ndarray
    orthographic: np.ndarray
    ortho_height: np.ndarray
    near: np.ndarray
    mesh: np.ndarray
    vertex_shader: np.ndarray
    fragment_shader: np.ndarray
    position: np.ndarray
    scale: np.ndarray
    instance_count: np.ndarray
    overdraw: np.ndarray
    opaque: np.ndarray
    depth_layer: np.ndarray
    texture_offsets: np.ndarray
    texture_ids: np.ndarray

    @property
    def frame_count(self) -> int:
        """Number of frames in the table."""
        return len(self.frame_offsets) - 1

    @property
    def draw_count(self) -> int:
        """Number of draw calls across all frames."""
        return int(self.frame_offsets[-1])

    def frame_of(self) -> np.ndarray:
        """The frame index of every draw row."""
        return np.repeat(
            np.arange(self.frame_count), np.diff(self.frame_offsets)
        )

    def take(self, frame_ids: Sequence[int] | np.ndarray) -> "DrawTable":
        """A table of the given frames, in the given order."""
        ids = np.asarray(frame_ids, dtype=np.int64)
        frame_offsets, rows = _gather(self.frame_offsets, ids)
        texture_offsets, bindings = _gather(self.texture_offsets, rows)
        return DrawTable(
            frame_offsets=frame_offsets,
            texture_offsets=texture_offsets,
            texture_ids=self.texture_ids[bindings],
            **{name: getattr(self, name)[ids] for name, _, _ in FRAME_COLUMNS},
            **{name: getattr(self, name)[rows] for name, _, _ in DRAW_COLUMNS},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DrawTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class ResourceColumns:
    """Per-row constants of a trace's mesh, shader and texture tables.

    A draw table's ``mesh`` column indexes the mesh columns, and its
    ``vertex_shader`` and ``fragment_shader`` columns index the matching
    shader columns (shader tables are densely indexed by id).  Fragment
    shader ``s`` samples the sample rows
    ``fs_sample_offsets[s]:fs_sample_offsets[s + 1]``, in program order;
    :meth:`texture_rows` maps a draw's bound texture ids to texture rows.

    Attributes:
        mesh_id: int64 id of each mesh.
        vertex_count, primitive_count, vertex_buffer_bytes: int64 per mesh.
        bounding_radius: float64 per mesh.
        closed_surface: bool per mesh.
        vs_instructions, fs_instructions: int64
            :attr:`~repro.scene.shader.ShaderProgram.instruction_count`
            per vertex and fragment shader.
        fs_max_slot: int64 highest texture slot each fragment shader
            samples, -1 when it samples none.
        fs_sample_offsets: int64, one more entry than there are fragment
            shaders.
        sample_slot: int64 texture slot of each texture sample.
        sample_accesses: int64 ``filter_mode.memory_accesses`` of each
            texture sample.
        sample_trilinear: bool per texture sample, its filter mode is
            trilinear.
        texture_id, texel_bytes, size_bytes: int64 per texture.
    """

    mesh_id: np.ndarray
    vertex_count: np.ndarray
    primitive_count: np.ndarray
    vertex_buffer_bytes: np.ndarray
    bounding_radius: np.ndarray
    closed_surface: np.ndarray
    vs_instructions: np.ndarray
    fs_instructions: np.ndarray
    fs_max_slot: np.ndarray
    fs_sample_offsets: np.ndarray
    sample_slot: np.ndarray
    sample_accesses: np.ndarray
    sample_trilinear: np.ndarray
    texture_id: np.ndarray
    texel_bytes: np.ndarray
    size_bytes: np.ndarray

    @classmethod
    def of(
        cls,
        meshes: Sequence[Mesh],
        vertex_shaders: Sequence[ShaderProgram],
        fragment_shaders: Sequence[ShaderProgram],
        textures: Sequence[Texture],
    ) -> "ResourceColumns":
        """The columns of the given resource tables."""

        def mesh_column(attribute: str, dtype: type) -> np.ndarray:
            return np.array(
                [getattr(mesh, attribute) for mesh in meshes], dtype=dtype
            )

        def texture_column(attribute: str) -> np.ndarray:
            return np.array(
                [getattr(texture, attribute) for texture in textures],
                dtype=np.int64,
            )

        samples = [
            sample for shader in fragment_shaders
            for sample in shader.texture_samples
        ]
        fs_sample_offsets = np.zeros(len(fragment_shaders) + 1, dtype=np.int64)
        np.cumsum(
            [len(shader.texture_samples) for shader in fragment_shaders],
            out=fs_sample_offsets[1:],
        )

        def instructions(shaders: Sequence[ShaderProgram]) -> np.ndarray:
            return np.array(
                [shader.instruction_count for shader in shaders], dtype=np.int64
            )

        return cls(
            mesh_id=mesh_column("mesh_id", np.int64),
            vertex_count=mesh_column("vertex_count", np.int64),
            primitive_count=mesh_column("primitive_count", np.int64),
            vertex_buffer_bytes=mesh_column("vertex_buffer_bytes", np.int64),
            bounding_radius=mesh_column("bounding_radius", np.float64),
            closed_surface=mesh_column("closed_surface", bool),
            vs_instructions=instructions(vertex_shaders),
            fs_instructions=instructions(fragment_shaders),
            fs_max_slot=np.array(
                [
                    max((s.texture_slot for s in shader.texture_samples), default=-1)
                    for shader in fragment_shaders
                ],
                dtype=np.int64,
            ),
            fs_sample_offsets=fs_sample_offsets,
            sample_slot=np.array(
                [sample.texture_slot for sample in samples], dtype=np.int64
            ),
            sample_accesses=np.array(
                [sample.filter_mode.memory_accesses for sample in samples],
                dtype=np.int64,
            ),
            sample_trilinear=np.array(
                [sample.filter_mode is FilterMode.TRILINEAR for sample in samples],
                dtype=bool,
            ),
            texture_id=texture_column("texture_id"),
            texel_bytes=texture_column("texel_bytes"),
            size_bytes=texture_column("size_bytes"),
        )

    def texture_rows(self, texture_ids: np.ndarray) -> np.ndarray:
        """The texture-table row of each of ``texture_ids``.

        Every id must be in the table.  When two textures share an id the
        later one wins, as in a dict built from the table.
        """
        order = np.argsort(self.texture_id, kind="stable")
        found = np.searchsorted(self.texture_id[order], texture_ids, "right")
        return order[found - 1]


def _gather(offsets: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New offsets and the concatenated rows of ``groups`` of a ragged column."""
    starts = offsets[groups]
    counts = offsets[groups + 1] - starts
    new_offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum(counts, out=new_offsets[1:])
    rows = np.arange(new_offsets[-1], dtype=np.int64) + np.repeat(
        starts - new_offsets[:-1], counts
    )
    return new_offsets, rows


def make_table(
    counts: Sequence[int],
    frame_values: Sequence[Sequence],
    draw_values: Sequence[Sequence],
    bindings: Sequence[Sequence[int]],
) -> DrawTable:
    """Build a table from value sequences.

    ``counts`` is the number of draws of each frame, ``frame_values`` and
    ``draw_values`` hold one value sequence per column of
    :data:`FRAME_COLUMNS` and :data:`DRAW_COLUMNS`, and ``bindings`` the
    bound texture ids of each draw.  Raises :class:`TraceError` on values
    of the wrong type or shape; the trace that owns the table checks the
    capture's rules.
    """
    frame_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=frame_offsets[1:])
    texture_offsets = np.zeros(len(bindings) + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in bindings], out=texture_offsets[1:])
    columns = {
        name: _column(values, dtype, kinds, name)
        for (name, dtype, kinds), values in zip(
            FRAME_COLUMNS + DRAW_COLUMNS, [*frame_values, *draw_values]
        )
    }
    for name in ("camera_position", "position"):
        points = columns[name]
        if points.size == 0:
            columns[name] = points.reshape(0, 3)
        elif points.ndim != 2 or points.shape[1] != 3:
            raise TraceError(f"{name} values must be [x, y, z] triples")
    return DrawTable(
        frame_offsets=frame_offsets,
        texture_offsets=texture_offsets,
        texture_ids=_column(
            list(chain.from_iterable(bindings)), np.int64, _INT, "texture_ids"
        ),
        **columns,
    )


def _column(values: Sequence, dtype: type, kinds: str, name: str) -> np.ndarray:
    array = np.array(values)
    if array.size and array.dtype.kind not in kinds:
        raise TraceError(f"{name} values must be numbers, got {array.dtype}")
    return array.astype(dtype)


class DrawTableBuilder:
    """Append frames and draws one at a time, then :meth:`build` the table.

    For producers that emit rows in order (the synthetic generator, the
    CSV capture parser, :meth:`WorkloadTrace.from_frames`); the JSONL
    parser fills whole columns at once instead.
    """

    def __init__(self) -> None:
        self._counts: list[int] = []
        self._frames: list[tuple] = []
        self._draws: list[tuple] = []
        self._bindings: list[Sequence[int]] = []

    def add_frame(
        self,
        position: Sequence[float],
        fov_y_degrees: float,
        orthographic: bool,
        ortho_height: float,
        near: float,
    ) -> None:
        """Start a frame rendered with the given camera."""
        self._counts.append(0)
        self._frames.append(
            (position, fov_y_degrees, orthographic, ortho_height, near)
        )

    def add_draw(
        self,
        mesh: int,
        vertex_shader: int,
        fragment_shader: int,
        texture_ids: Sequence[int],
        position: Sequence[float],
        scale: float,
        instance_count: int,
        overdraw: float,
        opaque: bool,
        depth_layer: int,
    ) -> None:
        """Append a draw to the current frame (``mesh`` is a table row)."""
        self._counts[-1] += 1
        self._draws.append(
            (mesh, vertex_shader, fragment_shader, position, scale,
             instance_count, overdraw, opaque, depth_layer)
        )
        self._bindings.append(texture_ids)

    def build(self) -> DrawTable:
        """The table of everything appended so far."""
        return make_table(
            self._counts,
            list(zip(*self._frames)) or [()] * len(FRAME_COLUMNS),
            list(zip(*self._draws)) or [()] * len(DRAW_COLUMNS),
            self._bindings,
        )

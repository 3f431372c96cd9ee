"""Whole-sequence workload traces.

A :class:`WorkloadTrace` is the Python analogue of the OpenGL command trace
TEAPOT captures from the Android emulator: every resource (shaders, meshes,
textures) plus the per-frame draw call stream for an entire video sequence.
Both the functional and the cycle-accurate simulator consume this object.

The draw call stream is one :class:`~repro.scene.table.DrawTable` of numpy
columns, checked once, vectorised, against the rules of
:class:`~repro.scene.draw.DrawCall` and :class:`~repro.scene.frame.Camera`.
:class:`~repro.scene.frame.Frame` objects are a view built on demand
(:attr:`WorkloadTrace.frames`) for the scalar oracle and tests; production
paths read the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from repro.errors import TraceError
from repro.obs import counter
from repro.scene.draw import DrawCall
from repro.scene.frame import Camera, Frame
from repro.scene.mesh import Mesh, Texture
from repro.scene.shader import FilterMode, ShaderKind, ShaderProgram, TextureSample
from repro.scene.table import (
    DRAW_COLUMNS,
    FRAME_COLUMNS,
    DrawTable,
    DrawTableBuilder,
    ResourceColumns,
    make_table,
)
from repro.scene.vectors import Vec3


@dataclass(frozen=True, eq=False)
class WorkloadTrace:
    """A complete captured video sequence for one benchmark.

    Attributes:
        name: benchmark alias (e.g. ``"bbr1"``).
        vertex_shaders: vertex shader table, indexed by ``shader_id``.
        fragment_shaders: fragment shader table, indexed by ``shader_id``.
        meshes: mesh table; the draw table's ``mesh`` column indexes it.
        textures: texture table, indexed by ``texture_id``.
        draws: every frame's camera and draw calls, in playback order.
    """

    name: str
    vertex_shaders: tuple[ShaderProgram, ...]
    fragment_shaders: tuple[ShaderProgram, ...]
    meshes: tuple[Mesh, ...]
    textures: tuple[Texture, ...]
    draws: DrawTable = field(repr=False)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check internal consistency; raise :class:`TraceError` if broken."""
        table = self.draws
        if table.frame_count == 0:
            raise TraceError(f"trace {self.name!r} contains no frames")
        for shaders, kind in (
            (self.vertex_shaders, ShaderKind.VERTEX),
            (self.fragment_shaders, ShaderKind.FRAGMENT),
        ):
            for index, shader in enumerate(shaders):
                if shader.kind is not kind:
                    raise TraceError(
                        f"shader at index {index} of the {kind.value} table has "
                        f"kind {shader.kind.value}"
                    )
                if shader.shader_id != index:
                    raise TraceError(
                        f"{kind.value} shader at index {index} has shader_id "
                        f"{shader.shader_id}; tables must be densely indexed"
                    )
        # Each check is the rejection predicate of the object rule it
        # mirrors, so NaN is refused or accepted exactly as there.
        fov = table.fov_y_degrees
        _refuse_frame(
            ~((1.0 <= fov) & (fov <= 179.0)), fov,
            "camera fov_y_degrees must be in [1, 179], got {}",
        )
        _refuse_frame(
            table.ortho_height <= 0, table.ortho_height,
            "camera ortho_height must be > 0, got {}",
        )
        _refuse_frame(table.near <= 0, table.near, "camera near must be > 0, got {}")
        _refuse_draw(
            table, (table.mesh < 0) | (table.mesh >= len(self.meshes)),
            table.mesh, "draws mesh row {} outside the mesh table",
        )
        for column, shaders, kind in (
            (table.vertex_shader, self.vertex_shaders, "vertex"),
            (table.fragment_shader, self.fragment_shaders, "fragment"),
        ):
            _refuse_draw(
                table, (column < 0) | (column >= len(shaders)), column,
                f"uses {kind} shader {{}} outside the table",
            )
        _refuse_draw(table, table.scale <= 0, table.scale, "scale must be > 0, got {}")
        _refuse_draw(
            table, table.instance_count < 1, table.instance_count,
            "instance_count must be >= 1, got {}",
        )
        _refuse_draw(
            table, table.overdraw < 1.0, table.overdraw,
            "overdraw must be >= 1, got {}",
        )
        known = np.array([t.texture_id for t in self.textures], dtype=np.int64)
        unknown = np.flatnonzero(~np.isin(table.texture_ids, known))
        if unknown.size:
            binding = int(unknown[0])
            draw = int(np.searchsorted(table.texture_offsets, binding, "right")) - 1
            raise TraceError(
                f"frame {_frame_of_row(table, draw)} binds unknown texture "
                f"{int(table.texture_ids[binding])}"
            )
        max_slot = self.resources.fs_max_slot
        bound = np.diff(table.texture_offsets)
        _refuse_draw(
            table, max_slot[table.fragment_shader] >= bound,
            max_slot[table.fragment_shader],
            "fragment shader samples texture slot {} but fewer textures are bound",
        )

    @property
    def frame_count(self) -> int:
        """Number of frames in the sequence."""
        return self.draws.frame_count

    @cached_property
    def resources(self) -> ResourceColumns:
        """The resource tables' per-row constants, built once."""
        return ResourceColumns.of(
            self.meshes, self.vertex_shaders, self.fragment_shaders,
            self.textures,
        )

    @cached_property
    def frames(self) -> tuple[Frame, ...]:
        """The frames as :class:`Frame` objects, built on first access.

        Only the scalar cycle backend (the reference oracle) and tests
        read this view; every production path reads :attr:`draws`.  Each
        build adds the frame count to the ``scene.frames_built`` counter.
        """
        counter("scene.frames_built", self.frame_count)
        draws = [
            DrawCall(
                mesh=self.meshes[mesh],
                vertex_shader=self.vertex_shaders[vs],
                fragment_shader=self.fragment_shaders[fs],
                texture_ids=tuple(bound),
                position=Vec3(*position),
                scale=scale,
                instance_count=instances,
                overdraw=overdraw,
                opaque=opaque,
                depth_layer=layer,
            )
            for mesh, vs, fs, position, scale, instances, overdraw, opaque,
            layer, bound in _draw_rows(self.draws)
        ]
        return tuple(
            Frame(
                frame_id=index,
                camera=Camera(
                    position=Vec3(*position),
                    fov_y_degrees=fov,
                    orthographic=ortho,
                    ortho_height=height,
                    near=near,
                ),
                draw_calls=tuple(draws[lo:hi]),
            )
            for index, (position, fov, ortho, height, near, lo, hi) in enumerate(
                _frame_rows(self.draws)
            )
        )

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __len__(self) -> int:
        return self.frame_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadTrace):
            return NotImplemented
        return (
            self.name == other.name
            and self.vertex_shaders == other.vertex_shaders
            and self.fragment_shaders == other.fragment_shaders
            and self.meshes == other.meshes
            and self.textures == other.textures
            and self.draws == other.draws
        )

    def __getstate__(self) -> dict:
        # The cached views are rebuilt on demand, never shipped.
        state = dict(self.__dict__)
        state.pop("frames", None)
        state.pop("resources", None)
        return state

    def slice(self, start: int, stop: int) -> "WorkloadTrace":
        """Return a sub-sequence trace covering ``frames[start:stop]``.

        Frame ids are re-based so the slice is itself a valid trace.
        """
        if not 0 <= start < stop <= self.frame_count:
            raise TraceError(
                f"invalid slice [{start}:{stop}] of a {self.frame_count}-frame trace"
            )
        return WorkloadTrace(
            name=f"{self.name}[{start}:{stop}]",
            vertex_shaders=self.vertex_shaders,
            fragment_shaders=self.fragment_shaders,
            meshes=self.meshes,
            textures=self.textures,
            draws=self.draws.take(np.arange(start, stop)),
        )

    @classmethod
    def from_frames(
        cls,
        name: str,
        vertex_shaders: Sequence[ShaderProgram],
        fragment_shaders: Sequence[ShaderProgram],
        meshes: Sequence[Mesh],
        textures: Sequence[Texture],
        frames: Sequence[Frame],
    ) -> "WorkloadTrace":
        """Build a trace from :class:`Frame` objects.

        Frame ids must count up from 0, and every draw's mesh and shaders
        must be entries of the given tables.
        """
        vertex_shaders = tuple(vertex_shaders)
        fragment_shaders = tuple(fragment_shaders)
        meshes = tuple(meshes)
        mesh_rows = {mesh: row for row, mesh in enumerate(meshes)}
        builder = DrawTableBuilder()
        for index, frame in enumerate(frames):
            _check_frame_id(index, frame.frame_id)
            camera = frame.camera
            builder.add_frame(
                camera.position.as_tuple(), camera.fov_y_degrees,
                camera.orthographic, camera.ortho_height, camera.near,
            )
            for dc in frame.draw_calls:
                if dc.mesh not in mesh_rows:
                    raise TraceError(
                        f"frame {index} draws mesh {dc.mesh.mesh_id}, which is "
                        "not in the mesh table"
                    )
                for shader, table in (
                    (dc.vertex_shader, vertex_shaders),
                    (dc.fragment_shader, fragment_shaders),
                ):
                    if not (
                        shader.shader_id < len(table)
                        and table[shader.shader_id] == shader
                    ):
                        raise TraceError(
                            f"frame {index} uses {shader.kind.value} shader "
                            f"{shader.shader_id}, which is not in its table"
                        )
                builder.add_draw(
                    mesh_rows[dc.mesh], dc.vertex_shader.shader_id,
                    dc.fragment_shader.shader_id, dc.texture_ids,
                    dc.position.as_tuple(), dc.scale, dc.instance_count,
                    dc.overdraw, dc.opaque, dc.depth_layer,
                )
        return cls(
            name=name,
            vertex_shaders=vertex_shaders,
            fragment_shaders=fragment_shaders,
            meshes=meshes,
            textures=tuple(textures),
            draws=builder.build(),
        )

    # ------------------------------------------------------------------
    # Serialization.  The dict form is the payload codec of the replayable
    # megsim-workload capture (repro.workloads.replay), the one on-disk
    # form a trace has.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Return a JSON-serializable representation of the trace."""
        return {
            "name": self.name,
            "vertex_shaders": [_shader_to_dict(s) for s in self.vertex_shaders],
            "fragment_shaders": [_shader_to_dict(s) for s in self.fragment_shaders],
            "meshes": [_mesh_to_dict(m) for m in self.meshes],
            "textures": [_texture_to_dict(t) for t in self.textures],
            "frames": self._frame_dicts(),
        }

    def _frame_dicts(self) -> list[dict]:
        mesh_ids = self.resources.mesh_id.tolist()
        draws = [
            {
                "mesh_id": mesh_ids[mesh],
                "vertex_shader": vs,
                "fragment_shader": fs,
                "texture_ids": bound,
                "position": position,
                "scale": scale,
                "instance_count": instances,
                "overdraw": overdraw,
                "opaque": opaque,
                "depth_layer": layer,
            }
            for mesh, vs, fs, position, scale, instances, overdraw, opaque,
            layer, bound in _draw_rows(self.draws)
        ]
        return [
            {
                "frame_id": index,
                "camera": {
                    "position": position,
                    "fov_y_degrees": fov,
                    "orthographic": ortho,
                    "ortho_height": height,
                    "near": near,
                },
                "draw_calls": draws[lo:hi],
            }
            for index, (position, fov, ortho, height, near, lo, hi) in enumerate(
                _frame_rows(self.draws)
            )
        ]

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadTrace":
        """Rebuild a trace from :meth:`to_dict` output.

        The draw table is filled column by column from the frame dicts;
        no per-draw object is built.
        """
        try:
            vertex_shaders = tuple(
                _shader_from_dict(d, ShaderKind.VERTEX)
                for d in payload["vertex_shaders"]
            )
            fragment_shaders = tuple(
                _shader_from_dict(d, ShaderKind.FRAGMENT)
                for d in payload["fragment_shaders"]
            )
            meshes = tuple(_mesh_from_dict(d) for d in payload["meshes"])
            textures = tuple(_texture_from_dict(d) for d in payload["textures"])
            draws = _table_from_dicts(payload["frames"], meshes)
            name = payload["name"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace payload: {exc}") from exc
        return cls(
            name=name,
            vertex_shaders=vertex_shaders,
            fragment_shaders=fragment_shaders,
            meshes=meshes,
            textures=textures,
            draws=draws,
        )


def _draw_rows(table: DrawTable):
    """Each draw's :data:`DRAW_COLUMNS` values, then its bound texture ids."""
    bindings = table.texture_ids.tolist()
    starts = table.texture_offsets.tolist()
    return zip(
        *(getattr(table, name).tolist() for name, _, _ in DRAW_COLUMNS),
        [bindings[lo:hi] for lo, hi in zip(starts, starts[1:])],
    )


def _frame_rows(table: DrawTable):
    """Each frame's :data:`FRAME_COLUMNS` values, then its draw-row bounds."""
    offsets = table.frame_offsets.tolist()
    return zip(
        *(getattr(table, name).tolist() for name, _, _ in FRAME_COLUMNS),
        offsets, offsets[1:],
    )


def _frame_of_row(table: DrawTable, row: int) -> int:
    return int(np.searchsorted(table.frame_offsets, row, "right")) - 1


def _refuse_frame(refused: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise for the first frame whose camera ``refused`` marks."""
    bad = np.flatnonzero(refused)
    if bad.size:
        frame = int(bad[0])
        raise TraceError(f"frame {frame}: {message.format(values[frame])}")


def _refuse_draw(
    table: DrawTable, refused: np.ndarray, values: np.ndarray, message: str
) -> None:
    """Raise for the first draw ``refused`` marks, naming its frame."""
    bad = np.flatnonzero(refused)
    if bad.size:
        row = int(bad[0])
        frame = _frame_of_row(table, row)
        raise TraceError(
            f"frame {frame} draw {row - int(table.frame_offsets[frame])}: "
            f"{message.format(values[row])}"
        )


def _check_frame_id(index: int, frame_id: object) -> None:
    if frame_id != index:
        raise TraceError(
            f"frame at index {index} has frame_id {frame_id}; "
            "frames must be densely indexed"
        )


#: A frame dict's camera fields, in FRAME_COLUMNS order.
_CAMERA_FIELDS = itemgetter(
    "position", "fov_y_degrees", "orthographic", "ortho_height", "near"
)
#: A draw dict's fields, in DRAW_COLUMNS order, then its texture bindings.
_DRAW_FIELDS = itemgetter(
    "mesh_id", "vertex_shader", "fragment_shader", "position", "scale",
    "instance_count", "overdraw", "opaque", "depth_layer", "texture_ids",
)


def _table_from_dicts(frames: list[dict], meshes: tuple[Mesh, ...]) -> DrawTable:
    """Fill a draw table from :meth:`WorkloadTrace.to_dict` frame dicts."""
    for index, frame in enumerate(frames):
        _check_frame_id(index, frame["frame_id"])
    frame_draws = [frame["draw_calls"] for frame in frames]
    counts = [len(draws) for draws in frame_draws]
    cameras = list(zip(*map(_CAMERA_FIELDS, (f["camera"] for f in frames))))
    draws = list(zip(*map(_DRAW_FIELDS, chain.from_iterable(frame_draws))))
    draws = draws or [()] * (len(DRAW_COLUMNS) + 1)
    mesh_rows = {mesh.mesh_id: row for row, mesh in enumerate(meshes)}
    rows = [mesh_rows.get(mesh_id, -1) for mesh_id in draws[0]]
    if -1 in rows:
        draw = rows.index(-1)
        frame = int(np.searchsorted(np.cumsum(counts), draw, "right"))
        raise TraceError(f"frame {frame} draws unknown mesh {draws[0][draw]}")
    return make_table(
        counts,
        cameras or [()] * len(FRAME_COLUMNS),
        [rows, *draws[1:-1]],
        draws[-1],
    )


def _shader_to_dict(shader: ShaderProgram) -> dict:
    return {
        "shader_id": shader.shader_id,
        "alu_instructions": shader.alu_instructions,
        "texture_samples": [
            {"texture_slot": s.texture_slot, "filter_mode": s.filter_mode.name}
            for s in shader.texture_samples
        ],
        "name": shader.name,
    }


def _shader_from_dict(payload: dict, kind: ShaderKind) -> ShaderProgram:
    samples = tuple(
        TextureSample(
            texture_slot=s["texture_slot"],
            filter_mode=FilterMode[s["filter_mode"]],
        )
        for s in payload["texture_samples"]
    )
    return ShaderProgram(
        shader_id=payload["shader_id"],
        kind=kind,
        alu_instructions=payload["alu_instructions"],
        texture_samples=samples,
        name=payload.get("name", ""),
    )


def _mesh_to_dict(mesh: Mesh) -> dict:
    return {
        "mesh_id": mesh.mesh_id,
        "vertex_count": mesh.vertex_count,
        "primitive_count": mesh.primitive_count,
        "vertex_stride_bytes": mesh.vertex_stride_bytes,
        "bounding_radius": mesh.bounding_radius,
        "base_address": mesh.base_address,
        "closed_surface": mesh.closed_surface,
    }


def _mesh_from_dict(payload: dict) -> Mesh:
    return Mesh(**payload)


def _texture_to_dict(texture: Texture) -> dict:
    return {
        "texture_id": texture.texture_id,
        "width": texture.width,
        "height": texture.height,
        "texel_bytes": texture.texel_bytes,
        "base_address": texture.base_address,
    }


def _texture_from_dict(payload: dict) -> Texture:
    return Texture(**payload)

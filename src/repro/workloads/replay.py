"""Trace replay: ingesting externally captured workloads.

The ``megsim-workload v1`` interchange format (documented in
docs/workloads.md) lets any capture tool feed the pipeline.  Two flavors
are accepted:

* **JSONL** (lossless, the canonical flavor): line 1 is a header object
  carrying the schema tag and the resource tables; every following line
  is one frame.  ``megsim export-trace`` writes this flavor, so any
  synthetic run can produce a replayable capture.
* **CSV** (lossy): one row per draw call with inlined shader/mesh/
  texture characteristics.  The loader deduplicates identical resources
  into tables and synthesises deterministic addresses, so a spreadsheet
  of per-draw features becomes a valid trace.

A capture's identity is the content hash of the file's bytes
(:func:`repro.store.fingerprint.payload_digest`): two copies of one
capture are one workload, and editing a frame changes every downstream
stage fingerprint.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError, TraceError
from repro.scene.mesh import Mesh, Texture
from repro.scene.shader import (
    FilterMode,
    ShaderKind,
    ShaderProgram,
    TextureSample,
)
from repro.scene.table import DrawTableBuilder
from repro.scene.trace import WorkloadTrace
from repro.store.fingerprint import payload_digest
from repro.workloads.base import Workload, WorkloadRef

#: Schema tag carried by the JSONL header line.
WORKLOAD_SCHEMA = "megsim-workload"
#: Format version this build reads and writes.
WORKLOAD_SCHEMA_VERSION = 1

#: Column order of the lossy CSV flavor, one row per draw call.
CSV_COLUMNS = (
    "frame", "ortho", "cam_x", "cam_y", "cam_z", "fov_y", "ortho_height",
    "near", "vs_alu", "fs_alu", "fs_samples", "mesh_vertices",
    "mesh_primitives", "mesh_stride", "mesh_radius", "mesh_closed",
    "tex_width", "tex_height", "tex_bytes", "pos_x", "pos_y", "pos_z",
    "draw_scale", "instances", "overdraw", "opaque", "depth_layer",
)

_ADDRESS_ALIGN = 256
_TEXTURE_REGION = 64 * 1024 * 1024


@dataclass(frozen=True)
class TraceReplayWorkload(Workload):
    """A captured workload replayed from a ``megsim-workload`` file.

    The trace is parsed eagerly at construction so that a bad capture
    fails at resolution time, not deep inside the trace stage, and so
    :meth:`build` stays pure.
    """

    name: str
    path: str
    content_digest: str
    trace: WorkloadTrace

    kind = "replay"

    @property
    def key(self) -> str:
        return f"replay:{self.name}"

    def describe(self) -> str:
        return (
            f"replayed capture of {self.trace.name!r} "
            f"({self.trace.frame_count} frames, "
            f"{len(self.trace.meshes)} meshes, "
            f"{len(self.trace.textures)} textures) from {self.path}"
        )

    def fingerprint(self) -> str:
        """Content hash of the capture file (path-independent)."""
        return self.content_digest

    def build(self, scale: float = 1.0) -> WorkloadTrace:
        if scale <= 0 or scale > 1.0:
            raise ConfigError(
                f"replay scale must be in (0, 1], got {scale}"
            )
        if scale == 1.0:
            return self.trace
        frames = max(1, round(self.trace.frame_count * scale))
        return self.trace.slice(0, frames)

    def ref(self) -> WorkloadRef:
        """Pointer carrying the capture path so workers can re-resolve."""
        return WorkloadRef(
            kind=self.kind,
            name=self.key,
            fingerprint=self.fingerprint(),
            path=self.path,
        )


# megsim: ambient(filesystem)
def load_workload_file(
    path: str | Path, name: str | None = None
) -> TraceReplayWorkload:
    """Load a ``megsim-workload v1`` capture (JSONL or CSV).

    Args:
        path: capture file; ``.csv`` selects the lossy CSV flavor, any
            other suffix the JSONL flavor.
        name: registry name override; defaults to the file stem.

    Raises:
        ConfigError: when the file is missing or malformed.
    """
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read workload capture {source}: {exc}") from exc
    return parse_workload_text(
        text,
        name=name or source.stem,
        path=str(source),
        flavor="csv" if source.suffix.lower() == ".csv" else "jsonl",
    )


def parse_workload_text(
    text: str, *, name: str, path: str = "<memory>", flavor: str = "jsonl"
) -> TraceReplayWorkload:
    """Parse capture text into a replay workload (see the module docs)."""
    if flavor == "csv":
        trace = _parse_csv(text, name=name, path=path)
    elif flavor == "jsonl":
        trace = _parse_jsonl(text, path=path)
    else:
        raise ConfigError(f"unknown capture flavor {flavor!r} (jsonl or csv)")
    return TraceReplayWorkload(
        name=name,
        path=path,
        content_digest=payload_digest(text),
        trace=trace,
    )


def export_workload_file(trace: WorkloadTrace, path: str | Path) -> str:
    """Write a trace as a JSONL ``megsim-workload v1`` capture.

    Returns the content digest of the written file, so callers can
    record the capture's identity without re-reading it.
    """
    text = render_workload_text(trace)
    Path(path).write_text(text, encoding="utf-8")
    return payload_digest(text)


def render_workload_text(trace: WorkloadTrace) -> str:
    """Render the JSONL capture text for a trace (deterministic bytes)."""
    payload = trace.to_dict()
    header = {
        "schema": WORKLOAD_SCHEMA,
        "version": WORKLOAD_SCHEMA_VERSION,
        "name": payload["name"],
        "vertex_shaders": payload["vertex_shaders"],
        "fragment_shaders": payload["fragment_shaders"],
        "meshes": payload["meshes"],
        "textures": payload["textures"],
        "frame_count": len(payload["frames"]),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(
        json.dumps(frame, sort_keys=True, separators=(",", ":"))
        for frame in payload["frames"]
    )
    return "\n".join(lines) + "\n"


def _parse_jsonl(text: str, *, path: str) -> WorkloadTrace:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"workload capture {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != WORKLOAD_SCHEMA:
        raise ConfigError(
            f"{path}: not a {WORKLOAD_SCHEMA} capture "
            f"(header schema {header.get('schema') if isinstance(header, dict) else None!r})"
        )
    if header.get("version") != WORKLOAD_SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported {WORKLOAD_SCHEMA} version "
            f"{header.get('version')!r} (this build reads "
            f"v{WORKLOAD_SCHEMA_VERSION})"
        )
    frames = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            frames.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{number}: malformed frame line: {exc}") from exc
    declared = header.get("frame_count")
    if declared is not None and declared != len(frames):
        raise ConfigError(
            f"{path}: header declares {declared} frame(s) but the capture "
            f"contains {len(frames)}"
        )
    payload = {
        "name": header.get("name", "capture"),
        "vertex_shaders": header.get("vertex_shaders", []),
        "fragment_shaders": header.get("fragment_shaders", []),
        "meshes": header.get("meshes", []),
        "textures": header.get("textures", []),
        "frames": frames,
    }
    try:
        return WorkloadTrace.from_dict(payload)
    except TraceError as exc:
        raise ConfigError(f"{path}: invalid capture: {exc}") from exc


def _parse_bool(raw: str, *, path: str, row: int, column: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ConfigError(f"{path}: row {row}: {column} must be boolean, got {raw!r}")


def _parse_csv(text: str, *, name: str, path: str) -> WorkloadTrace:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ConfigError(f"workload capture {path} is empty")
    missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ConfigError(
            f"{path}: CSV capture is missing column(s): {', '.join(missing)}"
        )

    vertex_shaders: dict[int, ShaderProgram] = {}
    fragment_shaders: dict[tuple[int, int], ShaderProgram] = {}
    meshes: dict[tuple, Mesh] = {}
    textures: dict[tuple[int, int, int], Texture] = {}
    mesh_cursor = 0
    texture_cursor = _TEXTURE_REGION
    builder = DrawTableBuilder()
    frame_key: int | None = None

    for number, row in enumerate(reader, start=2):
        try:
            key = int(row["frame"])
            if key != frame_key:
                if frame_key is not None and key < frame_key:
                    raise ConfigError(
                        f"{path}: row {number}: frame ids must be "
                        f"non-decreasing ({key} after {frame_key})"
                    )
                frame_key = key
                builder.add_frame(
                    (
                        float(row["cam_x"]), float(row["cam_y"]),
                        float(row["cam_z"]),
                    ),
                    float(row["fov_y"]),
                    _parse_bool(
                        row["ortho"], path=path, row=number, column="ortho"
                    ),
                    float(row["ortho_height"]),
                    float(row["near"]),
                )

            vs_alu = int(row["vs_alu"])
            if vs_alu not in vertex_shaders:
                vertex_shaders[vs_alu] = ShaderProgram(
                    shader_id=len(vertex_shaders),
                    kind=ShaderKind.VERTEX,
                    alu_instructions=vs_alu,
                    name=f"vs_alu{vs_alu}",
                )
            fs_key = (int(row["fs_alu"]), int(row["fs_samples"]))
            if fs_key not in fragment_shaders:
                samples = tuple(
                    TextureSample(texture_slot=0, filter_mode=FilterMode.BILINEAR)
                    for _ in range(fs_key[1])
                )
                fragment_shaders[fs_key] = ShaderProgram(
                    shader_id=len(fragment_shaders),
                    kind=ShaderKind.FRAGMENT,
                    alu_instructions=fs_key[0],
                    texture_samples=samples,
                    name=f"fs_alu{fs_key[0]}_s{fs_key[1]}",
                )

            mesh_key = (
                int(row["mesh_vertices"]), int(row["mesh_primitives"]),
                int(row["mesh_stride"]), float(row["mesh_radius"]),
                _parse_bool(
                    row["mesh_closed"], path=path, row=number,
                    column="mesh_closed",
                ),
            )
            if mesh_key not in meshes:
                mesh = Mesh(
                    mesh_id=len(meshes),
                    vertex_count=mesh_key[0],
                    primitive_count=mesh_key[1],
                    vertex_stride_bytes=mesh_key[2],
                    bounding_radius=mesh_key[3],
                    base_address=mesh_cursor,
                    closed_surface=mesh_key[4],
                )
                meshes[mesh_key] = mesh
                span = mesh.vertex_buffer_bytes
                mesh_cursor += span + (-span % _ADDRESS_ALIGN)
            tex_key = (
                int(row["tex_width"]), int(row["tex_height"]),
                int(row["tex_bytes"]),
            )
            if tex_key not in textures:
                texture = Texture(
                    texture_id=len(textures),
                    width=tex_key[0],
                    height=tex_key[1],
                    texel_bytes=tex_key[2],
                    base_address=texture_cursor,
                )
                textures[tex_key] = texture
                span = texture.size_bytes
                texture_cursor += span + (-span % _ADDRESS_ALIGN)

            # Meshes are numbered in first-appearance order, so a mesh's
            # id is its row of the mesh table.
            builder.add_draw(
                meshes[mesh_key].mesh_id,
                vertex_shaders[vs_alu].shader_id,
                fragment_shaders[fs_key].shader_id,
                (textures[tex_key].texture_id,),
                (
                    float(row["pos_x"]), float(row["pos_y"]),
                    float(row["pos_z"]),
                ),
                float(row["draw_scale"]),
                int(row["instances"]),
                float(row["overdraw"]),
                _parse_bool(
                    row["opaque"], path=path, row=number, column="opaque"
                ),
                int(row["depth_layer"]),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, TraceError) as exc:
            raise ConfigError(f"{path}: row {number}: {exc}") from exc
    if frame_key is None:
        raise ConfigError(f"{path}: CSV capture contains no draw rows")

    # Dense shader ids were assigned in first-appearance order; re-key the
    # tables into tuples indexed by shader_id.
    vs_table = tuple(
        sorted(vertex_shaders.values(), key=lambda s: s.shader_id)
    )
    fs_table = tuple(
        sorted(fragment_shaders.values(), key=lambda s: s.shader_id)
    )
    try:
        return WorkloadTrace(
            name=name,
            vertex_shaders=vs_table,
            fragment_shaders=fs_table,
            meshes=tuple(sorted(meshes.values(), key=lambda m: m.mesh_id)),
            textures=tuple(
                sorted(textures.values(), key=lambda t: t.texture_id)
            ),
            draws=builder.build(),
        )
    except TraceError as exc:
        raise ConfigError(f"{path}: invalid capture: {exc}") from exc

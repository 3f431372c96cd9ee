"""Synthetic game trace generator.

Turns a :class:`~repro.workloads.specs.GameSpec` into a full
:class:`~repro.scene.trace.WorkloadTrace`:

1. **Resources** — shader tables of the Table II sizes (instruction mixes
   and texture filtering drawn per game type), a mesh pool (closed 3D
   surfaces or flat 2D quads) and a texture pool, all placed in a simulated
   address space.
2. **Archetype templates** — each phase archetype owns a set of draw-call
   templates (mesh + shaders + textures + placement + animation
   parameters).  Shader choices come from per-archetype *theme groups*, so
   different archetypes have distinct VSCV/FSCV signatures — the property
   MEGsim clusters on.
3. **Frames** — the script is played out segment by segment.  Within a
   segment, templates animate smoothly (sinusoidal motion, slow intensity
   drift, small per-frame noise) and occasionally enter/leave the view;
   distinct segments of the same archetype get a small per-segment offset,
   so they cluster together without being identical.

The generator is a single deterministic pass over one seeded RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.scene.frame import Camera
from repro.scene.mesh import Mesh, Texture
from repro.scene.shader import FilterMode, ShaderKind, ShaderProgram, TextureSample
from repro.scene.table import DrawTable, DrawTableBuilder
from repro.scene.trace import WorkloadTrace
from repro.workloads.specs import GameSpec, PhaseSpec

# Address-space layout: resources are placed on megabyte boundaries so
# regions never alias.
_ADDRESS_STRIDE = 1 << 20

# 2D orthographic view height in world units.
_ORTHO_HEIGHT = 10.0


@dataclass(frozen=True, slots=True)
class _Template:
    """One draw-call template owned by a phase archetype."""

    mesh: Mesh
    vertex_shader: ShaderProgram
    fragment_shader: ShaderProgram
    texture_ids: tuple[int, ...]
    base_dx: float
    base_dy: float
    base_distance: float
    base_scale: float
    overdraw: float
    opaque: bool
    depth_layer: int
    instance_base: float
    motion_freq: float
    motion_phase: float
    activity_freq: float
    activity_phase: float
    activity_bias: float


class GameWorkloadGenerator:
    """Generates the synthetic trace of one benchmark."""

    def __init__(self, spec: GameSpec) -> None:
        self.spec = spec

    def generate(self) -> WorkloadTrace:
        """Build the whole trace (deterministic for a given spec)."""
        trace, _ = self.generate_labeled()
        return trace

    def generate_labeled(self) -> tuple[WorkloadTrace, tuple[str, ...]]:
        """Build the trace plus each frame's ground-truth archetype label.

        The labels are the *generator's* truth about which gameplay phase
        produced each frame — the reference a clustering of the frames can
        be scored against (see
        :func:`repro.analysis.phase_recovery.phase_recovery_study`).
        """
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        vertex_shaders = self._make_shaders(rng, ShaderKind.VERTEX)
        fragment_shaders = self._make_shaders(rng, ShaderKind.FRAGMENT)
        meshes = self._make_meshes(rng)
        textures = self._make_textures(rng, base_index=len(meshes))
        vs_groups = self._split_groups(len(vertex_shaders), rng)
        fs_groups = self._split_groups(len(fragment_shaders), rng)
        templates = {
            phase.name: self._make_templates(
                phase, rng, vertex_shaders, fragment_shaders, meshes, textures,
                vs_groups, fs_groups,
            )
            for phase in spec.phases
        }
        draws = self._play_script(rng, templates)
        labels = tuple(
            entry.phase
            for entry in spec.script
            for _ in range(entry.frames)
        )
        trace = WorkloadTrace(
            name=spec.alias,
            vertex_shaders=vertex_shaders,
            fragment_shaders=fragment_shaders,
            meshes=meshes,
            textures=textures,
            draws=draws,
        )
        return trace, labels

    # ------------------------------------------------------------------
    # Resource pools.
    # ------------------------------------------------------------------

    def _make_shaders(
        self, rng: np.random.Generator, kind: ShaderKind
    ) -> tuple[ShaderProgram, ...]:
        spec = self.spec
        if kind is ShaderKind.VERTEX:
            count, mean_alu = spec.vertex_shader_count, spec.vertex_alu
        else:
            count, mean_alu = spec.fragment_shader_count, spec.fragment_alu
        shaders = []
        for shader_id in range(count):
            alu = max(2, int(round(rng.normal(mean_alu, mean_alu * 0.35))))
            samples: tuple[TextureSample, ...] = ()
            if kind is ShaderKind.FRAGMENT:
                n_samples = min(4, rng.poisson(spec.texture_samples))
                modes = self._filter_modes(rng, n_samples)
                samples = tuple(
                    TextureSample(texture_slot=slot, filter_mode=mode)
                    for slot, mode in enumerate(modes)
                )
            shaders.append(
                ShaderProgram(
                    shader_id=shader_id,
                    kind=kind,
                    alu_instructions=alu,
                    texture_samples=samples,
                    name=f"{spec.alias}_{kind.value}{shader_id}",
                )
            )
        return tuple(shaders)

    def _filter_modes(
        self, rng: np.random.Generator, n_samples: int
    ) -> list[FilterMode]:
        # 3D content leans on trilinear mip-mapping; 2D UI/sprites mostly
        # use bilinear.
        if self.spec.game_type == "3D":
            weights = {"LINEAR": 0.1, "BILINEAR": 0.5, "TRILINEAR": 0.4}
        else:
            weights = {"LINEAR": 0.25, "BILINEAR": 0.7, "TRILINEAR": 0.05}
        names = list(weights)
        probabilities = np.array([weights[n] for n in names])
        picks = rng.choice(len(names), size=n_samples, p=probabilities)
        return [FilterMode[names[int(p)]] for p in picks]

    def _make_meshes(self, rng: np.random.Generator) -> tuple[Mesh, ...]:
        spec = self.spec
        meshes = []
        for mesh_id in range(spec.mesh_pool):
            if spec.game_type == "2D":
                # Batched sprite/particle/tile-map quads: 2D engines submit
                # hundreds of quads per draw call.
                quads = int(rng.integers(20, 120))
                vertex_count = 4 * quads
                primitive_count = 2 * quads
                closed = False
                stride = 16  # position + UV
            else:
                vertex_count = max(
                    24, int(rng.lognormal(math.log(spec.mesh_vertices), 0.6))
                )
                primitive_count = int(vertex_count * rng.uniform(1.7, 2.0))
                closed = True
                stride = int(rng.choice([24, 32, 48]))  # pos+normal(+UV/tangent)
            meshes.append(
                Mesh(
                    mesh_id=mesh_id,
                    vertex_count=vertex_count,
                    primitive_count=primitive_count,
                    vertex_stride_bytes=stride,
                    bounding_radius=float(rng.uniform(0.7, 1.3)),
                    base_address=mesh_id * _ADDRESS_STRIDE,
                    closed_surface=closed,
                )
            )
        return tuple(meshes)

    def _make_textures(
        self, rng: np.random.Generator, base_index: int
    ) -> tuple[Texture, ...]:
        spec = self.spec
        textures = []
        for texture_id in range(spec.texture_pool):
            size = int(rng.choice([128, 256, 256, 512, 512, 1024]))
            # Mobile content ships mostly block-compressed textures
            # (ETC/ASTC, ~1 byte/texel); a minority stay uncompressed RGBA8.
            texel_bytes = int(rng.choice([1, 1, 1, 2, 4]))
            textures.append(
                Texture(
                    texture_id=texture_id,
                    width=size,
                    height=size,
                    texel_bytes=texel_bytes,
                    base_address=(base_index + texture_id) * _ADDRESS_STRIDE,
                )
            )
        return tuple(textures)

    def _split_groups(
        self, count: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Partition shader ids into the spec's theme groups (round-robin)."""
        ids = np.arange(count)
        rng.shuffle(ids)
        groups = [ids[g :: self.spec.shader_group_count] for g in range(self.spec.shader_group_count)]
        # Every group must offer at least one shader; tiny tables share.
        return [g if g.size else ids for g in groups]

    # ------------------------------------------------------------------
    # Archetype templates.
    # ------------------------------------------------------------------

    def _make_templates(
        self,
        phase: PhaseSpec,
        rng: np.random.Generator,
        vertex_shaders: tuple[ShaderProgram, ...],
        fragment_shaders: tuple[ShaderProgram, ...],
        meshes: tuple[Mesh, ...],
        textures: tuple[Texture, ...],
        vs_groups: list[np.ndarray],
        fs_groups: list[np.ndarray],
    ) -> tuple[_Template, ...]:
        spec = self.spec
        vs_pool = np.concatenate([vs_groups[g] for g in phase.shader_groups])
        fs_pool = np.concatenate([fs_groups[g] for g in phase.shader_groups])
        # Slightly more templates than the average active draw calls, so the
        # activity gating can vary the per-frame count.
        n_templates = max(2, int(round(phase.draw_calls * 1.2)))
        templates = []
        for layer in range(n_templates):
            mesh = meshes[int(rng.integers(len(meshes)))]
            vs = vertex_shaders[int(rng.choice(vs_pool))]
            fs = fragment_shaders[int(rng.choice(fs_pool))]
            slots = max(
                (s.texture_slot for s in fs.texture_samples), default=-1
            )
            texture_ids = tuple(
                int(rng.integers(len(textures))) for _ in range(slots + 1)
            )
            if spec.game_type == "2D":
                distance = 5.0
                # 2D scale in world units of a 10-unit-high ortho view.
                scale = (
                    float(rng.uniform(0.4, 3.2))
                    * phase.object_scale
                    * spec.footprint_scale
                )
                dx = float(rng.uniform(-4.0, 4.0))
                dy = float(rng.uniform(-3.0, 3.0))
            else:
                distance = float(
                    rng.uniform(0.55, 1.9) * phase.camera_distance
                )
                scale = (
                    float(rng.uniform(0.8, 3.2))
                    * phase.object_scale
                    * spec.footprint_scale
                )
                # Lateral offsets proportional to distance keep objects in
                # the frustum.
                dx = float(rng.uniform(-0.35, 0.35)) * distance
                dy = float(rng.uniform(-0.25, 0.25)) * distance
            templates.append(
                _Template(
                    mesh=mesh,
                    vertex_shader=vs,
                    fragment_shader=fs,
                    texture_ids=texture_ids,
                    base_dx=dx,
                    base_dy=dy,
                    base_distance=distance,
                    base_scale=scale,
                    overdraw=max(1.0, float(rng.normal(phase.overdraw, 0.25))),
                    opaque=bool(rng.random() >= phase.transparent_fraction),
                    depth_layer=layer,
                    instance_base=max(
                        1.0, float(rng.normal(phase.instancing, 0.3))
                    ),
                    motion_freq=float(rng.uniform(0.004, 0.03)),
                    motion_phase=float(rng.uniform(0.0, 1.0)),
                    activity_freq=float(rng.uniform(0.002, 0.012)),
                    activity_phase=float(rng.uniform(0.0, 1.0)),
                    activity_bias=0.0,  # assigned below from the size rank
                )
            )
        # Enter/leave churn is reserved for the smaller props: the main
        # scene (terrain, track, big set pieces) stays on screen for the
        # whole segment, the way real games behave.  Without this, large
        # objects blinking in and out creates combinatorial per-frame
        # states that no single representative can stand for.
        sizes = sorted(t.base_scale for t in templates)
        median_scale = sizes[len(sizes) // 2]
        adjusted = []
        for template in templates:
            if template.base_scale >= median_scale:
                bias = 1.01  # always active
            else:
                bias = 0.95 - 0.35 * phase.motion
            adjusted.append(
                _Template(
                    **{
                        **{f: getattr(template, f) for f in template.__dataclass_fields__},
                        "activity_bias": bias,
                    }
                )
            )
        return tuple(adjusted)

    # ------------------------------------------------------------------
    # Script playback.
    # ------------------------------------------------------------------

    def _play_script(
        self,
        rng: np.random.Generator,
        templates: dict[str, tuple[_Template, ...]],
    ) -> DrawTable:
        spec = self.spec
        camera = (
            Camera(orthographic=True, ortho_height=_ORTHO_HEIGHT)
            if spec.game_type == "2D"
            else Camera(fov_y_degrees=60.0)
        )
        builder = DrawTableBuilder()
        frame_id = 0
        for entry in spec.script:
            phase = spec.phase_by_name(entry.phase)
            phase_templates = templates[entry.phase]
            # Per-segment offsets: revisits of an archetype are similar but
            # not identical.
            segment_shift = float(rng.normal(0.0, 0.04 + 0.04 * phase.motion))
            segment_phase = float(rng.uniform(0.0, 1.0))
            for t in range(entry.frames):
                u = t / max(entry.frames - 1, 1)
                builder.add_frame(
                    camera.position.as_tuple(), camera.fov_y_degrees,
                    camera.orthographic, camera.ortho_height, camera.near,
                )
                self._make_frame(
                    builder,
                    phase,
                    phase_templates,
                    rng,
                    global_t=frame_id,
                    segment_u=u,
                    segment_shift=segment_shift,
                    segment_phase=segment_phase,
                )
                frame_id += 1
        return builder.build()

    def _make_frame(
        self,
        builder: DrawTableBuilder,
        phase: PhaseSpec,
        phase_templates: tuple[_Template, ...],
        rng: np.random.Generator,
        global_t: int,
        segment_u: float,
        segment_shift: float,
        segment_phase: float,
    ) -> None:
        """Append one frame's draws (the frame is already started)."""
        spec = self.spec
        # Slow intensity drift across the segment (load ramps within a
        # gameplay stretch), plus the per-segment shift.
        drift = 1.0 + phase.drift * math.sin(
            math.pi * segment_u + 2.0 * math.pi * segment_phase
        )
        drift *= 1.0 + segment_shift
        drawn = 0
        for template in phase_templates:
            activity = math.sin(
                2.0 * math.pi
                * (global_t * template.activity_freq + template.activity_phase)
            )
            if activity < -template.activity_bias:
                continue  # object currently out of view
            wobble = math.sin(
                2.0 * math.pi
                * (global_t * template.motion_freq + template.motion_phase)
            )
            noise = 1.0 + 0.02 * phase.motion * float(rng.standard_normal())
            scale = template.base_scale * drift * noise
            if spec.game_type == "2D":
                position = (
                    template.base_dx + 1.5 * phase.motion * wobble,
                    template.base_dy + 0.5 * phase.motion * wobble,
                    0.0,
                )
            else:
                distance = template.base_distance * (
                    1.0 - 0.25 * phase.motion * wobble
                ) / drift
                distance = max(distance, 2.0)
                position = (
                    template.base_dx * (1.0 + 0.1 * phase.motion * wobble),
                    template.base_dy,
                    -distance,
                )
            instances = max(
                1, int(round(template.instance_base * drift + 0.3 * wobble))
            )
            # A generated mesh's id is its row of the mesh table.
            builder.add_draw(
                template.mesh.mesh_id,
                template.vertex_shader.shader_id,
                template.fragment_shader.shader_id,
                template.texture_ids,
                position,
                max(scale, 0.05),
                instances,
                template.overdraw,
                template.opaque,
                template.depth_layer,
            )
            drawn += 1
        if not drawn:
            # Degenerate gating (tiny segments): keep at least one call so
            # the frame renders something.
            template = phase_templates[0]
            builder.add_draw(
                template.mesh.mesh_id,
                template.vertex_shader.shader_id,
                template.fragment_shader.shader_id,
                template.texture_ids,
                (0.0, 0.0, -template.base_distance),
                template.base_scale,
                1,
                template.overdraw,
                template.opaque,
                template.depth_layer,
            )

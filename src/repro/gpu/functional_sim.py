"""Functional simulator (Softpipe substitute).

A fast, timing-free pass over a workload trace that produces exactly the
information MEGsim needs (Section III-B of the paper):

* **VSCV** — how many times each vertex shader executed per frame,
* **FSCV** — how many times each fragment shader executed per frame,
* **PRIM** — the number of primitives processed by the Tiling Engine,

plus the per-shader weighted instruction counts (texture samples weighted
2/4/8 by filtering mode) used to scale the count vectors.

It shares the work model with the cycle-accurate simulator, so the two
agree exactly on shader invocation counts — the same property TEAPOT gets
from feeding its timing model with the functional front-end's trace.  The
pass reads the trace's draw table through the model's columnar form
(:func:`~repro.gpu.workmodel.compute_work_columns`): one numpy pass over
every draw of the trace rather than one work record per draw call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.obs import counter, span
from repro.gpu.config import GPUConfig, default_config
from repro.gpu.workmodel import compute_work_columns
from repro.scene.trace import WorkloadTrace


@dataclass(frozen=True)
class FrameProfile:
    """Per-frame characterisation data collected functionally.

    Attributes:
        frame_id: index of the frame in the sequence.
        vs_executions: executions of each vertex shader (length = size of
            the trace's vertex shader table).
        fs_executions: executions of each fragment shader.
        primitives: primitives processed by the Tiling Engine (PRIM).
        vertex_instructions: total vertex shader instructions executed.
        fragment_instructions: total fragment shader instructions executed.
    """

    frame_id: int
    vs_executions: np.ndarray
    fs_executions: np.ndarray
    primitives: int
    vertex_instructions: int
    fragment_instructions: int

    def to_dict(self) -> dict:
        """JSON-serializable representation (for the artifact store)."""
        return {
            "frame_id": self.frame_id,
            "vs_executions": self.vs_executions.tolist(),
            "fs_executions": self.fs_executions.tolist(),
            "primitives": self.primitives,
            "vertex_instructions": self.vertex_instructions,
            "fragment_instructions": self.fragment_instructions,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FrameProfile":
        """Rebuild a profile saved with :meth:`to_dict`."""
        return cls(
            frame_id=payload["frame_id"],
            vs_executions=np.asarray(payload["vs_executions"], dtype=np.int64),
            fs_executions=np.asarray(payload["fs_executions"], dtype=np.int64),
            primitives=payload["primitives"],
            vertex_instructions=payload["vertex_instructions"],
            fragment_instructions=payload["fragment_instructions"],
        )


@dataclass(frozen=True)
class SequenceProfile:
    """Functional profile of a whole sequence: MEGsim's raw input.

    Attributes:
        trace_name: benchmark alias.
        profiles: one :class:`FrameProfile` per frame, in order.
        vertex_shader_weights: weighted instruction count of each vertex
            shader (Section III-B texture weighting).
        fragment_shader_weights: weighted instruction count of each
            fragment shader.
        elapsed_seconds: wall-clock cost of the functional pass.
    """

    trace_name: str
    profiles: tuple[FrameProfile, ...]
    vertex_shader_weights: np.ndarray
    fragment_shader_weights: np.ndarray
    elapsed_seconds: float

    @property
    def frame_count(self) -> int:
        """Number of profiled frames."""
        return len(self.profiles)

    def vscv_matrix(self) -> np.ndarray:
        """Stack raw vertex-shader execution counts into an N x p matrix."""
        return np.stack([p.vs_executions for p in self.profiles])

    def fscv_matrix(self) -> np.ndarray:
        """Stack raw fragment-shader execution counts into an N x q matrix."""
        return np.stack([p.fs_executions for p in self.profiles])

    def prim_vector(self) -> np.ndarray:
        """Per-frame primitive counts as an N-vector."""
        return np.array([p.primitives for p in self.profiles], dtype=np.float64)

    def to_dict(self) -> dict:
        """JSON-serializable representation (for the artifact store)."""
        return {
            "trace_name": self.trace_name,
            "profiles": [profile.to_dict() for profile in self.profiles],
            "vertex_shader_weights": self.vertex_shader_weights.tolist(),
            "fragment_shader_weights": self.fragment_shader_weights.tolist(),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SequenceProfile":
        """Rebuild a profile saved with :meth:`to_dict`."""
        return cls(
            trace_name=payload["trace_name"],
            profiles=tuple(
                FrameProfile.from_dict(entry) for entry in payload["profiles"]
            ),
            vertex_shader_weights=np.asarray(
                payload["vertex_shader_weights"], dtype=np.float64
            ),
            fragment_shader_weights=np.asarray(
                payload["fragment_shader_weights"], dtype=np.float64
            ),
            elapsed_seconds=payload["elapsed_seconds"],
        )


class FunctionalSimulator:
    """Profiles traces without timing state — much faster than cycle sim."""

    def __init__(self, config: GPUConfig | None = None) -> None:
        self.config = config if config is not None else default_config()

    def profile(self, trace: WorkloadTrace) -> SequenceProfile:
        """Profile every frame of ``trace``."""
        if trace.frame_count == 0:
            raise SimulationError("cannot profile an empty trace")
        with span(
            "functional.profile", trace=trace.name, frames=trace.frame_count
        ) as timing:
            draws = trace.draws
            resources = trace.resources
            work = compute_work_columns(draws, resources, self.config)
            frames = draws.frame_count
            vs, fs = draws.vertex_shader, draws.fragment_shader
            frame_of = draws.frame_of()
            vs_exec = np.zeros(
                (frames, len(trace.vertex_shaders)), dtype=np.int64
            )
            fs_exec = np.zeros(
                (frames, len(trace.fragment_shaders)), dtype=np.int64
            )
            np.add.at(vs_exec, (frame_of, vs), work.vertices_shaded)
            np.add.at(fs_exec, (frame_of, fs), work.fragments_shaded)
            primitives = work.frame_sums(work.primitives_binned).tolist()
            vertex_instructions = work.frame_sums(
                work.vertices_shaded * resources.vs_instructions[vs]
            ).tolist()
            fragment_instructions = work.frame_sums(
                work.fragments_shaded * resources.fs_instructions[fs]
            ).tolist()
            profiles = tuple(
                FrameProfile(
                    frame_id=frame,
                    vs_executions=vs_exec[frame],
                    fs_executions=fs_exec[frame],
                    primitives=primitives[frame],
                    vertex_instructions=vertex_instructions[frame],
                    fragment_instructions=fragment_instructions[frame],
                )
                for frame in range(frames)
            )
            counter("functional.frames_profiled", trace.frame_count)
        return SequenceProfile(
            trace_name=trace.name,
            profiles=profiles,
            vertex_shader_weights=np.array(
                [s.weighted_instruction_count for s in trace.vertex_shaders],
                dtype=np.float64,
            ),
            fragment_shader_weights=np.array(
                [s.weighted_instruction_count for s in trace.fragment_shaders],
                dtype=np.float64,
            ),
            elapsed_seconds=timing.elapsed_seconds,
        )

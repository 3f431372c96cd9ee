"""Parallel functional profiling: fan frames out, reassemble in order.

The functional pass is embarrassingly parallel —
:meth:`~repro.gpu.functional_sim.FunctionalSimulator.profile_frames` has
no cross-frame state — so :func:`profile_parallel` slices the trace's
draw table into contiguous chunks, ships each slice to a worker process
as its task, and reassembles the
:class:`~repro.gpu.functional_sim.FrameProfile` list in frame order.
The per-frame profiles are computed by exactly the same code as the
serial pass, so for any jobs value the resulting
:class:`~repro.gpu.functional_sim.SequenceProfile` carries identical
arrays (the determinism contract of ``docs/parallelism.md``); only
``elapsed_seconds``, a wall-clock measurement, varies.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import GPUConfig
from repro.gpu.functional_sim import FrameProfile, FunctionalSimulator, SequenceProfile
from repro.errors import SimulationError
from repro.obs import counter, span
from repro.parallel.config import ParallelConfig, chunk_indices
from repro.parallel.pool import get_state, parallel_map
from repro.scene.trace import WorkloadTrace


def _profile_chunk(chunk: tuple[int, WorkloadTrace]) -> list[FrameProfile]:
    """Worker: profile one slice of the trace, numbered from its start."""
    simulator: FunctionalSimulator = get_state("simulator")
    start, piece = chunk
    return simulator.profile_frames(piece, first_frame=start)


def profile_parallel(
    trace: WorkloadTrace,
    config: GPUConfig | None = None,
    parallel: ParallelConfig | None = None,
) -> SequenceProfile:
    """Profile every frame of ``trace`` across a process pool.

    Args:
        trace: the workload to profile.
        config: GPU configuration; ``None`` uses the Table I baseline.
        parallel: pool configuration; ``None`` or ``jobs=1`` profiles
            serially (identical per-frame output either way).

    Returns:
        The same :class:`SequenceProfile` a serial
        :meth:`FunctionalSimulator.profile` call produces, assembled
        from ordered chunks.

    Raises:
        SimulationError: on an empty trace.
    """
    if trace.frame_count == 0:
        raise SimulationError("cannot profile an empty trace")
    pool_config = parallel if parallel is not None else ParallelConfig()
    simulator = FunctionalSimulator(config)
    chunks = chunk_indices(trace.frame_count, pool_config)
    with span(
        "functional.profile",
        trace=trace.name,
        frames=trace.frame_count,
        jobs=pool_config.jobs,
    ) as timing:
        chunked = parallel_map(
            _profile_chunk,
            [(start, trace.slice(start, stop)) for start, stop in chunks],
            parallel=pool_config,
            state={"simulator": simulator},
        )
        profiles = tuple(profile for chunk in chunked for profile in chunk)
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

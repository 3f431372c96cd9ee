"""Deterministic process-pool execution engine.

``repro.parallel`` turns the pipeline's embarrassingly parallel stages
into pooled fan-outs while guaranteeing that results stay byte-identical
to the serial run (the contract, and how it is kept, is documented in
``docs/parallelism.md``):

* :class:`ParallelConfig` / :func:`resolve_jobs` — one knob for worker
  count (``--jobs`` / ``MEGSIM_JOBS`` / ``"auto"``) and chunking, with a
  serial fallback at ``jobs=1``.
* :func:`parallel_map` — the ordered-merge pool primitive every stage
  builds on; worker observability comes back as
  :class:`~repro.obs.ObsBuffer` and is merged into the parent collector.
* :func:`profile_parallel` — the functional pass, fanned out in frame
  chunks (layer 1 of the pipeline).

Representatives are cycle-simulated in one call by the pipeline's
``representatives`` stage, which the pool does not fan out.
Whole-experiment fan-out (layer 2) lives with the entry points that own
the experiment list: ``megsim all --jobs N`` and
``scripts/run_full_experiments.py --jobs N`` dispatch experiments
through :func:`parallel_map` directly.

Quickstart::

    from repro import MEGsim
    from repro.gpu.cycle_sim import CycleAccurateSimulator
    from repro.parallel import ParallelConfig, profile_parallel
    from repro.workloads.benchmarks import make_benchmark

    trace = make_benchmark("bbr1", scale=0.2)
    jobs = ParallelConfig.from_cli("auto")
    profile = profile_parallel(trace, parallel=jobs)
    plan = MEGsim().plan_from_profile(profile)
    reps = CycleAccurateSimulator().simulate(
        trace, frame_ids=plan.representative_frames)
    estimate = plan.estimate(dict(zip(reps.frame_ids, reps.frame_stats)))
"""

from repro.parallel.config import (
    JOBS_ENV_VAR,
    ParallelConfig,
    available_cpus,
    chunk_indices,
    resolve_jobs,
)
from repro.parallel.functional import profile_parallel
from repro.parallel.pool import get_state, parallel_map

__all__ = [
    "JOBS_ENV_VAR",
    "ParallelConfig",
    "available_cpus",
    "chunk_indices",
    "get_state",
    "parallel_map",
    "profile_parallel",
    "resolve_jobs",
]

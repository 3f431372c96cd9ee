"""Deterministic process-pool execution engine.

``repro.parallel`` fans independent units of work out across a process
pool while guaranteeing that results stay byte-identical to the serial
run (the contract, and how it is kept, is documented in
``docs/parallelism.md``):

* :class:`ParallelConfig` / :func:`resolve_jobs` — one knob for worker
  count (``--jobs`` / ``MEGSIM_JOBS`` / ``"auto"``), with a serial
  fallback at ``jobs=1``.
* :func:`parallel_map` — the ordered-merge pool primitive; worker
  observability comes back as :class:`~repro.obs.ObsBuffer` and is
  merged into the parent collector.

Three entry points own a fan-out, each over a list it already holds:
``megsim all`` dispatches the paper campaign's steps, ``megsim bench``
its benchmark specs and ``megsim serve`` each wave of stage jobs.  The
functional profile is not fanned out: one vectorised pass over the
trace's draw table is cheaper than shipping slices to workers.

Quickstart::

    from repro.parallel import ParallelConfig, get_state, parallel_map

    def scaled(item):
        return item * get_state("factor")

    jobs = ParallelConfig.from_cli("auto")
    assert parallel_map(scaled, [1, 2, 3], parallel=jobs,
                        state={"factor": 2}) == [2, 4, 6]
"""

from repro.parallel.config import (
    JOBS_ENV_VAR,
    ParallelConfig,
    available_cpus,
    resolve_jobs,
)
from repro.parallel.pool import get_state, parallel_map

__all__ = [
    "JOBS_ENV_VAR",
    "ParallelConfig",
    "available_cpus",
    "get_state",
    "parallel_map",
    "resolve_jobs",
]

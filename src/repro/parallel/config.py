"""Parallel execution configuration: worker count and chunking.

One :class:`ParallelConfig` drives every pooled stage of the pipeline
(functional profiling, whole-experiment fan-out).  ``jobs=1`` is the serial fallback — the pool machinery is
bypassed entirely and work runs inline, which is also the reference
point of the determinism contract (see ``docs/parallelism.md``): for any
jobs value the merged results are byte-identical to the ``jobs=1`` run.

Worker-count resolution mirrors the CLI surface: an explicit ``--jobs``
value wins, then the ``MEGSIM_JOBS`` environment variable, then the
serial default of 1.  The string ``"auto"`` means "every CPU this
process may run on".
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigError

#: Environment variable consulted when no explicit jobs value is given.
JOBS_ENV_VAR = "MEGSIM_JOBS"


def available_cpus() -> int:
    """CPUs this process may schedule on (``jobs="auto"`` resolves here)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux fallback
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Resolve a jobs request to a concrete positive worker count.

    Args:
        jobs: ``None`` (consult :data:`JOBS_ENV_VAR`, default 1), the
            string ``"auto"`` (use :func:`available_cpus`), or a positive
            integer (possibly as a string, as argparse delivers it).

    Raises:
        ConfigError: on a non-positive or unparsable jobs value.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR)
        if env is None or env.strip() == "":
            return 1
        jobs = env
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return available_cpus()
        try:
            jobs = int(text)
        except ValueError:
            raise ConfigError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}"
            ) from None
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigError(
            f"jobs must be a positive integer or 'auto', got {jobs!r}"
        )
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True, slots=True)
class ParallelConfig:
    """How a pooled stage distributes its work.

    Attributes:
        jobs: worker processes; 1 means run serially in-process.
        chunk_size: items per dispatched task.  ``None`` picks a size
            that gives each worker a few tasks for load balancing
            (see :func:`chunk_indices`).
    """

    jobs: int = 1
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.jobs, bool) or not isinstance(self.jobs, int):
            raise ConfigError(f"jobs must be an int, got {self.jobs!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigError(
                f"chunk_size must be >= 1 or None, got {self.chunk_size}"
            )

    @classmethod
    def from_cli(
        cls, jobs: int | str | None = None, chunk_size: int | None = None
    ) -> "ParallelConfig":
        """Build a config from a raw ``--jobs`` value (or the environment)."""
        return cls(jobs=resolve_jobs(jobs), chunk_size=chunk_size)


def chunk_indices(
    count: int, parallel: ParallelConfig
) -> list[tuple[int, int]]:
    """Split ``range(count)`` into ordered, contiguous ``(start, stop)`` chunks.

    With an explicit ``chunk_size`` every chunk (except possibly the
    last) has that size; otherwise the default gives each worker about
    four chunks, which balances load without drowning the pool in tiny
    tasks.  Concatenating the chunks in list order always reproduces
    ``range(count)`` — the property the ordered merges rely on.
    """
    if count <= 0:
        return []
    size = parallel.chunk_size
    if size is None:
        size = max(1, -(-count // (parallel.jobs * 4)))
    return [(start, min(start + size, count)) for start in range(0, count, size)]

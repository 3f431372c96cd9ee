"""Scaling of the parallel execution engine (docs/parallelism.md).

Measures the pooled functional profiling pass at 1, 2 and 4 workers on
a >=512-frame trace, and records the speedups in
``benchmarks/reports/parallel_scaling.txt``.

The >=2x-at-4-workers claim is asserted only when the host actually has
four CPUs to run on (``available_cpus()``); on smaller machines the
numbers are still measured and recorded, without the claim.
"""

from __future__ import annotations

import pytest

from repro.obs import span
from repro.parallel import ParallelConfig, available_cpus, profile_parallel
from repro.workloads.benchmarks import make_benchmark

#: Worker counts measured (1 is the serial reference).
WORKER_COUNTS = (1, 2, 4)
#: Timing repetitions per configuration; the best round is kept.
ROUNDS = 3


@pytest.fixture(scope="module")
def trace():
    # hcr at scale 1.0 has 2000 frames; 0.26 keeps the phase structure
    # at 520 frames — above the 512-frame floor, minutes not hours.
    workload = make_benchmark("hcr", scale=0.26)
    assert workload.frame_count >= 512
    return workload


def _best_seconds(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        with span("bench.parallel_round") as timing:
            fn()
        best = min(best, timing.elapsed_seconds)
    return best


def _scaling_table(timings: dict[int, float]) -> list[str]:
    serial = timings[1]
    lines = ["functional profile:"]
    for jobs in WORKER_COUNTS:
        speedup = serial / timings[jobs] if timings[jobs] > 0 else float("inf")
        lines.append(
            f"  jobs={jobs}: {timings[jobs] * 1e3:8.1f} ms   "
            f"speedup {speedup:4.2f}x"
        )
    return lines


def test_parallel_scaling(trace, report_sink):
    cpus = available_cpus()
    profile_times = {
        jobs: _best_seconds(
            lambda jobs=jobs: profile_parallel(
                trace, parallel=ParallelConfig(jobs=jobs)
            )
        )
        for jobs in WORKER_COUNTS
    }

    lines = [
        "Parallel scaling (docs/parallelism.md)",
        f"trace: {trace.name}, {trace.frame_count} frames; "
        f"{cpus} CPU(s) available; best of {ROUNDS} rounds",
        "",
    ]
    lines += _scaling_table(profile_times)
    report_sink("parallel_scaling", "\n".join(lines))

    # Sanity either way: the pooled path completed and was timed.
    assert all(seconds > 0 for seconds in profile_times.values())
    if cpus >= 4:
        assert profile_times[1] / profile_times[4] >= 2.0

"""Benchmark harness configuration.

Each ``bench_*`` file regenerates one table or figure of the paper.  The
sequence-length scale is controlled with the ``MEGSIM_BENCH_SCALE``
environment variable (default 0.2: every benchmark keeps its full phase
structure at a fifth of the Table II frame counts, so the suite completes
in minutes).  Set ``MEGSIM_BENCH_SCALE=1.0`` to regenerate the paper-scale
numbers recorded in EXPERIMENTS.md.

Reports are printed to stdout (run with ``-s`` to see them) and written to
``benchmarks/reports/<name>.txt``.  A session-wide observability collector
(``repro.obs``) gathers every span/counter the instrumented pipeline emits
and writes a timing summary to ``benchmarks/reports/obs_summary.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

# Imported as a module: a ``pytest_``-prefixed name at conftest scope
# would be validated (and rejected) as a pytest hook.
from repro import benchmark_support
from repro.obs import Collector, render_report, set_collector

REPORT_DIR = Path(__file__).parent / "reports"


def bench_scale() -> float:
    """The sequence-length scale for this benchmark run."""
    return benchmark_support.pytest_bench_scale()


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session", autouse=True)
def obs_collector():
    """Collect spans/counters for the whole session; write the summary."""
    collector = Collector()
    set_collector(collector)
    yield collector
    set_collector(None)
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "obs_summary.txt").write_text(
        render_report(collector) + "\n"
    )


@pytest.fixture(scope="session")
def report_sink():
    """Write an experiment report to stdout and benchmarks/reports/."""
    REPORT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        print()
        print(text)
        (REPORT_DIR / f"{name}.txt").write_text(text + "\n")

    return write

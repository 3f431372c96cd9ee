"""Benchmark harness: registry, suite runner and regression comparison.

``repro.bench`` is the performance-telemetry counterpart of the
experiment pipeline (``megsim bench`` on the command line):

* :data:`BENCHES` / :class:`BenchSpec` / :class:`BenchOutcome` — the
  registry of named, parameterized benchmarks wrapping the paper's
  experiments, plus the per-suite default scales :data:`SUITE_SCALES` /
  :func:`suite_scale` (:mod:`repro.bench.registry`).
* :func:`run_suite` / :func:`write_artifact` /
  :func:`render_bench_report` — run a suite (``smoke`` or ``full``) and
  emit a schema-versioned ``BENCH_<suite>.json`` artifact
  (:func:`artifact_name`) whose
  deterministic *results* section is byte-identical for any ``--jobs``
  value (:mod:`repro.bench.harness`).
* :func:`compare_artifacts` / :func:`regressions` /
  :func:`render_comparison` / :func:`load_artifact` — gate a fresh
  artifact against a checked-in baseline; accuracy and work-count
  regressions always fail, wall-time regressions fail on matching
  platforms (:mod:`repro.bench.compare`).

Quickstart::

    from repro.bench import compare_artifacts, regressions, run_suite

    artifact = run_suite("smoke")
    deltas = compare_artifacts(artifact, baseline, threshold=1.15)
    assert not regressions(deltas)

See ``docs/benchmarking.md`` for the artifact schema and the CI gate.
"""

from repro.bench.compare import (
    DEFAULT_THRESHOLD,
    Delta,
    compare_artifacts,
    load_artifact,
    regressions,
    render_comparison,
)
from repro.bench.harness import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    artifact_name,
    render_bench_report,
    run_suite,
    write_artifact,
)
from repro.bench.registry import (
    BENCHES,
    SUITE_SCALES,
    SUITES,
    BenchOutcome,
    BenchSpec,
    bench_names,
    suite_scale,
)

__all__ = [
    "BENCHES",
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "BenchOutcome",
    "BenchSpec",
    "DEFAULT_THRESHOLD",
    "Delta",
    "SUITES",
    "SUITE_SCALES",
    "artifact_name",
    "bench_names",
    "compare_artifacts",
    "load_artifact",
    "regressions",
    "render_bench_report",
    "render_comparison",
    "run_suite",
    "suite_scale",
    "write_artifact",
]

"""The ``megsim bench`` execution engine: run a suite, emit an artifact.

:func:`run_suite` runs every registered benchmark of a suite (through
:func:`~repro.parallel.parallel_map`, so ``--jobs N`` fans specs out
across workers) and assembles a schema-versioned ``BENCH_<suite>.json``
artifact.  The artifact keeps two kinds of content strictly apart:

* **results** — histogram aggregates, accuracy deltas vs. full
  simulation and work counters.  These are deterministic: byte-identical
  for any worker count and across reruns on any machine (the property
  the regression tests pin down).
* **timing** — wall-clock seconds per benchmark and per phase, plus
  speedup figures.  Only comparable between artifacts produced on the
  same platform; ``repro.bench.compare`` gates on them accordingly.

Determinism mechanics: each spec runs inside a private, cold
:func:`repro.store.memory_store` scope, so its span tree, counters and
histogram samples do not depend on which specs ran earlier in the same
process or on the state of the user's persistent store — the serial
inline path and a fresh pool worker execute identical work.  With
``warm=True`` (the CLI's ``--warm``) specs instead share the
process-wide store (:func:`repro.store.get_store`), which measures the
incremental cost of a suite over a populated ``MEGSIM_STORE``; its
*work counters* then legitimately depend on the store's contents, while
``results.metrics``/``results.accuracy``/``results.info`` stay
byte-identical either way.  Per-benchmark distributions are recorded
under namespaced histogram names (``<bench>/<metric>``), which makes
the cross-worker registry merge a disjoint-name union.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.registry import BENCHES, bench_names, suite_scale
from repro.core.sampler import MEGsimOptions
from repro.errors import ConfigError
from repro.gpu.config import CYCLE_BACKENDS, cycle_scope
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    Span,
    capture_buffer,
    collecting,
    get_collector,
    merge_buffer,
    span,
)
from repro.parallel import ParallelConfig, get_state, parallel_map
from repro.store import get_store, memory_store, store_scope

#: Schema tag of every ``BENCH_*.json`` artifact.
BENCH_SCHEMA = "megsim-bench"

#: Bumped whenever the artifact layout changes incompatibly;
#: :func:`repro.bench.compare.load_artifact` refuses mismatches.
BENCH_SCHEMA_VERSION = 1


def _subtree_counters(record: Span) -> dict[str, float]:
    """Counter totals over a completed span subtree, sorted by name."""
    totals: dict[str, float] = {}

    def visit(node: Span) -> None:
        for name, value in node.counters.items():
            totals[name] = totals.get(name, 0.0) + value
        for child in node.children:
            visit(child)

    visit(record)
    return {name: totals[name] for name in sorted(totals)}


def _subtree_timings(record: Span) -> list[dict]:
    """Per-span-name timing rows over a completed span subtree."""
    rows: dict[str, dict] = {}

    def visit(node: Span) -> None:
        row = rows.setdefault(
            node.name, {"count": 0, "total_seconds": 0.0}
        )
        row["count"] += 1
        row["total_seconds"] += node.elapsed_seconds
        for child in node.children:
            visit(child)

    visit(record)
    return [
        {"name": name, **rows[name]} for name in sorted(rows)
    ]


def _run_spec(name: str) -> dict:
    """Run one registered benchmark; returns its artifact section.

    This is the :func:`~repro.parallel.parallel_map` worker: the same
    function runs inline at ``jobs=1`` and in pool workers at
    ``jobs>1``, reading the suite scale from the shared worker state.
    """
    spec = BENCHES[name]
    scale = float(get_state("scale"))
    warm = bool(get_state("warm"))
    backend = get_state("backend")
    # Cold, private store per spec by default: the section below must
    # not depend on which specs this process happened to run earlier,
    # nor on what a previous session left in MEGSIM_STORE.  Warm runs
    # deliberately share the persistent store instead.
    store = get_store() if warm else memory_store()
    with store_scope(store):
        with cycle_scope(backend):
            with span(f"bench.{name}", benchmark=name, scale=scale) as timing:
                _, outcome = spec.run(scale)

    local = MetricsRegistry()
    metrics: dict[str, dict] = {}
    for metric in sorted(outcome.metrics):
        hist = local.histogram(f"{name}/{metric}")
        for sample in outcome.metrics[metric]:
            hist.record(sample)
        metrics[metric] = {
            "aggregates": hist.aggregates(),
            "state": hist.to_dict(),
        }
    collector = get_collector()
    if collector is not None:
        collector.absorb_metrics(local.state())

    return {
        "experiment": spec.experiment,
        "description": spec.description,
        "params": dict(spec.params),
        "results": {
            "metrics": metrics,
            "accuracy": {
                key: outcome.accuracy[key] for key in sorted(outcome.accuracy)
            },
            "counters": _subtree_counters(timing),
            "info": outcome.info,
        },
        "timing": {
            "wall_seconds": timing.elapsed_seconds,
            "phases": _subtree_timings(timing),
            "timing_info": dict(outcome.timing_info),
        },
    }


def run_suite(
    suite: str,
    *,
    scale: float | None = None,
    parallel: ParallelConfig | None = None,
    names: list[str] | None = None,
    jobs_requested: int | str | None = None,
    warm: bool = False,
    backend: str | None = None,
) -> dict:
    """Run a benchmark suite and return the artifact dictionary.

    Args:
        suite: suite name (``"smoke"`` or ``"full"``).
        scale: sequence-length scale; ``None`` uses the suite default
            (:func:`repro.bench.registry.suite_scale`).
        parallel: worker-pool configuration; ``None`` runs serially.
        names: explicit benchmark subset; ``None`` runs the whole suite.
        jobs_requested: the raw ``--jobs`` request, recorded in the
            manifest alongside the resolved count.
        warm: share the process-wide artifact store across specs (the
            CLI's ``--warm``) instead of giving each spec a cold,
            private one; see the module docstring for the trade-off.
        backend: cycle-simulation backend for every spec (the CLI's
            ``--backend``); threaded through the worker state so pool
            workers see it too.  ``None`` keeps each worker's ambient
            default (scalar).

    Returns:
        The artifact as a plain dictionary (see the module docstring for
        the results/timing split); :func:`write_artifact` serializes it.

    Raises:
        ConfigError: on an unknown suite or benchmark name.
    """
    selected = list(names) if names is not None else bench_names(suite)
    for name in selected:
        if name not in BENCHES:
            raise ConfigError(
                f"unknown benchmark {name!r}; available: "
                f"{', '.join(BENCHES)}"
            )
    if backend is not None and backend not in CYCLE_BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; available: "
            f"{', '.join(CYCLE_BACKENDS)}"
        )
    resolved_scale = suite_scale(suite, scale)
    config = parallel if parallel is not None else ParallelConfig()
    manifest = RunManifest.begin(
        command=("bench", suite),
        experiment=f"bench.{suite}",
        scale=resolved_scale,
        seed=MEGsimOptions().seed,
        config={
            "suite": suite,
            "benchmarks": list(selected),
            "warm": warm,
            "backend": backend,
        },
    )
    manifest.record_jobs(jobs_requested, config.jobs)

    # The suite runs under its own collector so the artifact's registry
    # holds exactly this run's histograms; the whole buffer is folded
    # into any outer collector afterwards, keeping --trace complete.
    outer = get_collector()
    with collecting() as collector:
        with span(
            f"bench.suite.{suite}", suite=suite, scale=resolved_scale
        ) as total:
            sections = parallel_map(
                _run_spec,
                selected,
                parallel=config,
                state={"scale": resolved_scale, "warm": warm, "backend": backend},
            )
        manifest.finish(collector)
        registry = {
            name: {
                "aggregates": collector.metrics.histogram(name).aggregates(),
                "state": state,
            }
            for name, state in collector.metrics.state().items()
        }
    if outer is not None:
        merge_buffer(outer, capture_buffer(collector))

    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "scale": resolved_scale,
        "benchmarks": dict(zip(selected, sections)),
        "metrics": registry,
        "total_wall_seconds": total.elapsed_seconds,
        "manifest": manifest.to_dict(),
    }


def artifact_name(suite: str) -> str:
    """Canonical artifact file name for a suite (``BENCH_<suite>.json``)."""
    return f"BENCH_{suite}.json"


def write_artifact(artifact: dict, path) -> Path:
    """Write an artifact as sorted, indented JSON; returns the path."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )
    return target


def render_bench_report(artifact: dict) -> str:
    """Human-readable summary of one artifact (the CLI's stdout)."""
    manifest = artifact.get("manifest", {})
    jobs = manifest.get("jobs", {}).get("resolved")
    lines = [
        f"bench suite {artifact['suite']!r}: "
        f"{len(artifact['benchmarks'])} benchmarks at scale "
        f"{artifact['scale']:g}, "
        f"{artifact['total_wall_seconds']:.2f}s"
        + (f" across {jobs} worker(s)" if jobs else ""),
        f"fingerprint {manifest.get('fingerprint', '?')}",
    ]
    for name, section in artifact["benchmarks"].items():
        wall = section["timing"]["wall_seconds"]
        parts = []
        for metric, payload in section["results"]["metrics"].items():
            aggregates = payload["aggregates"]
            parts.append(f"{metric} p50={aggregates['p50']:.4g}")
        for key, value in section["results"]["accuracy"].items():
            parts.append(f"{key}={value:.4g}")
        detail = f"  [{', '.join(parts)}]" if parts else ""
        lines.append(f"  {name:<10s} {wall:8.2f}s{detail}")
    return "\n".join(lines)

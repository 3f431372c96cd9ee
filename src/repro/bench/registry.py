"""The benchmark registry: named, parameterized, suite-tagged specs.

Each :class:`BenchSpec` wraps one experiment of the paper's evaluation
(the same logic a ``megsim all`` campaign step runs) and knows how to
distil its :class:`~repro.analysis.experiments.ExperimentResult`
into a :class:`BenchOutcome` — the split between what is *deterministic*
(histogram samples, accuracy deltas, work counts: byte-comparable across
runs and worker counts) and what is *timing* (wall-clock facts, only
comparable on the same machine).

The registry is module-level and keyed by name so pool workers can be
handed a spec name instead of a pickled callable; `megsim bench --list`
prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.experiments import CLAIMS, ExperimentResult, run_experiment
from repro.errors import AnalysisError, ConfigError
from repro.gpu.stats import KEY_METRICS

#: The suites a spec can belong to.
SUITES = ("smoke", "full")

#: Experiments whose :data:`~repro.analysis.experiments.CLAIMS` are
#: correctness checks that hold at any scale (the accuracy envelope on
#: hostile phase scripts, bit-identical backends); a bench run fails
#: when one of them fails.  The other experiments' paper-shape claims are
#: tuned for the campaign scales 0.2 and 1.0, not the 0.05 smoke suite.
GATED_EXPERIMENTS = frozenset({"adversarial", "backend_compare"})

#: Default sequence-length scale per suite: ``smoke`` finishes in well
#: under a minute, ``full`` matches the paper campaign's quick scale
#: (``megsim all --scale 0.2``).
SUITE_SCALES: dict[str, float] = {"smoke": 0.05, "full": 0.2}


def suite_scale(suite: str, override: float | None = None) -> float:
    """The sequence-length scale for one ``megsim bench`` run.

    An explicit ``--scale`` override wins; otherwise the suite default
    from :data:`SUITE_SCALES` applies (1.0 for unknown suites).
    """
    if override is not None:
        return float(override)
    return SUITE_SCALES.get(suite, 1.0)


@dataclass(frozen=True)
class BenchOutcome:
    """The distilled, artifact-ready outputs of one benchmark run.

    Attributes:
        metrics: ``metric -> samples`` fed into per-benchmark histograms
            (namespaced ``<bench>/<metric>`` in the registry).  Must be
            deterministic, finite and non-negative.
        accuracy: deterministic accuracy deltas vs. full simulation
            (relative errors); what ``--compare`` gates hardest.
        info: free-form deterministic scalars worth recording.
        timing_info: wall-clock-derived values (speedups, seconds) —
            excluded from every byte-identity comparison.
    """

    metrics: dict[str, list[float]] = field(default_factory=dict)
    accuracy: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    timing_info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchSpec:
    """One named benchmark: an experiment plus its outcome extractor.

    Attributes:
        name: registry key and artifact section name.
        experiment: :data:`~repro.analysis.experiments.EXPERIMENTS` key.
        suites: which suites include this benchmark.
        description: one line for ``megsim bench --list``.
        params: extra keyword arguments for the experiment (recorded in
            the artifact, so parameterized variants are attributable).
        scaled: whether the experiment accepts a ``scale`` argument.
        extract: ``ExperimentResult -> BenchOutcome``.
    """

    name: str
    experiment: str
    suites: tuple[str, ...]
    description: str
    params: dict = field(default_factory=dict)
    scaled: bool = True
    extract: Callable[[ExperimentResult], BenchOutcome] = (
        lambda result: BenchOutcome()
    )

    def run(self, scale: float) -> tuple[ExperimentResult, BenchOutcome]:
        """Run the wrapped experiment and distil its outcome.

        Raises:
            AnalysisError: when the experiment is in
                :data:`GATED_EXPERIMENTS` and one of its claims failed.
        """
        kwargs = dict(self.params)
        if self.scaled:
            kwargs["scale"] = scale
        result = run_experiment(self.experiment, **kwargs)
        if self.experiment in GATED_EXPERIMENTS:
            failed = CLAIMS[self.experiment](result.data, scale)
            if failed:
                raise AnalysisError(f"{self.name}: " + "; ".join(failed))
        return result, self.extract(result)


# ----------------------------------------------------------------------
# Extractors: ExperimentResult.data -> BenchOutcome.
# ----------------------------------------------------------------------

def _per_alias(data: dict) -> dict:
    """The per-benchmark-alias rows of an experiment's data dict."""
    return {alias: row for alias, row in data.items()
            if isinstance(row, dict)}


def _extract_table2(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={
            "ipc": [row["ipc"] for row in rows.values()],
            "cycles_millions": [row["cycles_millions"]
                                for row in rows.values()],
        },
        info={"benchmarks": len(rows)},
    )


def _extract_fig3(result: ExperimentResult) -> BenchOutcome:
    per = result.data["per_benchmark"]
    return BenchOutcome(
        # Shader-count correlations are expected in [0, 1]; PRIM's
        # Pearson r can be negative, so it stays out of the histograms,
        # and the clamp keeps a pathological anti-correlation from
        # violating the histograms' non-negative domain.
        metrics={"correlation_shaders": [max(0.0, row["shaders"])
                                         for row in per.values()]},
        info={"average": result.data["average"]},
    )


def _extract_fig4(result: ExperimentResult) -> BenchOutcome:
    per = result.data["per_benchmark"]
    geometry, raster, tiling = result.data["average"]
    return BenchOutcome(
        metrics={
            "power_fraction_geometry": [r["geometry"] for r in per.values()],
            "power_fraction_raster": [r["raster"] for r in per.values()],
            "power_fraction_tiling": [r["tiling"] for r in per.values()],
        },
        info={"average_geometry": geometry, "average_raster": raster,
              "average_tiling": tiling},
    )


def _extract_fig5(result: ExperimentResult) -> BenchOutcome:
    return BenchOutcome(
        info={"alias": result.data["alias"],
              "frames_analysed": result.data["frames"]},
    )


def _extract_fig6(result: ExperimentResult) -> BenchOutcome:
    return BenchOutcome(
        metrics={"chosen_k": [float(result.data["k"])]},
        info={"alias": result.data["alias"],
              "frames_analysed": result.data["frames"],
              "chosen_k": result.data["k"]},
    )


def _extract_table3(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={
            "reduction": [row["reduction"] for row in rows.values()],
            "megsim_frames": [float(row["megsim_frames"])
                              for row in rows.values()],
        },
        info={"average_reduction": result.data["average_reduction"]},
    )


def _extract_fig7(result: ExperimentResult) -> BenchOutcome:
    per = result.data["per_benchmark"]
    average = result.data["average"]
    return BenchOutcome(
        metrics={"rel_error": [row[metric] for row in per.values()
                               for metric in KEY_METRICS]},
        accuracy={f"rel_error.{metric}": average[metric]
                  for metric in KEY_METRICS},
    )


def _extract_table4(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={
            "reduction": [row["reduction"] for row in rows.values()],
            "megsim_frames": [row["megsim_frames"]
                              for row in rows.values()],
        },
        accuracy={"megsim_error_95": sum(
            row["megsim_error_95"] for row in rows.values()
        ) / len(rows)},
        info={"average_reduction": result.data["average_reduction"]},
    )


def _extract_speedup(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={"frame_reduction": [row["frame_reduction"]
                                     for row in rows.values()]},
        timing_info={
            "overall_speedup": result.data["overall_speedup"],
            "per_benchmark_speedup": {alias: row["speedup"]
                                      for alias, row in rows.items()},
        },
    )


def _extract_adversarial(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={
            "max_rel_error": [row["max_rel_error"] for row in rows.values()],
            "reduction": [row["reduction"] for row in rows.values()],
        },
        # The worst key-metric error across the whole catalog: the value
        # --compare gates, so an accuracy collapse on hostile phase
        # structure regresses the suite even inside the hard envelope.
        accuracy={"adversarial.max_rel_error": result.data["max_rel_error"]},
        info={"envelope": result.data["envelope"]},
    )


def _extract_backend_compare(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={"frames_checked": [float(row["frames_checked"])
                                    for row in rows.values()]},
        # 1.0 when every benchmark's FrameStats matched bit for bit; the
        # run raises before getting here otherwise, so any value
        # below 1.0 in an artifact marks a partially-written run.
        accuracy={"parity.identical": float(
            all(row["identical"] for row in rows.values())
        )},
        timing_info={
            "vector_speedup": {alias: row["speedup"]
                               for alias, row in rows.items()},
        },
    )


#: The shipped registry, in run order.
BENCHES: dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec(
            name="table2", experiment="table2", suites=("full",),
            description="Table II: per-benchmark cycles and IPC",
            extract=_extract_table2,
        ),
        BenchSpec(
            name="fig3", experiment="fig3", suites=("full",),
            description="Figure 3: input-parameter correlation with cycles",
            extract=_extract_fig3,
        ),
        BenchSpec(
            name="fig4", experiment="fig4", suites=("full",),
            description="Figure 4: per-phase power fractions",
            extract=_extract_fig4,
        ),
        BenchSpec(
            name="fig5", experiment="fig5", suites=("full",),
            description="Figure 5: similarity matrix (bbr1 prefix)",
            params={"alias": "bbr1"},
            extract=_extract_fig5,
        ),
        BenchSpec(
            name="fig6", experiment="fig6", suites=("full",),
            description="Figure 6: k-means clusters on the diagonal",
            params={"alias": "bbr1"},
            extract=_extract_fig6,
        ),
        BenchSpec(
            name="table3", experiment="table3", suites=("smoke", "full"),
            description="Table III: frame-reduction factor",
            extract=_extract_table3,
        ),
        BenchSpec(
            name="fig7", experiment="fig7", suites=("smoke", "full"),
            description="Figure 7: relative error of the key metrics",
            extract=_extract_fig7,
        ),
        BenchSpec(
            name="table4", experiment="table4", suites=("full",),
            description="Table IV: random sub-sampling at equal accuracy",
            params={"megsim_trials": 20, "random_trials": 200},
            extract=_extract_table4,
        ),
        BenchSpec(
            name="speedup", experiment="speedup", suites=("smoke", "full"),
            description="Headline wall-clock speedup: full vs MEGsim",
            extract=_extract_speedup,
        ),
        BenchSpec(
            name="adversarial", experiment="adversarial",
            suites=("smoke", "full"),
            description="Adversarial scripted workloads inside the "
                        "paper's accuracy envelope",
            extract=_extract_adversarial,
        ),
        BenchSpec(
            name="parity", experiment="backend_compare",
            suites=("smoke", "full"),
            description="Vector vs scalar cycle-sim backend, bit for bit",
            extract=_extract_backend_compare,
        ),
    )
}


def bench_names(suite: str | None = None) -> list[str]:
    """Registry names, optionally filtered to one suite, in run order.

    Raises:
        ConfigError: on an unknown suite name.
    """
    if suite is None:
        return list(BENCHES)
    if suite not in SUITES:
        raise ConfigError(
            f"unknown suite {suite!r}; available: {', '.join(SUITES)}"
        )
    return [name for name, spec in BENCHES.items() if suite in spec.suites]

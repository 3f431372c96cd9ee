"""The benchmark registry: suites, run order, extractors."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import CLAIMS, EXPERIMENTS, ExperimentResult
import repro.bench.registry as registry
from repro.bench.registry import (
    BENCHES,
    SUITES,
    BenchOutcome,
    BenchSpec,
    bench_names,
)
from repro.errors import AnalysisError, ConfigError
from repro.gpu.stats import KEY_METRICS


class TestCatalog:
    def test_every_spec_is_well_formed(self):
        for name, spec in BENCHES.items():
            assert spec.name == name
            assert spec.experiment in EXPERIMENTS
            assert spec.description
            assert spec.suites
            assert all(suite in SUITES for suite in spec.suites)
            assert callable(spec.extract)

    def test_smoke_is_a_subset_of_full(self):
        assert set(bench_names("smoke")) <= set(bench_names("full"))

    def test_smoke_members(self):
        assert bench_names("smoke") == [
            "table3", "fig7", "speedup", "adversarial", "parity"
        ]

    def test_suite_filter_preserves_run_order(self):
        order = {name: index for index, name in enumerate(bench_names())}
        for suite in SUITES:
            names = bench_names(suite)
            assert names == sorted(names, key=order.__getitem__)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            bench_names("nightly")


class TestSpecRun:
    def test_unscaled_spec_runs_without_scale(self):
        spec = BenchSpec(
            name="t", experiment="table1", suites=("smoke",),
            description="config table", scaled=False,
            extract=lambda result: BenchOutcome(info={"keys": len(result.data)}),
        )
        result, outcome = spec.run(0.25)
        assert result.name == "table1"
        assert outcome.info["keys"] > 0

    def test_default_extractor_is_empty(self):
        spec = BenchSpec(
            name="t", experiment="table1", suites=("smoke",),
            description="d", scaled=False,
        )
        _, outcome = spec.run(1.0)
        assert outcome.metrics == {} and outcome.accuracy == {}

    def test_gated_experiment_fails_on_a_failed_claim(self, monkeypatch):
        spec = BenchSpec(
            name="t", experiment="table1", suites=("smoke",),
            description="d", scaled=False,
        )
        monkeypatch.setattr(registry, "GATED_EXPERIMENTS", {"table1"})
        spec.run(1.0)  # table1's claim holds
        monkeypatch.setitem(CLAIMS, "table1", lambda data, scale: ["broken"])
        with pytest.raises(AnalysisError, match="t: broken"):
            spec.run(1.0)


class TestExtractors:
    def test_table3(self):
        result = ExperimentResult(
            name="table3",
            data={
                "bbr1": {"reduction": 9.0, "megsim_frames": 10},
                "srge": {"reduction": 12.0, "megsim_frames": 8},
                "average_reduction": 10.5,
            },
            report="",
        )
        outcome = BENCHES["table3"].extract(result)
        assert sorted(outcome.metrics["reduction"]) == [9.0, 12.0]
        assert outcome.info["average_reduction"] == 10.5

    def test_fig7_accuracy_keys(self):
        per = {metric: 0.02 for metric in KEY_METRICS}
        result = ExperimentResult(
            name="fig7",
            data={"per_benchmark": {"bbr1": dict(per)}, "average": dict(per)},
            report="",
        )
        outcome = BENCHES["fig7"].extract(result)
        assert set(outcome.accuracy) == {
            f"rel_error.{metric}" for metric in KEY_METRICS
        }
        assert len(outcome.metrics["rel_error"]) == len(KEY_METRICS)

    def test_fig3_clamps_negative_correlations(self):
        result = ExperimentResult(
            name="fig3",
            data={
                "per_benchmark": {"bbr1": {"shaders": -0.1},
                                  "srge": {"shaders": 0.9}},
                "average": {"shaders": 0.4},
            },
            report="",
        )
        outcome = BENCHES["fig3"].extract(result)
        assert outcome.metrics["correlation_shaders"] == [0.0, 0.9]

    def test_speedup_keeps_wall_clock_out_of_results(self):
        result = ExperimentResult(
            name="speedup",
            data={
                "bbr1": {"frame_reduction": 9.0, "speedup": 8.5,
                         "full_seconds": 2.0, "megsim_seconds": 0.25},
                "overall_speedup": 8.5,
            },
            report="",
        )
        outcome = BENCHES["speedup"].extract(result)
        assert outcome.metrics == {"frame_reduction": [9.0]}
        assert outcome.timing_info["overall_speedup"] == 8.5
        # Wall-clock-derived values must never reach the deterministic
        # sections (metrics/accuracy/info).
        assert outcome.accuracy == {}

    def test_parity_keeps_speedup_out_of_results(self):
        result = ExperimentResult(
            name="backend_compare",
            data={
                "bbr1": {"identical": True, "frames_checked": 16,
                         "mismatches": [], "speedup": 2.5},
                "all_identical": True,
            },
            report="",
        )
        outcome = BENCHES["parity"].extract(result)
        assert outcome.accuracy == {"parity.identical": 1.0}
        assert outcome.metrics == {"frames_checked": [16.0]}
        assert outcome.timing_info["vector_speedup"] == {"bbr1": 2.5}

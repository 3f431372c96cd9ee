"""Tests for the experiment registry (every paper table/figure)."""

import pytest

from repro.analysis.experiments import (
    CLAIMS,
    EXPERIMENTS,
    adversarial_claims,
    backend_compare_claims,
    experiment_kwargs,
    fig3_correlation,
    fig4_power,
    fig5_similarity,
    fig6_clusters,
    fig7_accuracy,
    fig7_claims,
    run_experiment,
    table1_config,
    table2_benchmarks,
    table3_claims,
    table3_reduction,
    table4_claims,
    table4_random,
)
from repro.analysis.runner import clear_cache
from repro.errors import AnalysisError
from repro.workloads.benchmarks import benchmark_aliases

SCALE = 0.02


@pytest.fixture(scope="module", autouse=True)
def warm_cache():
    """All experiments at one scale share cached evaluations."""
    clear_cache()
    yield
    clear_cache()


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "fig3", "fig4", "fig5", "fig6", "fig7", "speedup",
            "backend_compare", "adversarial",
            "ablation_weights", "ablation_threshold", "ablation_clustering",
            "ablation_warmup", "ablation_rendering_modes", "phase_recovery",
            "ablation_convergence",
        }

    def test_every_experiment_has_claims(self):
        assert set(CLAIMS) == set(EXPERIMENTS)

    def test_study_returns_experiment_result(self):
        result = run_experiment(
            "ablation_threshold", alias="hcr", thresholds=(0.85,),
            scale=SCALE,
        )
        assert result.name == "ablation_threshold"
        assert len(result.data["points"]) == 1
        assert "BIC threshold sweep" in result.report

    def test_unknown_experiment(self):
        with pytest.raises(AnalysisError):
            run_experiment("fig99")


#: The paper-scale campaign's literal per-step arguments (the
#: ``experiments_full/`` reports were produced with exactly these).
FULL_SCALE_ARGS = {
    "table1": {},
    "table2": {"scale": 1.0},
    "fig3": {"scale": 1.0},
    "fig4": {"scale": 1.0},
    "fig5": {"alias": "bbr1", "frames": 900, "scale": 1.0},
    "fig6": {"alias": "bbr1", "frames": 900, "scale": 1.0},
    "table3": {"scale": 1.0},
    "fig7": {"scale": 1.0},
    "speedup": {"scale": 1.0},
    "table4": {"scale": 1.0, "megsim_trials": 20, "random_trials": 1000,
               "max_k": 48},
    "ablation_weights": {"alias": "bbr1", "scale": 1.0},
    "ablation_threshold": {"alias": "jjo", "scale": 1.0},
    "ablation_clustering": {"alias": "pvz", "scale": 1.0},
    "ablation_warmup": {"alias": "hwh", "scale": 1.0},
    "ablation_rendering_modes": {"alias": "bbr1", "scale": 1.0},
    "phase_recovery": {"scale": 1.0},
    "ablation_convergence": {"alias": "jjo", "scales": (0.1, 0.25, 0.5, 1.0)},
}

#: The quick campaign's per-step arguments at scale 0.2: frame counts
#: and trial counts shrink with the sequences.
QUICK_SCALE_ARGS = {
    "table1": {},
    "table2": {"scale": 0.2},
    "fig3": {"scale": 0.2},
    "fig4": {"scale": 0.2},
    "fig5": {"alias": "bbr1", "frames": 180, "scale": 0.2},
    "fig6": {"alias": "bbr1", "frames": 180, "scale": 0.2},
    "table3": {"scale": 0.2},
    "fig7": {"scale": 0.2},
    "speedup": {"scale": 0.2},
    "table4": {"scale": 0.2, "megsim_trials": 10, "random_trials": 300},
    "ablation_weights": {"alias": "bbr1", "scale": 0.2},
    "ablation_threshold": {"alias": "jjo", "scale": 0.2},
    "ablation_clustering": {"alias": "pvz", "scale": 0.2},
    "ablation_warmup": {"alias": "hwh", "scale": 0.2},
    "ablation_rendering_modes": {"alias": "bbr1", "scale": 0.2},
    "phase_recovery": {"scale": 0.2},
    "ablation_convergence": {"alias": "jjo", "scales": (0.05, 0.1, 0.2)},
}


class TestArgumentTable:
    @pytest.mark.parametrize("scale, expected", [
        (1.0, FULL_SCALE_ARGS), (0.2, QUICK_SCALE_ARGS),
    ])
    def test_pinned_arguments(self, scale, expected):
        assert {name: experiment_kwargs(name, scale) for name in expected} \
            == expected

    def test_unlisted_experiments_take_the_scale(self):
        for name in ("adversarial", "backend_compare"):
            assert experiment_kwargs(name, 0.3) == {"scale": 0.3}

    def test_convergence_ladder_keeps_a_floor(self):
        assert experiment_kwargs("ablation_convergence", 0.02)["scales"] == (
            0.05, 0.1,
        )


class TestClaims:
    def test_fig7_budget_tightens_at_full_scale(self):
        data = {"average": {
            "cycles": 0.04, "dram_accesses": 0.01, "l2_accesses": 0.01,
            "tile_cache_accesses": 0.01,
        }}
        assert fig7_claims(data, 0.2) == []
        assert fig7_claims(data, 1.0) == ["average cycles error 0.0400 < 0.035"]

    def test_table3_floor_scales(self):
        data = {alias: {"reduction": 9.0} for alias in benchmark_aliases()}
        data["average_reduction"] = 20.0
        assert table3_claims(data, 0.1) == []
        failed = table3_claims(data, 0.25)
        assert len(failed) == len(benchmark_aliases()) + 1
        assert failed[-1] == "average reduction 20.0x > 20x"

    def test_table4_per_benchmark_claims_only_at_full_scale(self):
        data = {alias: {"reduction": 0.5} for alias in benchmark_aliases()}
        data["average_reduction"] = 3.0
        assert table4_claims(data, 0.2) == []
        assert len(table4_claims(data, 1.0)) == len(benchmark_aliases())

    def test_adversarial_envelope(self):
        data = {"max_rel_error": 0.0522, "worst_workload": "hcr-osc",
                "envelope": 0.04}
        assert adversarial_claims(data, 0.2) == [
            "hcr-osc max key-metric error 5.22% <= 4.00% envelope",
        ]
        assert adversarial_claims({**data, "max_rel_error": 0.04}, 0.2) == []

    def test_backend_parity_names_mismatches(self):
        row = {"identical": True, "frames_checked": 16, "mismatches": [],
               "speedup": 2.0}
        assert backend_compare_claims({"bbr1": row}, 0.2) == []
        broken = {**row, "identical": False,
                  "mismatches": ["frame 3 cycles 10 != 11"]}
        assert backend_compare_claims({"bbr1": row, "hcr": broken}, 0.2) == [
            "vector == scalar FrameStats "
            "(broken: hcr: frame 3 cycles 10 != 11)",
        ]


class TestTable1:
    def test_report_contains_key_parameters(self):
        report = table1_config().report
        assert "600 MHz" in report
        assert "1440x720" in report
        assert "32x32 pixels" in report
        assert "256 KiB" in report


class TestTable2:
    def test_covers_all_benchmarks(self):
        result = table2_benchmarks(scale=SCALE)
        assert set(result.data) == set(benchmark_aliases())

    def test_shader_counts_match_paper(self):
        result = table2_benchmarks(scale=SCALE)
        assert result.data["asp"]["vertex_shaders"] == 42
        assert result.data["bbr1"]["fragment_shaders"] == 62


class TestFig3:
    def test_shader_correlation_dominates_prim(self):
        """The paper's core Figure 3 finding."""
        result = fig3_correlation(scale=SCALE)
        average = result.data["average"]
        assert average["shaders"] > 0.9
        assert average["shaders"] > average["prim"]


class TestFig4:
    def test_raster_dominates(self):
        result = fig4_power(scale=SCALE)
        geometry, raster, tiling = result.data["average"]
        assert raster > 0.5
        assert raster > geometry
        assert raster > tiling

    def test_fractions_sum_to_one(self):
        result = fig4_power(scale=SCALE)
        for fractions in result.data["per_benchmark"].values():
            assert sum(fractions.values()) == pytest.approx(1.0)


class TestFig5:
    def test_heatmap_rendered(self):
        result = fig5_similarity(alias="bbr1", frames=50, scale=SCALE, width=20)
        lines = result.report.splitlines()
        assert len([l for l in lines if len(l) == 20]) == 20

    def test_distance_matrix_shape(self):
        result = fig5_similarity(alias="bbr1", frames=30, scale=SCALE)
        assert result.data["distances"].shape == (30, 30)


class TestFig6:
    def test_cluster_strip(self):
        result = fig6_clusters(alias="bbr1", frames=50, scale=SCALE, width=25)
        assert result.data["k"] >= 1
        assert len(result.data["labels"]) == 50
        assert result.report.splitlines()[-1]  # the symbol strip


class TestTable3:
    def test_reductions_positive(self):
        result = table3_reduction(scale=SCALE)
        for alias in benchmark_aliases():
            assert result.data[alias]["reduction"] > 1.0
        assert result.data["average_reduction"] > 1.0


class TestFig7:
    def test_errors_reported_for_all_metrics(self):
        result = fig7_accuracy(scale=SCALE)
        for alias in benchmark_aliases():
            assert set(result.data["per_benchmark"][alias]) == {
                "cycles", "dram_accesses", "l2_accesses", "tile_cache_accesses"
            }

    def test_report_includes_paper_reference(self):
        result = fig7_accuracy(scale=SCALE)
        assert "(paper avg)" in result.report


class TestSpeedup:
    def test_speedup_positive(self):
        from repro.analysis.experiments import speedup

        result = speedup(scale=SCALE)
        assert result.data["overall_speedup"] > 1.0
        assert "Total" in result.report


class TestTable4:
    def test_small_run(self):
        result = table4_random(
            scale=SCALE, megsim_trials=3, random_trials=50, max_k=10
        )
        for alias in benchmark_aliases():
            entry = result.data[alias]
            assert entry["megsim_frames"] >= 1
            assert entry["random_frames"] >= 1

"""Tests for the command-line interface."""

import hashlib
import json

import pytest

import repro.cli as cli
from repro.analysis.experiments import ExperimentResult
from repro.analysis.metrics import failed_claims
from repro.cli import build_parser, main
from repro.errors import AnalysisError
from repro.obs import collecting
from repro.store import ArtifactStore, store_scope


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "table3", "--scale", "0.1"])
        assert args.experiment == "table3"
        assert args.scale == 0.1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_plan_parses(self):
        args = build_parser().parse_args(["plan", "bbr1"])
        assert args.benchmark == "bbr1"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "bbr1" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "600 MHz" in capsys.readouterr().out

    def test_plan(self, capsys):
        assert main(["plan", "hcr", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "representatives" in out
        assert "cluster" in out

    def test_inspect(self, capsys):
        assert main(["inspect", "hcr", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "DRAM" in out
        assert "MEGsim" in out

    def test_figures(self, capsys, tmp_path):
        assert main([
            "figures", "hcr", "--frames", "40", "--scale", "0.02",
            "--outdir", str(tmp_path),
        ]) == 0
        assert (tmp_path / "fig5_hcr.pgm").exists()
        assert (tmp_path / "fig6_hcr.ppm").exists()


#: `megsim plan hcr --scale 0.02` stdout, as printed before the command
#: was routed through the pipeline's `plan` stage.
HCR_PLAN = """\
hcr: 40 frames -> 6 representatives (reduction 7x)
  cluster   0: frame    37 represents 9 frames
  cluster   1: frame     4 represents 6 frames
  cluster   2: frame     8 represents 11 frames
  cluster   3: frame    26 represents 7 frames
  cluster   4: frame    20 represents 4 frames
  cluster   5: frame    34 represents 3 frames
"""

#: sha256 of the `megsim figures hcr --frames 40 --scale 0.02` images,
#: as written before the command was routed through fig5/fig6.
HCR_FIGURES = {
    "fig5_hcr.pgm":
        "116314231f14be1dcab90028ce9405bbdabddbf2098578fc4af54010fce8c63f",
    "fig6_hcr.ppm":
        "5ea7b6dfae5003dc47ec44742b5642a02f5a09a79e04997bddf98871ce456392",
}


class TestPipelineRouting:
    """`plan`, `figures` and `run fig5/fig6` read the pipeline's stages."""

    def test_plan_second_run_is_a_store_hit(self, capsys, tmp_path):
        # Each run gets its own store object on one disk root, as two
        # processes sharing MEGSIM_STORE would.
        for run in range(2):
            with store_scope(ArtifactStore(tmp_path)), \
                    collecting() as collector:
                assert main(["plan", "hcr", "--scale", "0.02"]) == 0
            assert capsys.readouterr().out == HCR_PLAN
        counters = collector.counters
        assert counters["pipeline.hits.plan"] == 1
        assert not [c for c in counters if c.startswith("pipeline.computed.")]

    def test_plan_no_store_leaves_the_store_untouched(self, capsys, tmp_path):
        with store_scope(ArtifactStore(tmp_path)):
            assert main(["plan", "hcr", "--scale", "0.02", "--no-store"]) == 0
        assert capsys.readouterr().out == HCR_PLAN
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    @pytest.mark.parametrize("command", ["plan", "figures"])
    def test_jobs_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "hcr", "--jobs", "2"])

    def test_manifest_records_no_jobs_without_a_fan_out(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("MEGSIM_JOBS", "4")
        manifest = tmp_path / "plan.manifest.json"
        assert main([
            "plan", "hcr", "--scale", "0.02", "--manifest", str(manifest),
        ]) == 0
        jobs = json.loads(manifest.read_text())["jobs"]
        assert jobs == {"requested": None, "resolved": None}

    def test_figures_bytes_are_pinned(self, capsys, tmp_path):
        assert main([
            "figures", "hcr", "--frames", "40", "--scale", "0.02",
            "--outdir", str(tmp_path),
        ]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in HCR_FIGURES
        }
        assert digests == HCR_FIGURES
        out = capsys.readouterr().out
        assert "(40x40, dark = similar)" in out
        assert "(k=6 clusters along the diagonal)" in out

    def test_fig6_simulates_nothing(self, capsys, tmp_path):
        with store_scope(ArtifactStore(tmp_path)), collecting() as collector:
            assert main(["run", "fig6", "--scale", "0.05"]) == 0
        computed = {
            c for c in collector.counters if c.startswith("pipeline.computed.")
        }
        assert computed == {"pipeline.computed.trace",
                            "pipeline.computed.profile"}
        assert "Figure 6" in capsys.readouterr().out


@pytest.fixture
def _clean_registry():
    from repro.workloads.registry import _DYNAMIC

    saved = dict(_DYNAMIC)
    yield
    _DYNAMIC.clear()
    _DYNAMIC.update(saved)


class TestWorkloadCommands:
    def test_workloads_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for key in ("hcr", "hcr-osc", "hcr-flip", "hcr-drift"):
            assert key in out
        assert "[scripted " in out

    def test_workloads_describe(self, capsys):
        assert main(["workloads", "describe", "hcr-osc"]) == 0
        out = capsys.readouterr().out
        assert "scripted" in out
        assert "fingerprint" in out
        assert "2000" in out

    def test_workloads_describe_unknown(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="available"):
            main(["workloads", "describe", "doom"])

    def test_list_mentions_workloads(self, capsys):
        assert main(["list"]) == 0
        assert "hcr-osc" in capsys.readouterr().out

    def test_export_trace_round_trips(self, capsys, tmp_path, _clean_registry):
        out = tmp_path / "cap.jsonl"
        assert main([
            "export-trace", "hcr", "--scale", "0.05", "--out", str(out),
        ]) == 0
        assert "100-frame capture" in capsys.readouterr().out

        assert main(["plan", "--workload", str(out), "--scale", "1.0"]) == 0
        planned = capsys.readouterr().out
        assert "registered capture" in planned
        assert "replay:cap" in planned
        assert "representatives" in planned

    def test_plan_accepts_scripted_key(self, capsys, _clean_registry):
        assert main(["plan", "hcr-flip", "--scale", "0.05"]) == 0
        assert "representatives" in capsys.readouterr().out

    def test_run_rejects_workload_on_suite_experiments(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="fig5"):
            main(["run", "table3", "--workload", "hcr-osc"])


class TestScaleValidation:
    def test_non_positive_scale_names_the_flag(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="--scale must be > 0"):
            main(["plan", "hcr", "--scale", "0"])

    def test_sub_frame_scale_names_the_flag(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="--scale 0.001"):
            main(["plan", "hcr", "--scale", "0.001"])


class TestAllCampaign:
    """``megsim all`` over a faked two-step registry."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Fake registry; returns the ``(name, kwargs)`` of every call."""
        reports = {"expA": "report A", "expB": "report B\nsecond line"}
        calls = []

        def run(name, **kwargs):
            calls.append((name, kwargs))
            return ExperimentResult(name, {"value": len(calls)}, reports[name])

        monkeypatch.setattr(cli, "EXPERIMENTS", dict.fromkeys(reports))
        monkeypatch.setattr(cli, "run_experiment", run)
        monkeypatch.setattr(cli, "CLAIMS", {})
        return calls

    def test_out_writes_each_printed_report(self, calls, capsys, tmp_path):
        out = tmp_path / "reports"
        assert main(["all", "--scale", "0.1", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert sorted(path.name for path in out.iterdir()) == [
            "expA.txt", "expB.txt",
        ]
        for name, text in (("expA", "report A"),
                           ("expB", "report B\nsecond line")):
            assert (out / f"{name}.txt").read_text() == text + "\n"
            assert text + "\n" in printed
        assert calls == [("expA", {"scale": 0.1}), ("expB", {"scale": 0.1})]

    def test_failed_claim_exits_1_naming_step_and_claim(
        self, calls, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "CLAIMS", {
            "expB": lambda data, scale: failed_claims({
                f"value {data['value']} > 5": data["value"] > 5,
                "scale is passed through": scale == 0.1,
            }),
        })
        assert main(["all", "--scale", "0.1"]) == 1
        out = capsys.readouterr().out
        assert "1 paper-shape claim(s) failed:" in out
        assert "  expB: value 2 > 5" in out
        assert "report A" in out and "report B" in out

    def test_step_error_propagates_after_earlier_reports_are_written(
        self, calls, monkeypatch, tmp_path
    ):
        def run(name, **kwargs):
            if name == "expB":
                raise AnalysisError("no clusters to extrapolate from")
            return ExperimentResult(name, {}, "report A")

        monkeypatch.setattr(cli, "run_experiment", run)
        with pytest.raises(AnalysisError, match="no clusters"):
            main(["all", "--scale", "0.1", "--out", str(tmp_path)])
        assert (tmp_path / "expA.txt").read_text() == "report A\n"
        assert not (tmp_path / "expB.txt").exists()

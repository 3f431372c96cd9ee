"""Tests for the command-line interface."""

import pytest

import repro.cli as cli
from repro.analysis.experiments import ExperimentResult
from repro.analysis.metrics import failed_claims
from repro.cli import build_parser, main
from repro.errors import AnalysisError


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

    def test_trace_npz(self, capsys, tmp_path):
        out = tmp_path / "t.npz"
        assert main(["trace", "hcr", "--scale", "0.02", "--out", str(out)]) == 0
        from repro.scene.binary_io import load_trace_npz

        assert load_trace_npz(out).name == "hcr"

    def test_trace_json(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        assert main(["trace", "hcr", "--scale", "0.02", "--out", str(out)]) == 0
        from repro.scene.trace import WorkloadTrace

        assert WorkloadTrace.load(out).name == "hcr"


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

"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import e2e_bench as bench
import run
from repro.errors import ReproError
from repro.store import set_store

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Two light captures stand in for each workload's capture set.
TINY = ("hcr", "hcr-flip")
TINY_SCALE = 0.02


@pytest.fixture(scope="session", autouse=True)
def _hermetic(tmp_path_factory):
    """Keep the program's default store and database out of the home dir."""
    base = tmp_path_factory.mktemp("defaults")
    patch = pytest.MonkeyPatch()
    patch.setenv("MEGSIM_STORE", str(base / "store"))
    patch.setenv("MEGSIM_DB", str(base / "service.sqlite3"))
    set_store(None)
    yield
    patch.undo()
    set_store(None)


@pytest.fixture(scope="session")
def tiny_captures(tmp_path_factory):
    workload = dataclasses.replace(
        bench.WORKLOADS["validate"], captures=TINY, scale=TINY_SCALE
    )
    capture_dir = tmp_path_factory.mktemp("captures")
    bench.generate_captures(workload, 0, capture_dir)
    return bench.register_captures(capture_dir)


def tiny(name: str, captures, work_dir: Path, trace: bool) -> dict:
    workload = dataclasses.replace(
        bench.WORKLOADS[name], captures=TINY, scale=TINY_SCALE
    )
    return bench.measure(workload, captures, work_dir, seconds=0, trace=trace)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.E2E_METRICS
    assert layers == bench.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    for name in [*e2e, *layers, *bench.WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_run_passes_checks_and_trace_keeps_outputs(
    name, tiny_captures, tmp_path
):
    plain = tiny(name, tiny_captures, tmp_path / "plain", trace=False)
    traced = tiny(name, tiny_captures, tmp_path / "traced", trace=True)
    for doc in (plain, traced):
        assert doc["correct"], doc["problems"]
        assert doc["failed"] == 0 and doc["attempted"] >= bench.MIN_PASSES
    assert set(plain["metrics"]) == set(bench.E2E_METRICS) - {"setup_s"}
    assert set(traced["layers"]) == set(bench.LAYER_METRICS)
    assert plain["detail"]["outputs_sha256"] == traced["detail"]["outputs_sha256"]
    assert Path(traced["detail"]["trace_artifact"]).exists()
    layers = {k: v["value"] for k, v in traced["layers"].items()}
    if name == "warm-reload":
        assert layers["pipeline.computed"] == 0
    if name == "estimate-long":
        assert layers["cycle.frames_simulated"] == layers["core.representatives"] > 0


def test_wrong_estimate_fails_the_run(tiny_captures, tmp_path, monkeypatch):
    from repro.core.sampler import SamplingPlan

    original = SamplingPlan.estimate

    def inflated(self, representative_stats):
        stats = original(self, representative_stats)
        return dataclasses.replace(stats, cycles=stats.cycles * 1.5)

    monkeypatch.setattr(SamplingPlan, "estimate", inflated)
    doc = tiny("validate", tiny_captures, tmp_path, trace=False)
    assert doc["failed"] == doc["attempted"] > 0
    assert run.exit_status(doc) == 1


def test_failed_service_job_fails_the_run(tiny_captures, tmp_path, monkeypatch):
    import repro.service.worker as worker

    original = worker.materialize_stage

    def failing(request, name, **kwargs):
        if name == "ground_truth":
            raise ReproError("injected ground-truth failure")
        return original(request, name, **kwargs)

    monkeypatch.setattr(worker, "materialize_stage", failing)
    doc = tiny("service-batch", tiny_captures, tmp_path, trace=False)
    assert doc["failed"] > 0
    assert run.exit_status(doc) == 1


def test_run_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "validate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _results(directory: Path, values: list[float]) -> list[Path]:
    directory.mkdir()
    paths = []
    for seed, value in enumerate(values):
        path = directory / f"validate-{seed}.json"
        path.write_text(json.dumps({
            "workload": "validate", "seed": seed, "trace": 0,
            "metrics": {"pass_s": {"value": value, "unit": "s"}},
        }))
        paths.append(path)
    return paths


def test_compare_flags_regressions_only(tmp_path, capsys):
    spec = compare.load_spec()
    parent = _results(tmp_path / "parent", [4.0, 4.02, 3.98, 4.01, 3.99])
    same = _results(tmp_path / "same", [4.01, 3.99, 4.0, 4.02, 3.98])
    slower = _results(tmp_path / "slower", [5.5, 5.52, 5.48, 5.51, 5.49])
    faster = _results(tmp_path / "faster", [3.0, 3.02, 2.98, 3.01, 2.99])
    assert compare.compare(parent, same, spec) == 0
    assert compare.compare(parent, faster, spec) == 0
    assert "improved" in capsys.readouterr().out
    assert compare.compare(parent, slower, spec) == 1
    assert "worse" in capsys.readouterr().out

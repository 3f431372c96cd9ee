"""End-to-end store behaviour of :func:`evaluate_benchmark`.

These are the ISSUE's acceptance tests: a store hit must reproduce the
cold computation exactly, a corrupted artifact must be recomputed rather
than trusted, and a warm store must eliminate all simulation work.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import BenchmarkEvaluation, evaluate_benchmark
from repro.gpu.stats import KEY_METRICS
from repro.obs import collecting
from repro.pipeline import STAGES, PipelineRequest, stage_fingerprints
from repro.store import ArtifactStore, store_scope

SCALE = 0.02
PERSISTED = [stage for stage in STAGES if stage.encode is not None]


def _evaluate(alias: str) -> BenchmarkEvaluation:
    return evaluate_benchmark(alias, scale=SCALE)


def _assert_numerically_identical(
    cold: BenchmarkEvaluation,
    warm: BenchmarkEvaluation,
    *,
    check_speedup: bool = True,
) -> None:
    assert warm.plan.total_frames == cold.plan.total_frames
    assert warm.plan.representative_frames == cold.plan.representative_frames
    assert warm.plan.reduction_factor == cold.plan.reduction_factor
    for metric in KEY_METRICS:
        assert getattr(warm.estimate, metric) == getattr(cold.estimate, metric)
        assert getattr(warm.totals, metric) == getattr(cold.totals, metric)
    assert warm.relative_errors() == cold.relative_errors()
    if check_speedup:
        assert warm.time_speedup == cold.time_speedup


@pytest.mark.parametrize("alias", ["hcr", "asp"])
def test_store_hit_reproduces_cold_computation(alias, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    with store_scope(store):
        cold = _evaluate(alias)
        # Drop every live object; the rerun must decode from disk.
        store.clear_memory()
        with collecting() as collector:
            warm = _evaluate(alias)
    assert warm is not cold
    _assert_numerically_identical(cold, warm)
    counters = dict(collector.counters)
    for stage in PERSISTED:
        assert f"pipeline.hits.{stage.name}" in counters
        assert f"pipeline.computed.{stage.name}" not in counters
    # Every derived stage hit, so the memory-only trace was never asked for.
    assert "pipeline.hits.trace" not in counters
    assert "pipeline.computed.trace" not in counters


def test_warm_store_does_zero_simulation_work(tmp_path):
    root = tmp_path / "store"
    with store_scope(ArtifactStore(root)):
        _evaluate("hcr")
    # Only the five derived stages reach the disk; the trace does not.
    assert sorted(path.name for path in (root / "v1").iterdir()) == sorted(
        stage.kind for stage in PERSISTED
    )
    assert not (root / "v1" / "trace").exists()
    # A fresh store object on the same root: nothing live in memory.
    with store_scope(ArtifactStore(root)):
        with collecting() as collector:
            _evaluate("hcr")
    counters = dict(collector.counters)
    # Zero trace generation, zero functional profiling, zero
    # cycle-accurate simulation: every stage came out of the store.
    assert "cycle.frames_simulated" not in counters
    assert "cycle.warmup_frames" not in counters
    assert "functional.frames_profiled" not in counters
    assert not any(name.startswith("pipeline.computed.") for name in counters)
    assert "workload.generate" not in {record.name for record in collector.spans}
    assert counters["store.hits.disk"] == len(PERSISTED)


def test_memory_tier_hit_returns_identical_object(tmp_path):
    with store_scope(ArtifactStore(tmp_path / "store")):
        first = _evaluate("hcr")
        with collecting() as collector:
            second = _evaluate("hcr")
    assert second is first
    counters = dict(collector.counters)
    assert counters["store.hits.memory"] == 1
    # The assembled evaluation short-circuits the whole pipeline.
    assert not any(name.startswith("pipeline.") for name in counters)


def test_use_cache_false_bypasses_the_store(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    with store_scope(store):
        with collecting() as collector:
            cold = evaluate_benchmark("hcr", scale=SCALE, use_cache=False)
    counters = dict(collector.counters)
    assert "store.misses" not in counters
    assert "store.writes" not in counters
    assert store.disk.stats()["entries"] == 0
    assert cold.plan.total_frames > 0


def test_corrupted_artifact_is_recomputed_not_trusted(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    with store_scope(store):
        cold = _evaluate("hcr")
        store.clear_memory()
        # Flip bits in the persisted ground truth.
        request = PipelineRequest.create("hcr", scale=SCALE)
        fp = stage_fingerprints(request)["ground_truth"]
        target = store.disk.path("ground_truth", fp)
        assert target.is_file()
        target.write_text(target.read_text().replace("payload", "paylaod", 1))
        with collecting() as collector:
            warm = _evaluate("hcr")
    counters = dict(collector.counters)
    assert counters["store.corrupt"] == 1
    assert counters["pipeline.computed.ground_truth"] == 1
    # Only the damaged stage was redone, plus the memory-only trace it
    # reads; every other stage still hit.
    assert counters["pipeline.computed.trace"] == 1
    assert not any(
        counters.get(f"pipeline.computed.{stage.name}")
        for stage in PERSISTED
        if stage.name != "ground_truth"
    )
    assert counters["cycle.frames_simulated"] > 0
    # The recomputed ground truth re-measures its own wall clock, so
    # time_speedup is the one value allowed to differ.
    _assert_numerically_identical(cold, warm, check_speedup=False)

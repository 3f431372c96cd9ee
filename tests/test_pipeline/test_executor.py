"""The executor contract: span names, counters and artifacts per stage.

``materialize_stage`` called for each stage in :data:`STAGES` order
with one shared ``artifacts`` memo must report exactly one
``pipeline.<stage>`` root span and one hit-or-computed counter per
stage, and produce the same artifacts as independent per-stage calls.
A warm run asks only for the persisted stages, as ``evaluate_benchmark``
does, so it never builds the memory-only trace.  The end-to-end
benchmark reads these span names and counter prefixes.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import collecting
from repro.pipeline import (
    STAGES,
    PipelineRequest,
    materialize_stage,
    stage_fingerprints,
)
from repro.store import ArtifactStore

REQUEST = PipelineRequest.create("hcr", scale=0.02)
STAGE_NAMES = [stage.name for stage in STAGES]
PERSISTED = [stage.name for stage in STAGES if stage.encode is not None]


def _run(store: ArtifactStore, names: list[str]) -> dict:
    """Materialize ``names`` in order through one shared memo."""
    fps = stage_fingerprints(REQUEST)
    artifacts: dict = {}
    for name in names:
        materialize_stage(
            REQUEST, name, store=store, fingerprints=fps, artifacts=artifacts
        )
    return artifacts


def _encoded(artifacts: dict) -> dict[str, str]:
    """Each persisted stage's encoded artifact, minus its wall-clock field."""
    encoded = {}
    for stage in STAGES:
        if stage.encode is None:
            continue
        doc = stage.encode(artifacts[stage.name])
        doc.pop("elapsed_seconds", None)
        encoded[stage.name] = json.dumps(doc, sort_keys=True)
    return encoded


def _pipeline_counters(collector, kind: str) -> dict[str, float]:
    prefix = f"pipeline.{kind}."
    return {
        name: total
        for name, total in collector.counters.items()
        if name.startswith(prefix)
    }


def _once_per_stage(kind: str, names: list[str]) -> dict[str, float]:
    return {f"pipeline.{kind}.{name}": 1 for name in names}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    with collecting() as cold:
        cold_artifacts = _run(ArtifactStore(root=root), STAGE_NAMES)
    # A new store instance on the same root: the warm run decodes from disk.
    with collecting() as warm:
        warm_artifacts = _run(ArtifactStore(root=root), PERSISTED)
    return cold, cold_artifacts, warm, warm_artifacts


def test_cold_run_computes_every_stage_once(runs):
    cold = runs[0]
    assert _pipeline_counters(cold, "computed") == _once_per_stage(
        "computed", STAGE_NAMES
    )
    assert _pipeline_counters(cold, "hits") == {}


def test_warm_run_hits_every_stage_once(runs):
    warm = runs[2]
    assert _pipeline_counters(warm, "hits") == _once_per_stage("hits", PERSISTED)
    assert _pipeline_counters(warm, "computed") == {}
    assert "trace" not in runs[3]


@pytest.mark.parametrize("which", [0, 2], ids=["cold", "warm"])
def test_stages_are_sibling_root_spans_in_order(runs, which):
    roots = runs[which].roots
    names = STAGE_NAMES if which == 0 else PERSISTED
    assert [root.name for root in roots] == [
        f"pipeline.{name}" for name in names
    ]
    assert all(root.parent_id is None for root in roots)
    assert not any(
        child.name.startswith("pipeline.")
        for root in roots
        for child in root.children
    )


def test_artifacts_match_per_stage_materialization(runs, tmp_path):
    store = ArtifactStore(root=tmp_path / "store")
    per_stage = {
        name: materialize_stage(REQUEST, name, store=store)
        for name in PERSISTED
    }
    expected = _encoded(per_stage)
    assert _encoded(runs[1]) == expected
    assert _encoded(runs[3]) == expected


def test_trace_is_built_not_read_on_a_warm_store(runs, tmp_path):
    """The trace never reaches the disk tier: asking a fresh store object
    on a populated root for it rebuilds it."""
    root = tmp_path / "store"
    _run(ArtifactStore(root=root), STAGE_NAMES)
    with collecting() as collector:
        trace = materialize_stage(REQUEST, "trace", store=ArtifactStore(root=root))
    assert _pipeline_counters(collector, "computed") == {"pipeline.computed.trace": 1}
    assert trace.to_dict() == runs[1]["trace"].to_dict()

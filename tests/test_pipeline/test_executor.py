"""The executor contract: span names, counters and artifacts per stage.

``run_pipeline`` is ``materialize_stage`` applied to every stage in
:data:`STAGES` order, so a full run must report exactly one
``pipeline.<stage>`` root span and one hit-or-computed counter per
stage, and produce the same artifacts as per-stage calls.  The
end-to-end benchmark reads these span names and counter prefixes.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import collecting
from repro.pipeline import (
    STAGES,
    PipelineRequest,
    materialize_stage,
    run_pipeline,
)
from repro.store import ArtifactStore

REQUEST = PipelineRequest.create("hcr", scale=0.02)
STAGE_NAMES = [stage.name for stage in STAGES]


def _encoded(artifacts: dict) -> dict[str, str]:
    """Each stage's encoded artifact, minus its wall-clock field."""
    encoded = {}
    for stage in STAGES:
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


def _once_per_stage(kind: str) -> dict[str, float]:
    return {f"pipeline.{kind}.{name}": 1 for name in STAGE_NAMES}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    with collecting() as cold:
        cold_artifacts = run_pipeline(REQUEST, store=ArtifactStore(root=root))
    # A new store instance on the same root: the warm run decodes from disk.
    with collecting() as warm:
        warm_artifacts = run_pipeline(REQUEST, store=ArtifactStore(root=root))
    return cold, cold_artifacts, warm, warm_artifacts


def test_cold_run_computes_every_stage_once(runs):
    cold = runs[0]
    assert _pipeline_counters(cold, "computed") == _once_per_stage("computed")
    assert _pipeline_counters(cold, "hits") == {}


def test_warm_run_hits_every_stage_once(runs):
    warm = runs[2]
    assert _pipeline_counters(warm, "hits") == _once_per_stage("hits")
    assert _pipeline_counters(warm, "computed") == {}


@pytest.mark.parametrize("which", [0, 2], ids=["cold", "warm"])
def test_stages_are_sibling_root_spans_in_order(runs, which):
    roots = runs[which].roots
    assert [root.name for root in roots] == [
        f"pipeline.{name}" for name in STAGE_NAMES
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
        for name in STAGE_NAMES
    }
    expected = _encoded(per_stage)
    assert _encoded(runs[1]) == expected
    assert _encoded(runs[3]) == expected

"""The production path reads the draw table and builds no frame objects.

:attr:`WorkloadTrace.frames` is an on-demand view for the scalar oracle
and tests; building it adds to the ``scene.frames_built`` counter.  An
estimate and a ground truth on the default (vector) backend must never
build it, while the scalar backend does, which shows the counter is live.
"""

from __future__ import annotations

import pytest

from repro.gpu.config import CycleConfig
from repro.obs import collecting
from repro.pipeline import STAGES, PipelineRequest, materialize_stage, stage_fingerprints
from repro.store import memory_store
from repro.workloads import export_workload_file, make_benchmark
from repro.workloads.registry import _DYNAMIC, register_workload_file


@pytest.fixture(autouse=True)
def _isolated_dynamic_table():
    saved = dict(_DYNAMIC)
    yield
    _DYNAMIC.clear()
    _DYNAMIC.update(saved)


def _materialize(request, names):
    store = memory_store()
    fingerprints = stage_fingerprints(request)
    for name in names:
        materialize_stage(request, name, store=store, fingerprints=fingerprints)


def test_vector_backend_stages_build_no_frames(tmp_path):
    capture = tmp_path / "gate.jsonl"
    export_workload_file(make_benchmark("pvz", scale=0.02), capture)
    ref = register_workload_file(str(capture))

    request = PipelineRequest.create(ref.name)
    assert request.cycle.backend == "vector"
    with collecting() as collector:
        _materialize(request, [stage.name for stage in STAGES])
    assert collector.counters.get("scene.frames_built", 0) == 0

    scalar = PipelineRequest.create(ref.name, cycle=CycleConfig(backend="scalar"))
    with collecting() as collector:
        _materialize(scalar, ["ground_truth"])
    assert collector.counters.get("scene.frames_built", 0) > 0

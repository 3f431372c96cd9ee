"""Request codec: fingerprint-preserving JSON round-trips."""

from __future__ import annotations

import json

import pytest

from repro.core.sampler import MEGsimOptions
from repro.errors import ServiceError
from repro.gpu.config import CycleConfig, GPUConfig
from repro.pipeline import stage_fingerprints
from repro.pipeline.request import PipelineRequest
from repro.service.codec import (
    REQUEST_SCHEMA,
    REQUEST_SCHEMA_VERSION,
    decode_request,
    encode_request,
)


def test_default_request_round_trips():
    request = PipelineRequest.create("bbr1", scale=0.1)
    decoded = decode_request(encode_request(request))
    assert decoded == request


def test_round_trip_preserves_fingerprints():
    """The property the dedup machinery rests on: a decoded request
    addresses the exact same artifacts as the original."""
    request = PipelineRequest.create(
        "hwh",
        scale=0.25,
        options=MEGsimOptions(seed=7, max_k=5, projection_dims=3),
        config=GPUConfig(rendering_mode="imr", tile_size=16),
    )
    decoded = decode_request(encode_request(request))
    assert stage_fingerprints(decoded) == stage_fingerprints(request)


def test_round_trip_through_json_string():
    request = PipelineRequest.create("asp", scale=0.05)
    document = json.dumps(encode_request(request), sort_keys=True)
    assert decode_request(document) == request


def test_document_shape():
    document = encode_request(PipelineRequest.create("pvz", scale=0.5))
    assert document["schema"] == REQUEST_SCHEMA
    assert document["version"] == REQUEST_SCHEMA_VERSION
    assert document["alias"] == "pvz"
    assert document["scale"] == 0.5
    assert isinstance(document["options"], dict)
    assert isinstance(document["config"], dict)


def test_decode_rejects_bad_json():
    with pytest.raises(ServiceError, match="not JSON"):
        decode_request("{nope")


def test_decode_rejects_wrong_schema():
    document = encode_request(PipelineRequest.create("bbr1", scale=0.1))
    document["schema"] = "something-else"
    with pytest.raises(ServiceError, match="schema"):
        decode_request(document)


def test_decode_rejects_unknown_version():
    document = encode_request(PipelineRequest.create("bbr1", scale=0.1))
    document["version"] = 999
    with pytest.raises(ServiceError, match="version"):
        decode_request(document)


def test_decode_rejects_non_object():
    with pytest.raises(ServiceError, match="JSON object"):
        decode_request(json.dumps([1, 2, 3]))


class TestWorkloadField:
    """v2 carries the workload ref; v1 documents still decode."""

    def test_synthetic_requests_encode_a_null_workload(self):
        document = encode_request(PipelineRequest.create("hcr", scale=0.1))
        assert document["workload"] is None

    def test_scripted_ref_round_trips(self):
        request = PipelineRequest.create("hcr-osc", scale=0.05)
        assert request.workload is not None
        decoded = decode_request(encode_request(request))
        assert decoded == request
        assert stage_fingerprints(decoded) == stage_fingerprints(request)

    def test_replay_ref_round_trips_with_path(self, tmp_path):
        from repro.workloads import export_workload_file, make_benchmark
        from repro.workloads.registry import _DYNAMIC, register_workload_file

        path = tmp_path / "cap.jsonl"
        export_workload_file(make_benchmark("hcr", scale=0.05), path)
        saved = dict(_DYNAMIC)
        try:
            ref = register_workload_file(str(path))
            request = PipelineRequest.create(ref.name)
        finally:
            _DYNAMIC.clear()
            _DYNAMIC.update(saved)
        decoded = decode_request(encode_request(request))
        assert decoded == request
        # The capture path survives, so a worker process can re-resolve
        # the ref without access to this process's registry table.
        assert decoded.workload.path == str(path)

    def test_v1_document_decodes_with_no_workload(self):
        document = encode_request(PipelineRequest.create("bbr1", scale=0.1))
        document["version"] = 1
        del document["workload"]
        decoded = decode_request(document)
        assert decoded.workload is None
        assert decoded == PipelineRequest.create("bbr1", scale=0.1)


def test_document_without_cycle_decodes_to_scalar():
    """Documents written before the backend field existed meant the
    scalar backend: decoding them must not flip them to the vector
    default, or a queued or stored request would change fingerprint and
    recompute."""
    scalar = PipelineRequest.create(
        "bbr1", scale=0.1, cycle=CycleConfig(backend="scalar")
    )
    document = encode_request(scalar)
    del document["cycle"]
    for legacy in (document, {**document, "version": 1, "workload": None}):
        decoded = decode_request(legacy)
        assert decoded.cycle == CycleConfig(backend="scalar")
        assert decoded == scalar
        assert stage_fingerprints(decoded) == stage_fingerprints(scalar)
    default = PipelineRequest.create("bbr1", scale=0.1)
    assert default.cycle == CycleConfig(backend="vector")
    assert stage_fingerprints(default) != stage_fingerprints(scalar)

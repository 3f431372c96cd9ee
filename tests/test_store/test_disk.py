"""The persistent disk tier: atomicity, corruption handling, maintenance."""

from __future__ import annotations

import json

import pytest

from repro.errors import StoreError
from repro.gpu.config import CycleConfig
from repro.pipeline import STAGES, PipelineRequest, materialize_stage, stage_fingerprints
from repro.store import STORE_VERSION, DiskTier
from repro.store.fingerprint import payload_digest

FP = "ab" + "0" * 62


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        tier = DiskTier(tmp_path)
        payload = {"cycles": 1.5, "ids": [1, 2, 3]}
        written = tier.write("ground_truth", FP, payload)
        loaded = tier.read("ground_truth", FP)
        assert loaded is not None
        restored, nbytes = loaded
        assert restored == payload
        assert nbytes == written

    def test_layout_shards_by_fingerprint_prefix(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {})
        expected = tmp_path / f"v{STORE_VERSION}" / "plan" / "ab" / f"{FP}.json"
        assert expected.is_file()

    def test_missing_artifact_is_a_miss(self, tmp_path):
        assert DiskTier(tmp_path).read("plan", FP) is None

    def test_no_stray_tmp_files_after_write(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_float_payloads_round_trip_exactly(self, tmp_path):
        tier = DiskTier(tmp_path)
        value = 0.1 + 0.2  # not representable prettily; repr must survive
        tier.write("estimate", FP, {"v": value})
        restored, _ = tier.read("estimate", FP)
        assert restored["v"] == value

    def test_invalid_kind_and_fingerprint_rejected(self, tmp_path):
        tier = DiskTier(tmp_path)
        with pytest.raises(StoreError):
            tier.path("../evil", FP)
        with pytest.raises(StoreError):
            tier.path("plan", "XYZ")


class TestCorruption:
    def _target(self, tier: DiskTier):
        return tier.path("plan", FP)

    def test_truncated_file_is_dropped_and_missed(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        target = self._target(tier)
        target.write_text(target.read_text()[:20])
        assert tier.read("plan", FP) is None
        assert not target.exists()
        assert tier.corrupt_dropped == 1

    def test_bit_flip_in_payload_is_detected(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        target = self._target(tier)
        envelope = json.loads(target.read_text())
        envelope["payload"]["a"] = 2  # silently altered artifact
        target.write_text(json.dumps(envelope))
        assert tier.read("plan", FP) is None
        assert not target.exists()

    def test_foreign_fingerprint_is_rejected(self, tmp_path):
        tier = DiskTier(tmp_path)
        other = "cd" + "0" * 62
        tier.write("plan", other, {"a": 1})
        # Simulate a mis-filed artifact: copy it under the wrong address.
        target = self._target(tier)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(tier.path("plan", other).read_text())
        assert tier.read("plan", FP) is None


class TestMaintenance:
    def test_stats_counts_entries_and_bytes_per_kind(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        tier.write("trace", FP, {"b": [1, 2]})
        stats = tier.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert set(stats["kinds"]) == {"plan", "trace"}
        assert stats["kinds"]["plan"]["entries"] == 1

    def test_clear_removes_everything(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        assert tier.clear() == 1
        assert tier.stats()["entries"] == 0

    def test_gc_removes_stray_tmp_and_old_versions(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        (tmp_path / f"v{STORE_VERSION}" / "plan" / "ab" / "crash.tmp").write_text("x")
        old = tmp_path / "v0" / "plan"
        old.mkdir(parents=True)
        (old / "stale.json").write_text("{}")
        outcome = tier.gc()
        assert outcome["removed_tmp"] == 1
        assert outcome["removed_old_versions"] == 1
        assert tier.read("plan", FP) is not None  # current data untouched

    def test_gc_trims_to_max_bytes_oldest_first(self, tmp_path):
        import os

        tier = DiskTier(tmp_path)
        fps = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for index, fp in enumerate(fps):
            tier.write("plan", fp, {"i": index})
            # Deterministic, strictly increasing mtimes.
            os.utime(tier.path("plan", fp), (1000 + index, 1000 + index))
        keep = tier.path("plan", fps[2]).stat().st_size
        outcome = tier.gc(max_bytes=keep)
        assert outcome["removed_artifacts"] == 2
        assert tier.read("plan", fps[2]) is not None
        assert tier.read("plan", fps[0]) is None

    def test_gc_rejects_negative_budget(self, tmp_path):
        with pytest.raises(StoreError):
            DiskTier(tmp_path).gc(max_bytes=-1)


def _reference_envelope(kind: str, fp: str, payload: dict) -> str:
    """The envelope as a sorted-key dump of the whole document, the
    writer's format before it spliced the serialized body in."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(
        {
            "schema": "megsim-store",
            "version": STORE_VERSION,
            "kind": kind,
            "fingerprint": fp,
            "payload_sha256": payload_digest(body),
            "payload": json.loads(body),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


class TestSplicedEnvelope:
    def test_bytes_match_full_envelope_dump_for_every_stage(self, tmp_path):
        request = PipelineRequest.create(
            "hcr", scale=0.02, cycle=CycleConfig(backend="vector")
        )
        persisted = [stage for stage in STAGES if stage.encode is not None]
        artifacts = {}
        for stage in persisted:
            materialize_stage(request, stage.name, artifacts=artifacts)
        fps = stage_fingerprints(request)
        tier = DiskTier(tmp_path)
        for stage in persisted:
            payload = stage.encode(artifacts[stage.name])
            written = tier.write(stage.kind, fps[stage.name], payload)
            path = tier.path(stage.kind, fps[stage.name])
            expected = _reference_envelope(
                stage.kind, fps[stage.name], payload
            )
            assert path.read_text() == expected, stage.name
            assert written == len(expected.encode("utf-8"))
            loaded = tier.read(stage.kind, fps[stage.name])
            assert loaded is not None, stage.name
            assert loaded == (json.loads(json.dumps(payload)), written)

    def test_bytes_match_for_awkward_payloads(self, tmp_path):
        tier = DiskTier(tmp_path)
        payloads = [
            {},
            {"z": [1.0, -0.0, 1e-300, 2.5e300], "a": {"y": None, "b": True}},
            {"text": "quote \" slash \\ unicode é ☃", "n": -7},
            {"nested": [[{"k": 0.1}], []], "float": 0.1 + 0.2},
        ]
        for index, payload in enumerate(payloads):
            fp = f"{index:02x}" + "f" * 62
            tier.write("estimate", fp, payload)
            text = tier.path("estimate", fp).read_text()
            assert text == _reference_envelope("estimate", fp, payload)
            assert tier.read("estimate", fp)[0] == payload

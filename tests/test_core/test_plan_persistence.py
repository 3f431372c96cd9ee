"""Tests for the sampling-plan document (what the plan stage stores)."""

import json

import pytest

from repro.core.features import build_feature_matrix
from repro.core.sampler import MEGsim, SamplingPlan
from repro.gpu.cycle_sim import CycleAccurateSimulator
from repro.gpu.functional_sim import FunctionalSimulator


@pytest.fixture
def plan(tiny_trace):
    return MEGsim().plan(tiny_trace)


def round_trip(plan: SamplingPlan) -> SamplingPlan:
    return SamplingPlan.from_dict(json.loads(json.dumps(plan.to_dict())))


class TestPersistence:
    def test_round_trip_clusters(self, plan):
        restored = round_trip(plan)
        assert restored.trace_name == plan.trace_name
        assert restored.total_frames == plan.total_frames
        assert restored.representative_frames == plan.representative_frames
        assert [c.members for c in restored.clusters] == [
            c.members for c in plan.clusters
        ]

    def test_round_trip_cluster_sizes(self, plan):
        """The restored clustering reports the real cluster populations.

        Regression: the placeholder KMeansResult used to carry all-zero
        labels, so ``search.clustering.cluster_sizes()`` lumped every
        frame into cluster 0 after a reload.
        """
        restored = round_trip(plan)
        original_sizes = [len(c.members) for c in plan.clusters]
        assert list(restored.search.clustering.cluster_sizes()) == (
            original_sizes
        )
        assert list(plan.search.clustering.cluster_sizes()) == original_sizes

    def test_round_trip_labels(self, plan):
        restored = round_trip(plan)
        labels = restored.search.clustering.labels
        for row, cluster in enumerate(restored.clusters):
            assert all(labels[frame] == row for frame in cluster.members)

    def test_round_trip_search_record(self, plan):
        restored = round_trip(plan)
        assert restored.search.chosen_k == plan.search.chosen_k
        assert restored.search.bic_scores == plan.search.bic_scores

    def test_restored_plan_estimates(self, plan, tiny_trace):
        """A reloaded plan drives sampling + extrapolation end to end."""
        restored = round_trip(plan)
        sim = CycleAccurateSimulator()
        reps = sim.simulate(
            tiny_trace, frame_ids=list(restored.representative_frames)
        )
        estimate = restored.estimate(
            dict(zip(reps.frame_ids, reps.frame_stats))
        )
        direct = plan.estimate(dict(zip(reps.frame_ids, reps.frame_stats)))
        assert estimate.cycles == pytest.approx(direct.cycles)

    def test_reduction_factor_preserved(self, plan):
        restored = round_trip(plan)
        assert restored.reduction_factor == pytest.approx(plan.reduction_factor)

    def test_stored_features_are_ignored(self, plan, tiny_trace):
        """Stores once persisted the N x D feature matrix in every plan;
        such payloads still decode, to the same plan."""
        profile = FunctionalSimulator().profile(tiny_trace)
        features, _ = build_feature_matrix(profile)
        legacy = {**plan.to_dict(), "features": features.tolist()}
        restored = SamplingPlan.from_dict(json.loads(json.dumps(legacy)))
        assert restored.to_dict() == plan.to_dict()

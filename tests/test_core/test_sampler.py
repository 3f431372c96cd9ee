"""Tests for the MEGsim facade and sampling plans."""

import numpy as np
import pytest

from repro.core.cluster_search import ClusterSearchResult
from repro.core.kmeans import KMeansResult
from repro.core.sampler import MEGsim, MEGsimOptions, SamplingPlan
from repro.errors import AnalysisError
from repro.gpu.cycle_sim import CycleAccurateSimulator
from repro.gpu.functional_sim import FunctionalSimulator


class TestPlan:
    def test_plan_from_trace(self, tiny_trace):
        plan = MEGsim().plan(tiny_trace)
        assert plan.trace_name == "tiny"
        assert plan.total_frames == 6
        assert 1 <= plan.selected_frame_count <= 6

    def test_tiny_trace_two_phases_found(self, tiny_trace):
        """The tiny trace has two clearly distinct halves."""
        plan = MEGsim().plan(tiny_trace)
        assert plan.selected_frame_count >= 2
        # The two halves must not share a cluster.
        for cluster in plan.clusters:
            members = set(cluster.members)
            assert members <= {0, 1, 2} or members <= {3, 4, 5}

    def test_representatives_sorted_unique(self, tiny_trace):
        plan = MEGsim().plan(tiny_trace)
        reps = plan.representative_frames
        assert list(reps) == sorted(set(reps))

    def test_reduction_factor(self, tiny_trace):
        plan = MEGsim().plan(tiny_trace)
        assert plan.reduction_factor == pytest.approx(
            6 / plan.selected_frame_count
        )

    def test_plan_from_profile_equivalent(self, tiny_trace):
        profile = FunctionalSimulator().profile(tiny_trace)
        from_profile = MEGsim().plan_from_profile(profile)
        from_trace = MEGsim().plan(tiny_trace)
        assert from_profile.representative_frames == from_trace.representative_frames

    def test_deterministic_per_seed(self, tiny_trace):
        a = MEGsim(MEGsimOptions(seed=5)).plan(tiny_trace)
        b = MEGsim(MEGsimOptions(seed=5)).plan(tiny_trace)
        assert a.representative_frames == b.representative_frames


def _clusterless_plan() -> SamplingPlan:
    """A structurally valid plan whose clusters tuple is empty."""
    clustering = KMeansResult(
        centroids=np.zeros((0, 0)),
        labels=np.zeros(0, dtype=np.int64),
        wcss=0.0,
        iterations=0,
    )
    search = ClusterSearchResult(
        clustering=clustering,
        chosen_k=0,
        explored_k=(),
        bic_scores=(),
        threshold=0.85,
    )
    return SamplingPlan(
        trace_name="empty",
        total_frames=6,
        clusters=(),
        search=search,
    )


class TestEmptyPlan:
    """A plan without clusters must fail loudly, not with ZeroDivision."""

    def test_reduction_factor_raises_analysis_error(self):
        with pytest.raises(AnalysisError, match="no clusters"):
            _clusterless_plan().reduction_factor

    def test_estimate_raises_analysis_error(self):
        with pytest.raises(AnalysisError, match="no clusters"):
            _clusterless_plan().estimate({})


class TestEstimate:
    def test_estimate_matches_ground_truth_on_tiny_trace(self, tiny_trace):
        """With near-identical frames per cluster the estimate is close.

        The 6-frame trace amplifies the cold-cache bias of sampling (the
        representative pays warm-up misses that 1/3 of the full run has
        already amortised — the ASSI problem of Section II-C), so the
        tolerance here is loose; realistic sequences land under 3 percent
        (see tests/test_integration.py).
        """
        plan = MEGsim().plan(tiny_trace)
        sim = CycleAccurateSimulator()
        full = sim.simulate(tiny_trace)
        reps = sim.simulate(tiny_trace, frame_ids=list(plan.representative_frames))
        estimate = plan.estimate(dict(zip(reps.frame_ids, reps.frame_stats)))
        truth = full.totals
        assert estimate.cycles == pytest.approx(truth.cycles, rel=0.25)
        assert estimate.fragments_shaded == pytest.approx(
            truth.fragments_shaded, rel=0.01
        )

    def test_estimate_exact_when_every_frame_selected(self, tiny_trace):
        plan = MEGsim(MEGsimOptions(threshold=1.0, max_k=6, patience=6)).plan(
            tiny_trace
        )
        sim = CycleAccurateSimulator()
        reps = sim.simulate(tiny_trace, frame_ids=list(plan.representative_frames))
        estimate = plan.estimate(dict(zip(reps.frame_ids, reps.frame_stats)))
        # Warm-cache full run differs from per-frame cold runs only through
        # cross-frame cache reuse; counts of shader work must match exactly.
        full = sim.simulate(tiny_trace)
        if plan.selected_frame_count == 6:
            assert estimate.fragments_shaded == pytest.approx(
                full.totals.fragments_shaded
            )

    def test_one_frame_per_cluster_reproduces_ground_truth(self, tiny_trace):
        """Every frame its own cluster: the estimate over the full run's
        per-frame stats is the full run's totals, field for field."""
        full = CycleAccurateSimulator().simulate(tiny_trace)
        plan = SamplingPlan.from_dict({
            "trace_name": tiny_trace.name,
            "total_frames": tiny_trace.frame_count,
            "clusters": [
                {"index": fid, "representative": fid, "members": [fid]}
                for fid in full.frame_ids
            ],
            "search": {"chosen_k": tiny_trace.frame_count, "explored_k": [],
                       "bic_scores": [], "threshold": 0.85},
        })
        assert sum(c.weight for c in plan.clusters) == tiny_trace.frame_count
        estimate = plan.estimate(dict(zip(full.frame_ids, full.frame_stats)))
        assert estimate == full.totals


class TestOptions:
    def test_options_hashable(self):
        assert hash(MEGsimOptions()) == hash(MEGsimOptions())

    def test_defaults_match_paper(self):
        options = MEGsimOptions()
        assert options.threshold == 0.85
        assert options.patience == 1
        assert options.features.weights == (0.108, 0.745, 0.147)

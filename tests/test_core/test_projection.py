"""Tests for random linear projection."""

import numpy as np
import pytest

from repro.errors import ClusteringError
from repro.core.projection import project_features, random_projection_matrix


class TestMatrix:
    def test_shape(self):
        assert random_projection_matrix(100, 15, seed=0).shape == (100, 15)

    def test_deterministic(self):
        a = random_projection_matrix(20, 5, seed=3)
        b = random_projection_matrix(20, 5, seed=3)
        assert np.array_equal(a, b)

    def test_invalid(self):
        with pytest.raises(ClusteringError):
            random_projection_matrix(0, 5)


class TestProjection:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        projected = project_features(rng.normal(size=(50, 100)), 15)
        assert projected.shape == (50, 15)

    def test_narrow_matrix_untouched(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(30, 8))
        projected = project_features(features, 15)
        assert np.array_equal(projected, features)
        assert projected is not features  # a copy, not an alias

    def test_distances_approximately_preserved(self):
        """Johnson-Lindenstrauss: relative distances survive projection."""
        rng = np.random.default_rng(2)
        features = rng.normal(size=(60, 400))
        projected = project_features(features, 64, seed=0)

        def pairwise(m):
            return np.linalg.norm(m[:, None, :] - m[None, :, :], axis=2)

        original = pairwise(features)
        reduced = pairwise(projected)
        mask = original > 0
        ratios = reduced[mask] / original[mask]
        assert 0.6 < ratios.mean() < 1.4
        assert ratios.std() < 0.25

    def test_separated_clusters_stay_separated(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, size=(40, 200))
        b = rng.normal(60.0, 1.0, size=(40, 200))
        projected = project_features(np.vstack([a, b]), 10, seed=1)
        pa, pb = projected[:40], projected[40:]
        gap = np.linalg.norm(pa.mean(axis=0) - pb.mean(axis=0))
        # Within-cluster spread (deviation from each cluster's own center).
        spread = max(
            (pa - pa.mean(axis=0)).std(), (pb - pb.mean(axis=0)).std()
        )
        assert gap > 5 * spread

    def test_invalid(self):
        with pytest.raises(ClusteringError):
            project_features(np.zeros((5, 10)), 0)
        with pytest.raises(ClusteringError):
            project_features(np.zeros(5), 3)


class TestSamplerIntegration:
    def test_projected_plan_covers_frames(self, tiny_trace):
        from repro.core.sampler import MEGsim, MEGsimOptions

        plan = MEGsim(MEGsimOptions(projection_dims=2)).plan(tiny_trace)
        assert sum(c.weight for c in plan.clusters) == tiny_trace.frame_count
        assert plan.search.clustering.centroids.shape[1] <= 3

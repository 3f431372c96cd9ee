"""Tests for the Table IV random sub-sampling study machinery."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.analysis.metrics import key_metric_errors
from repro.analysis.random_study import (
    megsim_error_distribution,
    random_error_at_k,
    random_frames_for_error,
)
from repro.analysis.runner import evaluate_benchmark
from repro.core.sampler import MEGsim, MEGsimOptions
from repro.gpu.stats import KEY_METRICS

SCALE = 0.02  # one small evaluation, shared with the runner tests' store
OPTIONS = MEGsimOptions()
TRIALS = 4


def phased_metric(n=300, seed=0) -> np.ndarray:
    """A per-frame metric with three flat phases plus noise."""
    rng = np.random.default_rng(seed)
    levels = np.repeat([100.0, 300.0, 150.0], n // 3)
    return levels + rng.normal(0, 5.0, size=levels.size)


class TestRandomErrorAtK:
    def test_k_equals_n_exact(self):
        values = phased_metric()
        rng = np.random.default_rng(0)
        assert random_error_at_k(values, values.size, 50, rng) == pytest.approx(0.0)

    def test_error_shrinks_with_k(self):
        values = phased_metric()
        rng = np.random.default_rng(0)
        few = random_error_at_k(values, 2, 400, rng)
        many = random_error_at_k(values, 100, 400, rng)
        assert many < few

    def test_invalid_k(self):
        with pytest.raises(AnalysisError):
            random_error_at_k(phased_metric(), 0, 10, np.random.default_rng(0))


class TestRandomFramesForError:
    def test_loose_target_needs_few_frames(self):
        values = phased_metric()
        assert random_frames_for_error(values, target_error=0.5, trials=200) <= 3

    def test_tight_target_needs_many_frames(self):
        values = phased_metric()
        loose = random_frames_for_error(values, 0.05, trials=200)
        tight = random_frames_for_error(values, 0.005, trials=200)
        assert tight > loose

    def test_found_k_meets_target(self):
        values = phased_metric()
        target = 0.02
        k = random_frames_for_error(values, target, trials=300, seed=1)
        check = random_error_at_k(values, k, 300, np.random.default_rng(99))
        assert check <= target * 1.6  # fresh draws, allow sampling noise

    def test_impossible_target_returns_n(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(1.0, 100.0, size=50)
        assert random_frames_for_error(values, 1e-12, trials=50) == 50

    def test_bad_target(self):
        with pytest.raises(AnalysisError):
            random_frames_for_error(phased_metric(), 0.0)


@pytest.fixture(scope="module")
def evaluation():
    return evaluate_benchmark("hcr", scale=SCALE)


@pytest.fixture(scope="module")
def distribution(evaluation):
    return megsim_error_distribution(
        evaluation.profile, evaluation.full, OPTIONS, trials=TRIALS
    )


@pytest.fixture(scope="module")
def trial_plans(evaluation):
    """Trial ``s``'s plan as the production planner builds it."""
    return [
        MEGsim(replace(OPTIONS, seed=seed)).plan_from_profile(evaluation.profile)
        for seed in range(TRIALS)
    ]


class TestMEGsimDistribution:
    def test_distribution_over_seeds(self, distribution):
        errors, selected = distribution
        assert set(errors) == set(KEY_METRICS)
        for metric_errors in errors.values():
            assert metric_errors.shape == (TRIALS,)
            assert np.all(metric_errors >= 0)
        assert selected.shape == (TRIALS,)
        assert np.all(selected >= 2)  # hcr has several phases
        assert np.max(errors["cycles"]) < 0.1

    def test_trials_are_production_plans(
        self, evaluation, distribution, trial_plans
    ):
        errors, selected = distribution
        full = evaluation.full
        stats_by_frame = dict(zip(full.frame_ids, full.frame_stats))
        for seed, plan in enumerate(trial_plans):
            assert selected[seed] == plan.selected_frame_count
            assert sum(c.weight for c in plan.clusters) == len(full.frame_ids)
            expected = key_metric_errors(
                plan.estimate(stats_by_frame), full.totals
            )
            assert {m: errors[m][seed] for m in KEY_METRICS} == expected

    def test_cycles_match_weighted_sum(
        self, evaluation, distribution, trial_plans
    ):
        """The population-weighted estimate as one array expression; it
        differs from ``plan.estimate`` only in summation order."""
        errors, _ = distribution
        values = evaluation.metric_vector("cycles")
        truth = float(values.sum())
        for seed, plan in enumerate(trial_plans):
            reps = np.array([c.representative for c in plan.clusters])
            weights = np.array(
                [c.weight for c in plan.clusters], dtype=np.float64
            )
            estimate = float((values[reps] * weights).sum())
            assert errors["cycles"][seed] == pytest.approx(
                abs(estimate - truth) / truth, rel=1e-12
            )

    def test_shape_mismatch(self, evaluation):
        with pytest.raises(AnalysisError):
            megsim_error_distribution(
                evaluation.profile, evaluation.representatives, OPTIONS,
                trials=1,
            )

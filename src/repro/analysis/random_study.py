"""Random sub-sampling comparison study (Section V-C, Table IV).

Two ingredients:

* :func:`megsim_error_distribution` — repeat MEGsim with different k-means
  initialisation seeds and collect the relative error of its estimate; the
  paper reports the maximum error at 95% confidence over 100 repetitions.
* :func:`random_frames_for_error` — grow the number of random
  representatives k until random sub-sampling's 95%-confidence error over
  many trials matches MEGsim's.  The paper grows k one by one; we use a
  geometric-then-bisection search for the same smallest matching k, which
  is much cheaper and equivalent for a monotonically improving error.

Both re-sample the *per-frame ground truth* (every frame was already
simulated once for the accuracy study), so re-sampling costs no
additional simulation — only planning and arithmetic.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import AnalysisError
from repro.analysis.metrics import key_metric_errors, percentile_abs_error
from repro.core.sampler import MEGsim, MEGsimOptions
from repro.gpu.cycle_sim import SequenceResult
from repro.gpu.functional_sim import SequenceProfile
from repro.gpu.stats import KEY_METRICS


def megsim_error_distribution(
    profile: SequenceProfile,
    truth: SequenceResult,
    options: MEGsimOptions,
    trials: int = 100,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Relative errors of MEGsim over ``trials`` k-means seeds.

    Trial ``s`` is the production plan of ``replace(options, seed=s)``,
    estimated with :meth:`~repro.core.sampler.SamplingPlan.estimate`.
    Its representatives' statistics are read from the full run rather
    than simulated in isolation, the one approximation of the study.

    Args:
        profile: the functional profile MEGsim plans from.
        truth: the cycle-accurate run of every frame of the sequence.
        options: MEGsim knobs; the seed is replaced per trial.
        trials: number of repetitions (the paper uses 100).

    Returns:
        ``(errors, selected_k)``: per key metric an array of ``trials``
        relative errors (:func:`~repro.analysis.metrics.key_metric_errors`),
        and the number of representatives of each trial.
    """
    if profile.frame_count != len(truth.frame_ids):
        raise AnalysisError(
            f"profile covers {profile.frame_count} frames, "
            f"ground truth {len(truth.frame_ids)}"
        )
    stats_by_frame = dict(zip(truth.frame_ids, truth.frame_stats))
    totals = truth.totals
    errors = {metric: np.empty(trials) for metric in KEY_METRICS}
    selected = np.empty(trials, dtype=np.int64)
    for trial in range(trials):
        plan = MEGsim(replace(options, seed=trial)).plan_from_profile(profile)
        trial_errors = key_metric_errors(plan.estimate(stats_by_frame), totals)
        for metric, error in trial_errors.items():
            errors[metric][trial] = error
        selected[trial] = plan.selected_frame_count
    return errors, selected


def random_error_at_k(
    values: np.ndarray,
    k: int,
    trials: int,
    rng: np.random.Generator,
    confidence: float = 95.0,
) -> float:
    """95%-confidence relative error of random sub-sampling with ``k`` reps.

    The sequence is split into ``k`` contiguous fixed-size ranges; each
    trial draws one uniform representative per range (exactly
    :func:`repro.core.random_baseline.random_sampling_plan`, vectorised
    over trials).
    """
    n = values.shape[0]
    if not 1 <= k <= n:
        raise AnalysisError(f"k must be in [1, {n}], got {k}")
    truth = float(values.sum())
    boundaries = np.linspace(0, n, k + 1).astype(int)
    estimates = np.zeros(trials)
    for index in range(k):
        start, stop = int(boundaries[index]), int(boundaries[index + 1])
        picks = rng.integers(start, stop, size=trials)
        estimates += values[picks] * (stop - start)
    errors = np.abs(estimates - truth) / truth
    return percentile_abs_error(errors, confidence)


def random_frames_for_error(
    values: np.ndarray,
    target_error: float,
    trials: int = 1000,
    seed: int = 0,
    confidence: float = 95.0,
) -> int:
    """Smallest k with random-sampling error at ``confidence`` <= target.

    Grows k geometrically until the target is met, then bisects.  Returns
    N (simulate everything) if even ``k = N - 1`` misses the target.
    """
    if target_error <= 0:
        raise AnalysisError(f"target_error must be > 0, got {target_error}")
    n = values.shape[0]
    rng = np.random.default_rng(seed)

    def error_at(k: int) -> float:
        return random_error_at_k(values, k, trials, rng, confidence)

    # Geometric growth to bracket the answer.
    k = 1
    while k < n and error_at(k) > target_error:
        k = min(int(k * 1.5) + 1, n)
    if k >= n and error_at(n) > target_error:
        return n
    low = max(1, int(k / 1.5))
    high = k
    while low < high:
        mid = (low + high) // 2
        if error_at(mid) <= target_error:
            high = mid
        else:
            low = mid + 1
    return high

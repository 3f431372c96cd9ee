"""Accuracy study: MEGsim vs random sub-sampling on one benchmark.

Reproduces the Section V-C comparison interactively for a single game:
how many frames does naive random sub-sampling need before its cycles
estimate (at 95% confidence over many trials) matches MEGsim's?

Run:  python examples/accuracy_study.py [alias] [scale]
"""

import sys

import numpy as np

from repro.analysis.metrics import percentile_abs_error
from repro.analysis.random_study import (
    megsim_error_distribution,
    random_error_at_k,
    random_frames_for_error,
)
from repro.analysis.runner import evaluate_benchmark
from repro.core.sampler import MEGsimOptions


def main() -> None:
    alias = sys.argv[1] if len(sys.argv) > 1 else "pvz"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2

    print(f"Evaluating {alias} at scale {scale}...")
    evaluation = evaluate_benchmark(alias, scale=scale)
    cycles = evaluation.metric_vector("cycles")

    print("MEGsim over 20 k-means seeds...")
    errors, selected = megsim_error_distribution(
        evaluation.profile, evaluation.full, MEGsimOptions(),
        trials=20,
    )
    megsim_error = percentile_abs_error(errors["cycles"], 95.0)
    megsim_frames = float(selected.mean())
    print(f"  frames: {megsim_frames:.0f}   "
          f"max rel.err (95% conf): {megsim_error * 100:.2f}%")

    print("\nRandom sub-sampling error vs number of representatives:")
    rng = np.random.default_rng(0)
    for k in (1, 4, 16, 64, 256):
        if k > cycles.size:
            break
        err = random_error_at_k(cycles, k, trials=500, rng=rng)
        print(f"  k={k:4d}  err(95%)={err * 100:6.2f}%")

    matched = random_frames_for_error(cycles, megsim_error, trials=500)
    print(f"\nFrames random sub-sampling needs to match MEGsim: {matched}")
    print(f"That is {matched / megsim_frames:.1f}x more frames than MEGsim "
          f"(paper Table IV average: 58.5x at full scale).")


if __name__ == "__main__":
    main()

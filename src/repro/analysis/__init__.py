"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.analysis.runner` — per-benchmark end-to-end evaluation
  (ground truth vs MEGsim), cached so multiple experiments share work.
* :mod:`repro.analysis.random_study` — the Section V-C random
  sub-sampling comparison (Table IV).
* :mod:`repro.analysis.experiments` — one function per table/figure,
  returning structured results plus a rendered text report.
* :mod:`repro.analysis.ablation` — sensitivity studies beyond the paper
  (feature weights, BIC threshold T).
* :mod:`repro.analysis.tables` — ASCII table/bar rendering.
"""

from repro.analysis.metrics import (
    key_metric_errors,
    percentile_abs_error,
    relative_error,
)
from repro.analysis.runner import BenchmarkEvaluation, evaluate_benchmark, clear_cache
from repro.analysis.random_study import (
    megsim_error_distribution,
    random_frames_for_error,
)
from repro.analysis.experiments import EXPERIMENTS, run_experiment

__all__ = [
    "relative_error",
    "key_metric_errors",
    "percentile_abs_error",
    "BenchmarkEvaluation",
    "evaluate_benchmark",
    "clear_cache",
    "megsim_error_distribution",
    "random_frames_for_error",
    "EXPERIMENTS",
    "run_experiment",
]

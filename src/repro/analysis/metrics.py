"""Error metrics used throughout the evaluation."""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError


def relative_error(estimate: float, truth: float) -> float:
    """Absolute relative error ``|estimate - truth| / truth``.

    Raises:
        AnalysisError: when ``truth`` is zero (the metric cannot be scored).
    """
    if truth == 0:
        raise AnalysisError("relative error undefined for a zero ground truth")
    return abs(estimate - truth) / abs(truth)


def percentile_abs_error(errors: np.ndarray, confidence: float = 95.0) -> float:
    """The paper's "maximum relative error at 95% confidence".

    Section V-C: the maximum error after discarding the worst
    ``100 - confidence`` percent of trials — i.e. the ``confidence``-th
    percentile of the absolute error distribution.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise AnalysisError("no error samples")
    if not 0.0 < confidence <= 100.0:
        raise AnalysisError(f"confidence must be in (0, 100], got {confidence}")
    # "Maximum after removing the worst 5%": the order statistic at the
    # confidence rank, not an interpolated value that would blend in the
    # discarded tail.
    return float(np.percentile(np.abs(errors), confidence, method="lower"))


def failed_claims(checks: dict[str, bool]) -> list[str]:
    """The paper-shape claims that did not hold.

    ``checks`` maps a human-readable claim (with its measured value) to
    whether it held; the result keeps the failing claims in order.
    """
    return [claim for claim, held in checks.items() if not held]

"""BIC-driven choice of the number of clusters (Section III-F).

MEGsim starts from a single cluster and increases k, scoring every
clustering with the BIC.  The search stops as soon as a BIC score lower
than the previous one is obtained.  The chosen clustering is then the one
whose BIC reaches at least ``T`` of the spread between the smallest and the
largest observed score (the paper's threshold T = 0.85): higher T means
more clusters and more accuracy, lower T fewer clusters — the trade-off
Section III-F discusses.

The sweep is *warm-started*: the k-cluster run is seeded from the
(k-1)-cluster solution plus a split of its largest-WCSS cluster
(:func:`repro.core.xmeans.split_seed_centroids`), so each k costs exactly
one Lloyd run over the full dataset instead of best-of-N k-means++
restarts.  Consecutive k share almost all structure — re-seeding
from scratch rediscovers it every time; splitting refines it.  The split
is accepted only when the two-cluster model of the split cluster's own
points scores a higher local BIC than the one-cluster model (x-means'
improve-structure test); when no cluster passes, the structure is
saturated and the sweep stops without waiting for the global BIC to turn
down.  Because the warm-started curve is near-monotone (each k refines
the previous solution rather than re-rolling the dice), the paper's
first-decrease stop is supplemented by a plateau tolerance: a BIC gain
under ``plateau`` of the observed spread counts as a decrease.  Very
large datasets additionally switch the full Lloyd runs to minibatch
updates (:func:`repro.core.kmeans.minibatch_kmeans`) past
``minibatch_threshold`` points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError
from repro.core.bic import bic_score
from repro.core.kmeans import KMeansResult, kmeans, minibatch_kmeans
from repro.core.xmeans import split_seed_centroids
from repro.obs import counter, observe, span

#: The paper's empirically chosen BIC-spread threshold.
PAPER_THRESHOLD = 0.85

#: Dataset size past which the sweep's full-N Lloyd runs switch to
#: minibatch updates.  Far above any paper-scale workload (hundreds to a
#: few thousand frames): the minibatch path exists for bulk re-analysis
#: over concatenated trace corpora, not the standard pipeline.
MINIBATCH_THRESHOLD = 100_000

#: Fraction of the observed BIC spread below which a step's improvement
#: counts as a decrease for the stopping rule.  The paper stops at the
#: first literal decrease — a rule tuned to a noisy best-of-restarts
#: curve, where an unlucky restart supplies the downturn early.  The
#: warm-started curve is near-monotone, so without a tolerance it keeps
#: climbing by slivers long after the selection threshold T has stopped
#: caring; a gain under 1% of the spread cannot move the T = 0.85 cutoff
#: by a meaningful amount.
PLATEAU_FRACTION = 0.01

_MASK64 = (1 << 64) - 1


def _mix_seed(seed: int, k: int, attempt: int) -> int:
    """Derive a well-separated RNG seed for one (k, attempt) pair.

    The previous scheme (``seed + attempt * 9973``) ignored k entirely:
    every candidate k re-used the same seed set, and nearby base seeds
    aliased each other's attempt seeds.  A splitmix64-style finalizer
    decorrelates all three inputs so distinct (seed, k, attempt) triples
    map to distinct, unrelated generator streams.
    """
    x = (
        seed * 0x9E3779B97F4A7C15
        + k * 0xBF58476D1CE4E5B9
        + attempt * 0x94D049BB133111EB
        + 0x9E3779B97F4A7C15
    ) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class ClusterSearchResult:
    """Outcome of the BIC cluster search.

    Attributes:
        clustering: the chosen k-means result.
        chosen_k: its number of clusters.
        explored_k: every k evaluated, in order.
        bic_scores: the BIC score of each explored k (same order).
        threshold: the T value used for the final selection.
    """

    clustering: KMeansResult
    chosen_k: int
    explored_k: tuple[int, ...]
    bic_scores: tuple[float, ...]
    threshold: float

    @property
    def bic_by_k(self) -> dict[int, float]:
        """Mapping from explored k to its BIC score."""
        return dict(zip(self.explored_k, self.bic_scores))


def search_clustering(
    points: np.ndarray,
    threshold: float = PAPER_THRESHOLD,
    seed: int = 0,
    max_k: int | None = None,
    patience: int = 1,
    minibatch_threshold: int = MINIBATCH_THRESHOLD,
    plateau: float = PLATEAU_FRACTION,
) -> ClusterSearchResult:
    """Find the MEGsim clustering of ``points``.

    Args:
        points: N x D feature matrix.
        threshold: BIC-spread fraction T of the final selection.
        seed: k-means initialisation seed.
        max_k: optional hard cap on the explored k (defaults to N).
        patience: number of consecutive BIC decreases tolerated before
            stopping.  The paper stops at the first decrease
            (``patience=1``); larger values make the search robust to a
            noisy BIC bump at small k.  The sweep needs no k-means++
            restarts: every k > 1 is seeded from the already-converged
            k-1 solution, so a single unlucky draw cannot dent the BIC
            curve.
        minibatch_threshold: dataset size past which the per-k Lloyd
            runs use minibatch updates instead of full-batch assignment
            (default :data:`MINIBATCH_THRESHOLD`; never reached by
            paper-scale workloads).
        plateau: a BIC gain under this fraction of the observed spread
            counts as a decrease for the stopping rule (default
            :data:`PLATEAU_FRACTION`).  ``0.0`` restores the paper's
            literal first-decrease stop.

    Raises:
        ClusteringError: on invalid arguments or empty data.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ClusteringError(f"invalid points shape {points.shape}")
    if not 0.0 <= threshold <= 1.0:
        raise ClusteringError(f"threshold must be in [0, 1], got {threshold}")
    if patience < 1:
        raise ClusteringError(f"patience must be >= 1, got {patience}")
    if minibatch_threshold < 1:
        raise ClusteringError(
            f"minibatch_threshold must be >= 1, got {minibatch_threshold}"
        )
    if not 0.0 <= plateau < 1.0:
        raise ClusteringError(f"plateau must be in [0, 1), got {plateau}")
    n = points.shape[0]
    cap = n if max_k is None else min(max_k, n)
    if cap < 1:
        raise ClusteringError(f"max_k must be >= 1, got {max_k}")

    def run_kmeans(k: int, initial_centroids: np.ndarray | None) -> KMeansResult:
        """One full-dataset clustering run at k (the unit kmeans_runs counts)."""
        if n > minibatch_threshold:
            return minibatch_kmeans(
                points,
                k,
                seed=_mix_seed(seed, k, 0),
                initial_centroids=initial_centroids,
            )
        return kmeans(
            points,
            k,
            seed=_mix_seed(seed, k, 0),
            initial_centroids=initial_centroids,
        )

    clusterings: list[KMeansResult] = []
    scores: list[float] = []
    decreases = 0
    with span("cluster.search", frames=n, max_k=cap):
        for k in range(1, cap + 1):
            with span("cluster.k", k=k):
                warm = None
                if k > 1:
                    # Seed from the previous solution plus a split of its
                    # largest-WCSS cluster; the split's local 2-means runs
                    # over one cluster's members only, so it is not a
                    # full-dataset run (counted separately below).
                    warm = split_seed_centroids(
                        points, clusterings[-1], _mix_seed(seed, k, 1)
                    )
                    if warm is None:
                        # No cluster's split improves its local BIC: the
                        # structure is saturated (x-means' convergence
                        # test), so larger k could only subdivide clusters
                        # whose own points reject a finer model.  Stop
                        # before paying a full-dataset run for a k the
                        # global BIC is about to reject anyway.
                        break
                    counter("cluster.split_kmeans_runs")
                result = run_kmeans(k, warm)
                score = bic_score(points, result)
            counter("cluster.kmeans_runs")
            counter("cluster.kmeans_iterations", result.iterations)
            # Integral samples only: shared-name histograms must merge
            # with exact sums across worker buffers (docs/observability.md).
            observe("cluster.kmeans_iterations", result.iterations)
            clusterings.append(result)
            scores.append(score)
            # A gain smaller than ``plateau`` of the spread observed so
            # far is treated as a decrease: the warm-started curve never
            # supplies the noisy early downturn the paper's literal rule
            # relies on, but a flat curve is the same signal.
            margin = plateau * (max(scores) - min(scores))
            if len(scores) >= 2 and score - scores[-2] < margin:
                decreases += 1
                if decreases >= patience:
                    break
            else:
                decreases = 0
        counter("cluster.searches")
        counter("cluster.k_explored", len(scores))

    best = max(scores)
    worst = min(scores)
    cutoff = worst + threshold * (best - worst)
    # Smallest k whose BIC reaches the cutoff (ties resolved toward fewer
    # clusters, hence fewer frames to simulate).
    chosen_index = next(i for i, s in enumerate(scores) if s >= cutoff)
    return ClusterSearchResult(
        clustering=clusterings[chosen_index],
        chosen_k=clusterings[chosen_index].k,
        explored_k=tuple(c.k for c in clusterings),
        bic_scores=tuple(scores),
        threshold=threshold,
    )

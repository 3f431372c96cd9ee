"""The MEGsim facade: end-to-end sampling methodology (Section III).

:class:`MEGsim` glues the stages together:

functional profile -> feature matrix -> BIC-driven k-means -> clusters with
representatives -> (simulate representatives) -> extrapolated statistics.

The class is deliberately stateless between calls; every knob lives in
:class:`MEGsimOptions` so design-space sweeps are plain data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AnalysisError, ClusteringError
from repro.core.cluster_search import (
    ClusterSearchResult,
    PAPER_THRESHOLD,
    search_clustering,
)
from repro.core.extrapolation import extrapolate_statistics
from repro.core.features import FeatureOptions, build_feature_matrix
from repro.core.representatives import Cluster, select_representatives
from repro.gpu.functional_sim import FunctionalSimulator, SequenceProfile
from repro.gpu.stats import FrameStats
from repro.obs import counter, gauge, span
from repro.scene.trace import WorkloadTrace


@dataclass(frozen=True, slots=True)
class MEGsimOptions:
    """Configuration of one MEGsim run.

    Attributes:
        features: feature-matrix construction knobs.
        threshold: BIC-spread selection threshold T (paper: 0.85).
        seed: k-means initialisation seed (varied to obtain MEGsim's
            accuracy distribution in Section V-C).
        max_k: optional cap on the explored cluster counts.
        patience: consecutive BIC decreases tolerated before the search
            stops (paper: 1).
        cluster_method: ``"bic-search"`` (the paper's linear sweep over
            k), ``"xmeans"`` (Pelleg/Moore recursive splitting,
            :mod:`repro.core.xmeans`) or ``"agglomerative"`` (Ward-linkage
            hierarchy cut by the same BIC rule,
            :mod:`repro.core.linkage`).
        projection_dims: optional SimPoint-style random projection of the
            feature matrix down to this many dimensions before clustering
            (:mod:`repro.core.projection`); ``None`` clusters the raw
            vectors like the paper.
    """

    features: FeatureOptions = field(default_factory=FeatureOptions)
    threshold: float = PAPER_THRESHOLD
    seed: int = 0
    max_k: int | None = None
    patience: int = 1
    cluster_method: str = "bic-search"
    projection_dims: int | None = None


@dataclass(frozen=True)
class SamplingPlan:
    """The outcome of MEGsim's analysis of one sequence.

    Attributes:
        trace_name: benchmark alias the plan belongs to.
        total_frames: frames in the full sequence.
        clusters: the selected clusters with their representatives.
        search: the full BIC search record (for diagnostics/plots).
    """

    trace_name: str
    total_frames: int
    clusters: tuple[Cluster, ...]
    search: ClusterSearchResult

    @property
    def representative_frames(self) -> tuple[int, ...]:
        """Frame ids that must be simulated cycle-accurately (sorted)."""
        return tuple(sorted(c.representative for c in self.clusters))

    @property
    def selected_frame_count(self) -> int:
        """Number of frames MEGsim selects for simulation."""
        return len(self.clusters)

    @property
    def reduction_factor(self) -> float:
        """Full-sequence frames divided by selected frames (Table III).

        Raises:
            AnalysisError: when the plan holds no clusters (possible for
                plans constructed directly rather than via
                :meth:`MEGsim.plan`).
        """
        if not self.clusters:
            raise AnalysisError(
                f"plan for {self.trace_name!r} has no clusters; "
                "reduction_factor is undefined"
            )
        return self.total_frames / self.selected_frame_count

    def estimate(self, representative_stats: dict[int, FrameStats]) -> FrameStats:
        """Extrapolate representative statistics to the full sequence.

        Raises:
            AnalysisError: when the plan holds no clusters — there is
                nothing to scale, and silently returning zero statistics
                would masquerade as a measurement.
        """
        if not self.clusters:
            raise AnalysisError(
                f"plan for {self.trace_name!r} has no clusters; "
                "cannot extrapolate statistics"
            )
        return extrapolate_statistics(self.clusters, representative_stats)

    # ------------------------------------------------------------------
    # Persistence: a plan computed once (the functional pass + clustering)
    # can be reused across many cycle-accurate design-space runs, possibly
    # in different sessions.  The search trace is diagnostic; only the
    # clusters are needed to sample and extrapolate.  The feature matrix
    # is not kept: ``build_feature_matrix(profile)`` rebuilds it.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation (clusters + search record)."""
        return {
            "trace_name": self.trace_name,
            "total_frames": self.total_frames,
            "clusters": [
                {
                    "index": c.index,
                    "representative": c.representative,
                    "members": list(c.members),
                }
                for c in self.clusters
            ],
            "search": {
                "chosen_k": self.search.chosen_k,
                "explored_k": list(self.search.explored_k),
                "bic_scores": list(self.search.bic_scores),
                "threshold": self.search.threshold,
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SamplingPlan":
        """Rebuild a plan saved with :meth:`to_dict`.

        A ``features`` key, which older stores persisted with every plan,
        is ignored.  The search's clustering is a placeholder without
        centroids, but its labels are rebuilt from the persisted cluster
        members (one label row per cluster, in cluster order), so
        diagnostics like ``search.clustering.cluster_sizes()`` report the
        real cluster populations instead of lumping every frame into
        cluster 0.
        """
        from repro.core.kmeans import KMeansResult

        clusters = tuple(
            Cluster(
                index=c["index"],
                representative=c["representative"],
                members=tuple(c["members"]),
                weight=len(c["members"]),
            )
            for c in payload["clusters"]
        )
        search_payload = payload["search"]
        labels = np.zeros(payload["total_frames"], dtype=np.int64)
        for row, cluster in enumerate(clusters):
            labels[list(cluster.members)] = row
        placeholder = KMeansResult(
            centroids=np.zeros((len(clusters), 0)),
            labels=labels,
            wcss=0.0,
            iterations=0,
        )
        search = ClusterSearchResult(
            clustering=placeholder,
            chosen_k=search_payload["chosen_k"],
            explored_k=tuple(search_payload["explored_k"]),
            bic_scores=tuple(search_payload["bic_scores"]),
            threshold=search_payload["threshold"],
        )
        return cls(
            trace_name=payload["trace_name"],
            total_frames=payload["total_frames"],
            clusters=clusters,
            search=search,
        )


class MEGsim:
    """The sampling methodology, ready to apply to profiles or traces."""

    def __init__(self, options: MEGsimOptions | None = None) -> None:
        self.options = options if options is not None else MEGsimOptions()

    def plan_from_profile(self, profile: SequenceProfile) -> SamplingPlan:
        """Run the methodology on an existing functional profile."""
        with span(
            "megsim.plan",
            trace=profile.trace_name,
            frames=profile.frame_count,
            method=self.options.cluster_method,
        ):
            plan = self._plan_from_profile(profile)
            counter("megsim.plans")
            counter("megsim.representatives", plan.selected_frame_count)
            gauge("megsim.chosen_k", plan.search.chosen_k)
        return plan

    def _plan_from_profile(self, profile: SequenceProfile) -> SamplingPlan:
        opts = self.options
        features, _ = build_feature_matrix(profile, opts.features)
        if opts.projection_dims is not None:
            from repro.core.projection import project_features

            features = project_features(
                features, opts.projection_dims, seed=opts.seed
            )
        if opts.cluster_method == "bic-search":
            search = search_clustering(
                features,
                threshold=opts.threshold,
                seed=opts.seed,
                max_k=opts.max_k,
                patience=opts.patience,
            )
        elif opts.cluster_method == "agglomerative":
            from repro.core.linkage import agglomerative_search

            search = agglomerative_search(
                features,
                threshold=opts.threshold,
                max_k=opts.max_k,
                patience=opts.patience,
            )
        elif opts.cluster_method == "xmeans":
            from repro.core.bic import bic_score
            from repro.core.xmeans import xmeans

            clustering = xmeans(features, k_max=opts.max_k, seed=opts.seed)
            search = ClusterSearchResult(
                clustering=clustering,
                chosen_k=clustering.k,
                explored_k=(clustering.k,),
                bic_scores=(bic_score(features, clustering),),
                threshold=opts.threshold,
            )
        else:
            raise ClusteringError(
                f"unknown cluster_method {opts.cluster_method!r}; "
                "use 'bic-search', 'xmeans' or 'agglomerative'"
            )
        clusters = select_representatives(features, search.clustering)
        return SamplingPlan(
            trace_name=profile.trace_name,
            total_frames=profile.frame_count,
            clusters=clusters,
            search=search,
        )

    def plan(self, trace: WorkloadTrace) -> SamplingPlan:
        """Functionally profile ``trace`` and run the methodology on it."""
        profile = FunctionalSimulator().profile(trace)
        return self.plan_from_profile(profile)

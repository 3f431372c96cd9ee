"""Phase recovery study: does clustering find the *real* gameplay phases?

A study only a synthetic workload enables: the generator knows which
archetype produced every frame, so MEGsim's clustering can be scored
against that ground truth with the Adjusted Rand Index.  The paper can
only validate clusters indirectly (through the accuracy of the sampled
statistics); this closes the loop on the mechanism — accurate statistics
*because* the clusters track the true phase structure.

Note MEGsim legitimately splits one archetype into several clusters when
its intensity drifts (sub-phases), which lowers ARI without hurting
sampling accuracy; the homogeneity score (does each cluster stay inside
one true phase?) is the tighter mechanism check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import failed_claims
from repro.analysis.tables import render_table
from repro.core.rand_index import adjusted_rand_index
from repro.core.sampler import MEGsim, MEGsimOptions
from repro.gpu.functional_sim import FunctionalSimulator
from repro.workloads.benchmarks import benchmark_aliases, benchmark_spec
from repro.workloads.generator import GameWorkloadGenerator


@dataclass(frozen=True)
class PhaseRecoveryResult:
    """Clustering-vs-ground-truth agreement for one benchmark."""

    alias: str
    true_phases: int
    found_clusters: int
    ari: float
    homogeneity: float


def cluster_homogeneity(cluster_labels, true_labels) -> float:
    """Fraction of frames whose cluster is dominated by their true phase.

    For each cluster, its *majority* true phase is found; the score is the
    fraction of all frames belonging to their cluster's majority phase.
    1.0 means every cluster lies entirely within one true phase.
    """
    cluster_labels = np.asarray(cluster_labels)
    true_arr = np.asarray(true_labels)
    matched = 0
    for cluster in np.unique(cluster_labels):
        members = true_arr[cluster_labels == cluster]
        _, counts = np.unique(members, return_counts=True)
        matched += int(counts.max())
    return matched / true_arr.shape[0]


def phase_recovery_study(
    aliases: tuple[str, ...] | None = None,
    scale: float = 1.0,
    options: MEGsimOptions | None = None,
) -> tuple[list[PhaseRecoveryResult], str]:
    """Score MEGsim's clusters against the generator's phase labels."""
    if aliases is None:
        aliases = benchmark_aliases()
    sampler = MEGsim(options)
    functional = FunctionalSimulator()
    results = []
    for alias in aliases:
        spec = benchmark_spec(alias)
        if scale != 1.0:
            spec = spec.scaled(scale)
        trace, true_labels = GameWorkloadGenerator(spec).generate_labeled()
        profile = functional.profile(trace)
        plan = sampler.plan_from_profile(profile)
        cluster_labels = plan.search.clustering.labels
        results.append(
            PhaseRecoveryResult(
                alias=alias,
                true_phases=len(spec.phases),
                found_clusters=plan.selected_frame_count,
                ari=adjusted_rand_index(cluster_labels, true_labels),
                homogeneity=cluster_homogeneity(cluster_labels, true_labels),
            )
        )
    rows = [
        [r.alias, str(r.true_phases), str(r.found_clusters),
         f"{r.ari:.3f}", f"{r.homogeneity:.3f}"]
        for r in results
    ]
    rows.append([
        "Average", "-", "-",
        f"{np.mean([r.ari for r in results]):.3f}",
        f"{np.mean([r.homogeneity for r in results]):.3f}",
    ])
    report = render_table(
        ["bench", "true phases", "clusters", "ARI", "homogeneity"],
        rows,
        title=(
            f"Phase recovery (scale={scale}): MEGsim clusters vs the "
            "generator's ground-truth gameplay phases"
        ),
    )
    return results, report


def phase_recovery_claims(data: dict, scale: float) -> list[str]:
    """Clusters lie overwhelmingly inside single true phases: the
    mechanism behind the accurate extrapolation."""
    checks = {}
    for r in data["points"]:
        checks[f"{r.alias}: homogeneity {r.homogeneity:.3f} > 0.7"] = (
            r.homogeneity > 0.7
        )
        checks[f"{r.alias}: ARI {r.ari:.3f} > 0.15"] = r.ari > 0.15
    return failed_claims(checks)

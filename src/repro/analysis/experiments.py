"""One function per table/figure of the paper's evaluation.

Every experiment returns an :class:`ExperimentResult` holding structured
``data`` (for tests and further analysis) and a rendered text ``report``
(what ``megsim run`` / ``megsim all`` print).  Paper reference values are
embedded so reports show paper-vs-measured side by side.

Three name-keyed tables drive the paper campaign (``megsim all``):
:data:`EXPERIMENTS` (the callables, in campaign order),
:func:`experiment_kwargs` (each step's arguments at a given scale) and
:data:`CLAIMS` (each step's paper-shape claims, checked after the run).

The ``scale`` argument shortens every sequence while preserving its phase
structure; ``scale=1.0`` reproduces the paper's full frame counts (used for
EXPERIMENTS.md), smaller values keep the campaign fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.analysis.random_study import (
    megsim_error_distribution,
    random_frames_for_error,
)
from repro.analysis.ablation import (
    cluster_method_claims,
    cluster_method_study,
    rendering_mode_claims,
    rendering_mode_study,
    scale_convergence_claims,
    scale_convergence_study,
    threshold_sweep,
    threshold_sweep_claims,
    warmup_claims,
    warmup_study,
    weight_ablation,
    weight_ablation_claims,
)
from repro.analysis.metrics import failed_claims, percentile_abs_error
from repro.analysis.phase_recovery import (
    phase_recovery_claims,
    phase_recovery_study,
)
from repro.analysis.runner import evaluate_benchmark
from repro.analysis.tables import render_bars, render_grouped_bars, render_table
from repro.core.correlation import multiple_correlation, pearson_correlation
from repro.core.features import build_feature_matrix
from repro.core.sampler import MEGsimOptions
from repro.core.similarity import render_similarity_matrix, similarity_matrix
from repro.errors import AnalysisError
from repro.gpu.config import default_config
from repro.gpu.stats import KEY_METRICS
from repro.obs import span
from repro.pipeline import PipelineRequest, materialize_stage
from repro.store import get_store
from repro.workloads.benchmarks import BENCHMARKS, benchmark_aliases

#: Paper reference numbers, used in side-by-side reports.
PAPER_TABLE2 = {
    # alias: (frames, vertex shaders, fragment shaders, cycles [millions], IPC)
    "asp": (4000, 42, 45, 107811, 4.34),
    "bbr1": (2500, 73, 62, 39839, 4.91),
    "bbr2": (4000, 66, 59, 58317, 4.95),
    "hcr": (2000, 5, 5, 10111, 6.51),
    "hwh": (4000, 30, 30, 86791, 4.71),
    "jjo": (5000, 4, 5, 41219, 5.61),
    "pvz": (5000, 4, 5, 39534, 4.66),
    "spd": (5000, 16, 26, 75938, 6.10),
}
PAPER_TABLE3 = {
    # alias: (MEGsim frames, reduction factor)
    "asp": (23, 174), "bbr1": (40, 63), "bbr2": (47, 85), "hcr": (27, 74),
    "hwh": (30, 133), "jjo": (28, 179), "pvz": (30, 167), "spd": (37, 135),
}
PAPER_TABLE4 = {
    # alias: (max rel error %, MEGsim frames, random frames, reduction)
    "asp": (1.49, 23, 1262, 54.9), "bbr1": (2.53, 40, 349, 8.7),
    "bbr2": (1.91, 47, 418, 8.9), "hcr": (0.11, 27, 1960, 72.6),
    "hwh": (1.11, 30, 1243, 41.4), "jjo": (0.30, 28, 3193, 114.0),
    "pvz": (0.09, 30, 4852, 161.7), "spd": (3.86, 37, 213, 5.8),
}
#: Figure 7 paper averages per metric (percent).
PAPER_FIG7_AVG = {
    "cycles": 0.84,
    "dram_accesses": 0.99,
    "l2_accesses": 1.2,
    "tile_cache_accesses": 0.86,
}
#: Figure 4 paper average power fractions (Geometry, Raster, Tiling).
PAPER_FIG4_AVG = (0.108, 0.745, 0.147)


@dataclass(frozen=True)
class ExperimentResult:
    """Structured data plus a printable report for one experiment."""

    name: str
    data: dict
    report: str


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}%"


# ----------------------------------------------------------------------
# Table I.
# ----------------------------------------------------------------------

def table1_config() -> ExperimentResult:
    """Table I: the baseline GPU simulation parameters."""
    config = default_config()
    rows = [
        ["Frequency", f"{config.frequency_mhz} MHz"],
        ["Voltage", f"{config.voltage} V"],
        ["Technology node", f"{config.technology_nm} nm"],
        ["Screen Resolution", f"{config.screen_width}x{config.screen_height}"],
        ["Tile Size", f"{config.tile_size}x{config.tile_size} pixels"],
        ["DRAM Frequency", f"{config.dram.frequency_mhz} MHz"],
        ["DRAM Latency",
         f"{config.dram.min_latency_cycles}-{config.dram.max_latency_cycles} cycles"],
        ["DRAM Bandwidth", f"{config.dram.bandwidth_bytes_per_cycle} B/cycle"],
        ["DRAM Line Size", f"{config.dram.line_bytes} bytes"],
        ["DRAM Size", f"{config.dram.size_bytes >> 30} GiB, {config.dram.banks} banks"],
        ["Vertex Cache", f"{config.vertex_cache.size_bytes >> 10} KiB"],
        ["Texture Caches (x4)", f"{config.texture_cache.size_bytes >> 10} KiB"],
        ["Tile Cache", f"{config.tile_cache.size_bytes >> 10} KiB"],
        ["L2 Cache",
         f"{config.l2_cache.size_bytes >> 10} KiB, {config.l2_cache.banks} banks, "
         f"{config.l2_cache.latency_cycles} cycles"],
        ["Vertex Processors", str(config.vertex_processors)],
        ["Fragment Processors", str(config.fragment_processors)],
        ["Early Z-Test", f"{config.early_z_inflight_quads} in-flight quad-fragments"],
    ]
    report = render_table(["Parameter", "Value"], rows,
                          title="Table I: GPU simulation parameters")
    return ExperimentResult("table1", {"config": config}, report)


def table1_claims(data: dict, scale: float) -> list[str]:
    """Table I: the baseline GPU runs at the paper's 600 MHz."""
    frequency = data["config"].frequency_mhz
    return failed_claims({
        f"frequency {frequency} MHz == 600 MHz": frequency == 600,
    })


# ----------------------------------------------------------------------
# Table II.
# ----------------------------------------------------------------------

def table2_benchmarks(scale: float = 1.0) -> ExperimentResult:
    """Table II: the benchmark set and its simulated characteristics."""
    rows = []
    data = {}
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        totals = evaluation.totals
        spec = BENCHMARKS[alias]
        cycles_m = totals.cycles / 1e6
        paper = PAPER_TABLE2[alias]
        data[alias] = {
            "frames": evaluation.profile.frame_count,
            "vertex_shaders": spec.vertex_shader_count,
            "fragment_shaders": spec.fragment_shader_count,
            "cycles_millions": cycles_m,
            "ipc": totals.ipc,
        }
        rows.append([
            alias, spec.game_type, str(evaluation.profile.frame_count),
            str(spec.vertex_shader_count), str(spec.fragment_shader_count),
            f"{cycles_m:.0f}", f"{paper[3] * scale:.0f}",
            f"{totals.ipc:.2f}", f"{paper[4]:.2f}",
        ])
    report = render_table(
        ["bench", "type", "frames", "VS", "FS",
         "cycles(M)", "paper(M)", "IPC", "paperIPC"],
        rows,
        title=f"Table II: evaluated benchmark set (scale={scale})",
    )
    return ExperimentResult("table2", data, report)


def table2_claims(data: dict, scale: float) -> list[str]:
    """Table II shape: 3D games burn more cycles per frame than 2D games."""
    per_frame = {
        alias: entry["cycles_millions"] / entry["frames"]
        for alias, entry in data.items()
    }
    heaviest_2d = max(per_frame[a] for a in ("hcr", "jjo", "pvz"))
    return failed_claims({
        "every benchmark evaluated": set(data) == set(benchmark_aliases()),
        f"asp cycles/frame {per_frame['asp']:.3f}M > heaviest 2D "
        f"{heaviest_2d:.3f}M": per_frame["asp"] > heaviest_2d,
    })


# ----------------------------------------------------------------------
# Figure 3.
# ----------------------------------------------------------------------

def fig3_correlation(scale: float = 1.0) -> ExperimentResult:
    """Figure 3: correlation of the input parameters with total cycles."""
    data = {}
    rows = []
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        profile = evaluation.profile
        cycles = evaluation.metric_vector("cycles")
        vscv = profile.vscv_matrix() * profile.vertex_shader_weights
        fscv = profile.fscv_matrix() * profile.fragment_shader_weights
        shaders = np.concatenate([vscv, fscv], axis=1)
        entry = {
            "vscv": multiple_correlation(vscv, cycles),
            "fscv": multiple_correlation(fscv, cycles),
            "shaders": multiple_correlation(shaders, cycles),
            "prim": pearson_correlation(profile.prim_vector(), cycles),
        }
        data[alias] = entry
        rows.append([alias] + [f"{entry[k]:.3f}" for k in ("vscv", "fscv", "shaders", "prim")])
    means = {
        key: float(np.mean([data[a][key] for a in data]))
        for key in ("vscv", "fscv", "shaders", "prim")
    }
    rows.append(["Average"] + [f"{means[k]:.3f}" for k in ("vscv", "fscv", "shaders", "prim")])
    report = render_table(
        ["bench", "R(VSCV)", "R(FSCV)", "R(shaders)", "r(PRIM)"],
        rows,
        title=(
            "Figure 3: correlation of input parameters with total cycles\n"
            "(multiple correlation for shader count vectors, Pearson for PRIM;\n"
            " paper finding: shader counts correlate strongly, PRIM more weakly)"
        ),
    )
    return ExperimentResult("fig3", {"per_benchmark": data, "average": means}, report)


def fig3_claims(data: dict, scale: float) -> list[str]:
    """Paper shape: shader counts correlate strongly with cycles; PRIM
    has a more limited impact."""
    average = data["average"]
    return failed_claims({
        f"R(shaders) {average['shaders']:.3f} > 0.9": average["shaders"] > 0.9,
        f"r(PRIM) {average['prim']:.3f} < R(shaders) "
        f"{average['shaders']:.3f}": average["prim"] < average["shaders"],
    })


# ----------------------------------------------------------------------
# Figure 4.
# ----------------------------------------------------------------------

def fig4_power(scale: float = 1.0) -> ExperimentResult:
    """Figure 4: power fraction of the Geometry / Tiling / Raster phases."""
    data = {}
    geometry, raster, tiling = [], [], []
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        g, r, t = evaluation.totals.power_fractions()
        data[alias] = {"geometry": g, "raster": r, "tiling": t}
        geometry.append(g)
        raster.append(r)
        tiling.append(t)
    average = (
        float(np.mean(geometry)), float(np.mean(raster)), float(np.mean(tiling))
    )
    chart = render_grouped_bars(
        list(data) + ["Average"],
        {
            "Geometry": geometry + [average[0]],
            "Raster": raster + [average[1]],
            "Tiling": tiling + [average[2]],
        },
        title=(
            "Figure 4: fraction of dissipated power per pipeline phase\n"
            f"(paper average G/R/T = {PAPER_FIG4_AVG[0]}/{PAPER_FIG4_AVG[1]}/"
            f"{PAPER_FIG4_AVG[2]}; these averages become the MEGsim feature weights)"
        ),
    )
    return ExperimentResult(
        "fig4", {"per_benchmark": data, "average": average}, chart
    )


def fig4_claims(data: dict, scale: float) -> list[str]:
    """Paper shape: Raster dominates (74.5%); every phase's average power
    fraction lies near the paper's."""
    geometry, raster, tiling = data["average"]
    paper_geometry, paper_raster, paper_tiling = PAPER_FIG4_AVG
    return failed_claims({
        f"raster {raster:.3f} > 0.6": raster > 0.6,
        f"|raster {raster:.3f} - paper {paper_raster}| < 0.12":
            abs(raster - paper_raster) < 0.12,
        f"|geometry {geometry:.3f} - paper {paper_geometry}| < 0.06":
            abs(geometry - paper_geometry) < 0.06,
        f"|tiling {tiling:.3f} - paper {paper_tiling}| < 0.06":
            abs(tiling - paper_tiling) < 0.06,
    })


# ----------------------------------------------------------------------
# Figures 5 and 6.
# ----------------------------------------------------------------------

def _profile_features(alias: str, scale: float) -> np.ndarray:
    """The feature matrix of one workload's functional profile.

    Only the ``profile`` stage is materialized: the figures need no
    ground truth and no representative simulation.
    """
    request = PipelineRequest.create(alias, scale=scale)
    profile = materialize_stage(request, "profile", store=get_store())
    features, _ = build_feature_matrix(profile)
    return features


def fig5_similarity(alias: str = "bbr1", frames: int = 900,
                    scale: float = 1.0, width: int = 60) -> ExperimentResult:
    """Figure 5: the similarity matrix of a bbr sequence prefix."""
    features = _profile_features(alias, scale)
    frames = min(frames, features.shape[0])
    distances = similarity_matrix(features[:frames], upper_only=False)
    art = render_similarity_matrix(distances, width=width)
    report = (
        f"Figure 5: similarity matrix for {alias} ({frames} frames analysed).\n"
        "Denser characters = more similar frame pairs (the paper plots them darker).\n"
        + art
    )
    return ExperimentResult(
        "fig5", {"alias": alias, "frames": frames, "distances": distances}, report
    )


def fig5_claims(data: dict, scale: float) -> list[str]:
    """Repetitive phase structure: adjacent frames are far more similar
    than the average frame pair (the dark band along the diagonal)."""
    frames = experiment_kwargs("fig5", scale)["frames"]
    distances = data["distances"]
    n = distances.shape[0]
    adjacent = float(np.diagonal(distances, offset=1).mean())
    overall = float(distances[np.triu_indices(n, k=1)].mean())
    return failed_claims({
        f"matrix shape {distances.shape} == ({frames}, {frames})":
            distances.shape == (frames, frames),
        f"adjacent distance {adjacent:.4f} < 0.5 x mean {overall:.4f}":
            adjacent < overall * 0.5,
    })


def fig6_clusters(alias: str = "bbr1", frames: int = 900,
                  scale: float = 1.0, width: int = 90) -> ExperimentResult:
    """Figure 6: k-means clusters drawn along the matrix diagonal."""
    from repro.core.cluster_search import search_clustering

    features = _profile_features(alias, scale)
    frames = min(frames, features.shape[0])
    search = search_clustering(features[:frames])
    labels = search.clustering.labels
    # Down-sample the diagonal into `width` character cells; each cell shows
    # the dominant cluster of its frame span.
    edges = np.linspace(0, frames, width + 1).astype(int)
    symbols = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    cells = []
    for i in range(width):
        span = labels[edges[i]: edges[i + 1]]
        dominant = int(np.bincount(span).argmax()) if span.size else 0
        cells.append(symbols[dominant % len(symbols)])
    report = (
        f"Figure 6: clusters found by k-means for {alias} "
        f"({frames} frames, k={search.chosen_k} chosen by BIC).\n"
        "Diagonal of the similarity matrix, one symbol per cluster:\n"
        + "".join(cells)
    )
    return ExperimentResult(
        "fig6",
        {"alias": alias, "frames": frames, "k": search.chosen_k,
         "labels": labels, "bic_by_k": search.bic_by_k},
        report,
    )


def fig6_claims(data: dict, scale: float) -> list[str]:
    """Clusters form contiguous bands along the diagonal: label changes
    are far rarer than frames (Figure 6 shows few colored bands)."""
    labels = data["labels"]
    changes = int(np.count_nonzero(np.diff(labels)))
    return failed_claims({
        f"k {data['k']} >= 2": data["k"] >= 2,
        f"label changes {changes} < frames/4 {len(labels) / 4:g}":
            changes < len(labels) / 4,
    })


# ----------------------------------------------------------------------
# Table III.
# ----------------------------------------------------------------------

def table3_reduction(scale: float = 1.0) -> ExperimentResult:
    """Table III: reduction factor in the number of simulated frames."""
    rows = []
    data = {}
    total_frames = 0
    total_selected = 0
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        actual = evaluation.profile.frame_count
        selected = evaluation.plan.selected_frame_count
        total_frames += actual
        total_selected += selected
        paper = PAPER_TABLE3[alias]
        data[alias] = {
            "actual_frames": actual,
            "megsim_frames": selected,
            "reduction": evaluation.reduction_factor,
            "time_speedup": evaluation.time_speedup,
        }
        rows.append([
            alias, str(actual), str(selected),
            f"{evaluation.reduction_factor:.0f}x", f"{paper[1]}x",
        ])
    average_reduction = total_frames / total_selected
    rows.append([
        "Average", f"{total_frames // len(data)}", f"{total_selected / len(data):.0f}",
        f"{average_reduction:.0f}x", "126x",
    ])
    report = render_table(
        ["bench", "actual frames", "MEGsim frames", "reduction", "paper"],
        rows,
        title=f"Table III: reduction factor in the number of frames (scale={scale})",
    )
    data["average_reduction"] = average_reduction
    return ExperimentResult("table3", data, report)


def table3_claims(data: dict, scale: float) -> list[str]:
    """Paper shape: MEGsim needs one to two orders of magnitude fewer
    frames.  The reachable factor shrinks with the sequence length, so
    the bound is scale-aware."""
    floor = max(5.0, 40.0 * scale)
    checks = {
        f"{alias} reduction {data[alias]['reduction']:.1f}x > {floor:g}x":
            data[alias]["reduction"] > floor
        for alias in benchmark_aliases()
    }
    average = data["average_reduction"]
    checks[f"average reduction {average:.1f}x > {2 * floor:g}x"] = (
        average > 2 * floor
    )
    return failed_claims(checks)


# ----------------------------------------------------------------------
# Figure 7.
# ----------------------------------------------------------------------

def fig7_accuracy(scale: float = 1.0) -> ExperimentResult:
    """Figure 7: relative error of the four key metrics per benchmark."""
    data = {}
    rows = []
    sums = {metric: 0.0 for metric in KEY_METRICS}
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        errors = evaluation.relative_errors()
        data[alias] = errors
        for metric in KEY_METRICS:
            sums[metric] += errors[metric]
        rows.append([alias] + [_pct(errors[m]) for m in KEY_METRICS])
    averages = {m: sums[m] / len(data) for m in KEY_METRICS}
    rows.append(
        ["Average"] + [_pct(averages[m]) for m in KEY_METRICS]
    )
    rows.append(
        ["(paper avg)"] + [f"{PAPER_FIG7_AVG[m]:.2f}%" for m in KEY_METRICS]
    )
    report = render_table(
        ["bench", "cycles", "DRAM acc.", "L2 acc.", "Tile acc."],
        rows,
        title=f"Figure 7: relative error of the key metrics (scale={scale})",
    )
    return ExperimentResult(
        "fig7", {"per_benchmark": data, "average": averages}, report
    )


def fig7_claims(data: dict, scale: float) -> list[str]:
    """Paper shape: ~1% average error on every metric.  Short sequences
    cluster less cleanly, so the budget loosens below full scale."""
    budget = 0.035 if scale >= 1.0 else 0.06
    averages = data["average"]
    return failed_claims({
        f"average {metric} error {averages[metric]:.4f} < {budget:g}":
            averages[metric] < budget
        for metric in KEY_METRICS
    })


# ----------------------------------------------------------------------
# Table IV.
# ----------------------------------------------------------------------

def table4_random(
    scale: float = 1.0,
    megsim_trials: int = 100,
    random_trials: int = 1000,
    max_k: int | None = None,
) -> ExperimentResult:
    """Table IV: frames needed by random sub-sampling to match MEGsim.

    Each trial runs the default MEGsim configuration (the warm-started
    BIC sweep Table III and Figure 7 evaluate) with its own k-means
    seed, which is the variability the paper measures.
    """
    options = MEGsimOptions(max_k=max_k)
    rows = []
    data = {}
    megsim_total = 0.0
    random_total = 0.0
    error_total = 0.0
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        errors, selected = megsim_error_distribution(
            evaluation.profile, evaluation.full, options, trials=megsim_trials
        )
        megsim_error = percentile_abs_error(errors["cycles"], 95.0)
        megsim_frames = float(selected.mean())
        random_frames = random_frames_for_error(
            evaluation.metric_vector("cycles"), megsim_error,
            trials=random_trials,
        )
        reduction = random_frames / megsim_frames
        paper = PAPER_TABLE4[alias]
        data[alias] = {
            "megsim_error_95": megsim_error,
            "megsim_frames": megsim_frames,
            "random_frames": random_frames,
            "reduction": reduction,
        }
        megsim_total += megsim_frames
        random_total += random_frames
        error_total += megsim_error
        rows.append([
            alias, _pct(megsim_error), f"{paper[0]:.2f}%",
            f"{megsim_frames:.0f}", str(random_frames),
            f"{reduction:.1f}x", f"{paper[3]}x",
        ])
    count = len(data)
    rows.append([
        "Average", _pct(error_total / count), "1.43%",
        f"{megsim_total / count:.1f}", f"{random_total / count:.1f}",
        f"{random_total / megsim_total:.1f}x", "58.5x",
    ])
    report = render_table(
        ["bench", "max err(95%)", "paper err", "MEGsim frames",
         "random frames", "reduction", "paper"],
        rows,
        title=(
            f"Table IV: random sub-sampling vs MEGsim at equal accuracy "
            f"(scale={scale}, {megsim_trials} MEGsim trials, "
            f"{random_trials} random trials)"
        ),
    )
    data["average_reduction"] = random_total / megsim_total
    return ExperimentResult("table4", data, report)


def table4_claims(data: dict, scale: float) -> list[str]:
    """Paper shape: matching MEGsim's accuracy by random sub-sampling
    costs many times more frames.  The per-benchmark claim needs the full
    sequences (short segments inflate MEGsim's worst-seed error); the
    aggregate advantage must hold at any scale."""
    checks = {}
    if scale >= 1.0:
        checks = {
            f"{alias} reduction {data[alias]['reduction']:.1f}x > 1x":
                data[alias]["reduction"] > 1.0
            for alias in benchmark_aliases()
        }
    average = data["average_reduction"]
    checks[f"average reduction {average:.1f}x > 2x"] = average > 2.0
    return failed_claims(checks)


# ----------------------------------------------------------------------
# Simulation-time speedup (the paper's headline framing: "from several
# days to a few hours").
# ----------------------------------------------------------------------

def speedup(scale: float = 1.0) -> ExperimentResult:
    """Wall-clock simulation-time comparison: full sequence vs MEGsim.

    MEGsim's end-to-end cost is the fast functional pass over every frame
    plus cycle-accurate simulation of the representatives only; the
    baseline is cycle-accurate simulation of the whole sequence.
    """
    rows = []
    data = {}
    total_full = total_sampled = 0.0
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        full_seconds = evaluation.full.elapsed_seconds
        sampled_seconds = (
            evaluation.profile.elapsed_seconds
            + evaluation.representatives.elapsed_seconds
        )
        total_full += full_seconds
        total_sampled += sampled_seconds
        ratio = full_seconds / sampled_seconds if sampled_seconds else float("inf")
        data[alias] = {
            "full_seconds": full_seconds,
            "megsim_seconds": sampled_seconds,
            "speedup": ratio,
            "frame_reduction": evaluation.reduction_factor,
        }
        rows.append([
            alias, f"{full_seconds:.2f}s", f"{sampled_seconds:.2f}s",
            f"{ratio:.0f}x", f"{evaluation.reduction_factor:.0f}x",
        ])
    overall = total_full / total_sampled if total_sampled else float("inf")
    rows.append([
        "Total", f"{total_full:.2f}s", f"{total_sampled:.2f}s",
        f"{overall:.0f}x", "-",
    ])
    report = render_table(
        ["bench", "full cycle-sim", "MEGsim (profile + reps)",
         "time speedup", "frame reduction"],
        rows,
        title=(
            f"Simulation-time speedup (scale={scale}): MEGsim = functional "
            "pass over all frames + cycle-accurate simulation of the "
            "representatives only"
        ),
    )
    data["overall_speedup"] = overall
    return ExperimentResult("speedup", data, report)


def speedup_claims(data: dict, scale: float) -> list[str]:
    """The wall-clock advantage is large on every benchmark (the frame
    reduction minus the functional-pass overhead)."""
    checks = {
        f"{alias} speedup {data[alias]['speedup']:.1f}x > 3x":
            data[alias]["speedup"] > 3.0
        for alias in benchmark_aliases()
    }
    overall = data["overall_speedup"]
    checks[f"overall speedup {overall:.1f}x > 5x"] = overall > 5.0
    return failed_claims(checks)


# ----------------------------------------------------------------------
# Adversarial scripted workloads: stress the BIC k-selection.
# ----------------------------------------------------------------------

#: Worst tolerated estimated relative error (any key metric, any
#: adversarial workload).  The paper's Table IV puts MEGsim's worst
#: per-benchmark error near 4%; the hostile scripts must stay inside
#: that envelope for the accuracy claim to survive adversarial phase
#: structure.
ADVERSARIAL_ENVELOPE = 0.04


def adversarial(
    scale: float = 1.0, envelope: float = ADVERSARIAL_ENVELOPE
) -> ExperimentResult:
    """Accuracy of MEGsim on the adversarial scripted catalog.

    Evaluates every :mod:`repro.workloads.scripted` workload end to end
    (oscillating, phase-flip and drifting scripts — each engineered to
    mislead the BIC cluster-count search) and checks that the estimated
    key metrics stay within the paper's accuracy envelope
    (:func:`adversarial_claims`).
    """
    from repro.workloads.scripted import scripted_keys

    rows = []
    data = {}
    worst_key, worst_error = "", 0.0
    for key in scripted_keys():
        evaluation = evaluate_benchmark(key, scale=scale)
        errors = evaluation.relative_errors()
        max_error = max(abs(errors[m]) for m in KEY_METRICS)
        data[key] = {
            "errors": errors,
            "max_rel_error": max_error,
            "megsim_frames": evaluation.plan.selected_frame_count,
            "reduction": evaluation.reduction_factor,
        }
        if max_error > worst_error:
            worst_key, worst_error = key, max_error
        rows.append([
            key, str(evaluation.profile.frame_count),
            str(evaluation.plan.selected_frame_count),
            f"{evaluation.reduction_factor:.0f}x",
            _pct(max_error),
        ])
    report = render_table(
        ["workload", "frames", "MEGsim frames", "reduction", "max err"],
        rows,
        title=(
            f"Adversarial scripted workloads (scale={scale}): estimated "
            f"error under hostile phase structure (envelope {envelope:.0%})"
        ),
    )
    data["max_rel_error"] = worst_error
    data["worst_workload"] = worst_key
    data["envelope"] = envelope
    return ExperimentResult("adversarial", data, report)


def adversarial_claims(data: dict, scale: float) -> list[str]:
    """Every adversarial workload stays inside the accuracy envelope:
    a quiet accuracy collapse on hostile phase structure must fail."""
    worst, envelope = data["max_rel_error"], data["envelope"]
    return failed_claims({
        f"{data['worst_workload']} max key-metric error {worst:.2%} "
        f"<= {envelope:.2%} envelope": worst <= envelope,
    })


# ----------------------------------------------------------------------
# Backend parity: the vector cycle-sim backend vs the scalar oracle.
# ----------------------------------------------------------------------

def backend_compare(scale: float = 1.0, max_frames: int = 16) -> ExperimentResult:
    """Vector-vs-scalar backend check over every benchmark.

    Runs both cycle-simulation backends on a deterministic frame sample
    of each benchmark trace and verifies bit-identical
    :class:`~repro.gpu.stats.FrameStats`, recording the measured
    wall-clock speedup alongside (timing only — never gated across
    machines); :func:`backend_compare_claims` checks the parity.
    """
    from repro.gpu.parity import check_backend_parity
    from repro.workloads.benchmarks import make_benchmark

    rows = []
    data = {}
    for alias in benchmark_aliases():
        trace = make_benchmark(alias, scale=scale)
        report = check_backend_parity(trace, max_frames=max_frames)
        data[alias] = {
            "identical": report.identical,
            "frames_checked": len(report.frame_ids),
            "mismatches": list(report.mismatches),
            "speedup": report.speedup,
        }
        rows.append([
            alias,
            str(len(report.frame_ids)),
            "yes" if report.identical else "NO",
            f"{report.speedup:.2f}x",
        ])
    report_text = render_table(
        ["bench", "frames", "bit-identical", "vector speedup"],
        rows,
        title=(
            f"Backend parity (scale={scale}): vector vs scalar "
            f"cycle simulation, {max_frames}-frame deterministic sample"
        ),
    )
    return ExperimentResult("backend_compare", data, report_text)


def backend_compare_claims(data: dict, scale: float) -> list[str]:
    """Both backends agree bit for bit on every benchmark: a broken
    vector backend must fail loudly, not average out."""
    mismatches = [
        f"{alias}: {mismatch}"
        for alias, row in data.items()
        for mismatch in row["mismatches"]
    ]
    return failed_claims({
        "vector == scalar FrameStats"
        + (f" (broken: {'; '.join(mismatches[:10])})" if mismatches else ""):
            not mismatches,
    })


def _run_study(
    name: str, study: Callable[..., tuple[list, str]], **kwargs
) -> ExperimentResult:
    """Run a ``(points, report)`` study as an experiment.

    The ablation and phase-recovery studies return their sweep points
    and report; as registered experiments their ``data`` is
    ``{"points": points}``.
    """
    points, report = study(**kwargs)
    return ExperimentResult(name, {"points": points}, report)


#: The studies beyond the paper's figures, as ``(points, report)`` callables.
_STUDIES = {
    "ablation_weights": weight_ablation,
    "ablation_threshold": threshold_sweep,
    "ablation_clustering": cluster_method_study,
    "ablation_warmup": warmup_study,
    "ablation_rendering_modes": rendering_mode_study,
    "phase_recovery": phase_recovery_study,
    "ablation_convergence": scale_convergence_study,
}

#: Experiment registry: name -> callable, in campaign order.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_config,
    "table2": table2_benchmarks,
    "fig3": fig3_correlation,
    "fig4": fig4_power,
    "fig5": fig5_similarity,
    "fig6": fig6_clusters,
    "table3": table3_reduction,
    "fig7": fig7_accuracy,
    "table4": table4_random,
    "speedup": speedup,
    "adversarial": adversarial,
    "backend_compare": backend_compare,
    **{name: partial(_run_study, name, study) for name, study in _STUDIES.items()},
}


def scaled_frames(frames: int, scale: float, minimum: int = 40) -> int:
    """Scale a paper frame count to a campaign scale (at least ``minimum``)."""
    return max(minimum, round(frames * scale))


def _figure_prefix_args(scale: float) -> dict:
    # Figures 5/6 analyse a 900-frame bbr prefix at paper scale, shrunk
    # with the sequence below it.
    return {"alias": "bbr1", "scale": scale,
            "frames": scaled_frames(900, min(scale, 1.0))}


def _table4_args(scale: float) -> dict:
    # Full scale: the paper's 1000 random trials; 20 MEGsim trials (the
    # paper runs 100) and a k cap of 48 keep the single-core campaign
    # tractable.
    if scale >= 1.0:
        return {"scale": scale, "megsim_trials": 20, "random_trials": 1000,
                "max_k": 48}
    return {"scale": scale, "megsim_trials": 10, "random_trials": 300}


def _convergence_args(scale: float) -> dict:
    # The study sweeps its own scales: up to the full sequence at paper
    # scale, otherwise a short ladder capped by the campaign scale.
    if scale >= 1.0:
        return {"alias": "jjo", "scales": (0.1, 0.25, 0.5, 1.0)}
    ladder = (0.05, 0.1, 0.2, 0.4)
    return {"alias": "jjo",
            "scales": tuple(s for s in ladder if s <= max(scale, 0.11))}


#: Per-step argument rule: name -> ``args(scale)``; steps not listed
#: take ``{"scale": scale}``.
_STEP_ARGS: dict[str, Callable[[float], dict]] = {
    "table1": lambda scale: {},
    "fig5": _figure_prefix_args,
    "fig6": _figure_prefix_args,
    "table4": _table4_args,
    "ablation_weights": lambda scale: {"alias": "bbr1", "scale": scale},
    "ablation_threshold": lambda scale: {"alias": "jjo", "scale": scale},
    "ablation_clustering": lambda scale: {"alias": "pvz", "scale": scale},
    "ablation_warmup": lambda scale: {"alias": "hwh", "scale": scale},
    "ablation_rendering_modes": lambda scale: {"alias": "bbr1", "scale": scale},
    "ablation_convergence": _convergence_args,
}


def experiment_kwargs(name: str, scale: float) -> dict:
    """Keyword arguments of one registered experiment at a campaign scale.

    The one argument rule behind both ``megsim run`` and ``megsim all``.
    At ``scale=1.0`` it reproduces the paper-scale campaign recorded in
    ``experiments_full/``; below it, frame and trial counts shrink so a
    campaign finishes in minutes.
    """
    rule = _STEP_ARGS.get(name)
    return rule(scale) if rule is not None else {"scale": scale}


#: Paper-shape claims: name -> ``claims(result.data, scale)`` returning
#: the claims that failed.  ``megsim all`` checks every step's claims;
#: ``megsim bench`` fails on the ``adversarial`` and ``backend_compare``
#: ones (``repro.bench.registry.GATED_EXPERIMENTS``).
CLAIMS: dict[str, Callable[[dict, float], list[str]]] = {
    "table1": table1_claims,
    "table2": table2_claims,
    "fig3": fig3_claims,
    "fig4": fig4_claims,
    "fig5": fig5_claims,
    "fig6": fig6_claims,
    "table3": table3_claims,
    "fig7": fig7_claims,
    "table4": table4_claims,
    "speedup": speedup_claims,
    "adversarial": adversarial_claims,
    "backend_compare": backend_compare_claims,
    "ablation_weights": weight_ablation_claims,
    "ablation_threshold": threshold_sweep_claims,
    "ablation_clustering": cluster_method_claims,
    "ablation_warmup": warmup_claims,
    "ablation_rendering_modes": rendering_mode_claims,
    "phase_recovery": phase_recovery_claims,
    "ablation_convergence": scale_convergence_claims,
}


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by name."""
    if name not in EXPERIMENTS:
        raise AnalysisError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        )
    with span("experiment", experiment=name):
        return EXPERIMENTS[name](**kwargs)

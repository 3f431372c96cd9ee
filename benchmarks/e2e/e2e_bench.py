"""Workloads, correctness checks and layer accounting of the e2e benchmark.

``run.py`` drives this module in child processes; the self-tests import
it directly.  Two child entry points::

    python benchmarks/e2e/e2e_bench.py setup --workload W --seed S --dir D
    python benchmarks/e2e/e2e_bench.py run --workload W --seed S \\
        --seconds R --trace 0|1 --captures D --result FILE

``setup`` generates the workload's captures from the seed and writes them
as ``megsim-workload v1`` files, then runs one untimed warm-up evaluation
of the smallest capture (the one-time costs a fresh process pays).
``run`` registers the captures, runs one warm-up pass, then measures
passes until ``--seconds`` is used up and writes one JSON result document.

The program is only ever measured from outside, through its public
functions.  Every timing that feeds an end-to-end metric covers program
calls only, and is scaled to the reference machine speed
(:mod:`calibration`); the benchmark's own checks run outside the timed
regions.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import calibration
from repro.analysis.metrics import relative_error
from repro.analysis.runner import evaluate_benchmark
from repro.gpu.stats import KEY_METRICS
from repro.obs import collecting, span, write_trace_artifact
from repro.parallel import ParallelConfig
from repro.pipeline import (
    STAGES,
    PipelineRequest,
    materialize_stage,
    stage_fingerprints,
)
from repro.service import ResultsDB, build_requests, serve, submit_requests
from repro.store import ArtifactStore, memory_store, store_scope
from repro.workloads import (
    GameWorkloadGenerator,
    export_workload_file,
    get_workload,
    register_workload_file,
)

#: The eight Table II benchmarks.
TABLE_II = ("asp", "bbr1", "bbr2", "hcr", "hwh", "jjo", "pvz", "spd")

#: The accuracy set: every capture whose ground truth fits a pass of a
#: few seconds at scale 0.05 — the 2D games, the lightest 3D game and
#: the three adversarial phase scripts.  At scale 0.05 their worst
#: key-metric error stays below 0.08 across seeds; shorter sequences
#: leave too few frames per cluster for the 0.10 accuracy check.
VALIDATE_SET = ("bbr1", "hcr", "jjo", "pvz", "hcr-osc", "hcr-flip", "hcr-drift")

#: Largest relative error on a key metric a correct estimate may show.
MAX_REL_ERROR = 0.10

#: Fewest measured passes per run, however short ``--seconds`` is.
MIN_PASSES = 3

ESTIMATE_STAGES = ("trace", "profile", "plan", "representatives", "estimate")
ALL_STAGES = tuple(stage.name for stage in STAGES)


#: Seed offset between two draws of one capture.
VARIANT_SEED_STRIDE = 100_000


@dataclass(frozen=True)
class WorkloadDef:
    """One benchmark workload: which captures, at what scale.

    ``variants`` is how many independent draws of each capture a run
    uses (seeds ``VARIANT_SEED_STRIDE`` apart): how much a seed's scenes
    cost to simulate varies by 6-22% per capture, and more draws average
    that out.  Why each workload exists is recorded in BENCHMARK.json and
    README.md.
    """

    name: str
    captures: tuple[str, ...]
    scale: float
    variants: int = 1


WORKLOADS: dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef("validate", VALIDATE_SET, 0.05, variants=2),
        WorkloadDef("estimate-long", TABLE_II, 0.06),
        WorkloadDef("warm-reload", VALIDATE_SET, 0.05),
        WorkloadDef("service-batch", TABLE_II, 0.02),
    )
}

#: End-to-end metrics every workload reports with tracing off.
E2E_METRICS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every workload reports from its traced passes.
LAYER_METRICS = {
    "workloads.load_s": "s",
    "workloads.bytes_parsed": "bytes",
    "functional.profile_s": "s",
    "functional.frames_profiled": "count",
    "functional.us_per_frame": "us",
    "core.plan_s": "s",
    "core.representatives": "count",
    "cluster.kmeans_runs": "count",
    "cluster.kmeans_iterations": "count",
    "cluster.k_explored": "count",
    "core.estimate_s": "s",
    "cycle.ground_truth_s": "s",
    "cycle.representatives_s": "s",
    "cycle.frames_simulated": "count",
    "cycle.us_per_frame": "us",
    "store.encode_s": "s",
    "store.write_s": "s",
    "store.bytes_written": "bytes",
    "store.read_s": "s",
    "store.decode_s": "s",
    "store.bytes_read": "bytes",
    "store.hits.disk": "count",
    "store.hits.memory": "count",
    "store.misses": "count",
    "pipeline.fingerprint_s": "s",
    "pipeline.computed": "count",
    "pipeline.hits": "count",
    "service.submit_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.job_exec_s": "s",
    "service.dispatch_overhead_s": "s",
    "service.jobs_executed": "count",
    "service.jobs_deduped": "count",
    "obs.trace_overhead": "ratio",
}

#: Span name -> the layer metric its self time is charged to.  Spans not
#: listed inherit their parent's layer; other ``service.*`` spans belong
#: to the service's own overhead.
SPAN_LAYERS = {
    "pipeline.trace": "workloads.load_s",
    "pipeline.profile": "functional.profile_s",
    "pipeline.plan": "core.plan_s",
    "pipeline.estimate": "core.estimate_s",
    "pipeline.ground_truth": "cycle.ground_truth_s",
    "pipeline.representatives": "cycle.representatives_s",
    "store.get": "store.read_s",
    "store.decode": "store.decode_s",
    "store.put": "store.write_s",
    "store.encode": "store.encode_s",
    "bench.item": "pipeline.fingerprint_s",
    "bench.submit": "service.submit_s",
    "service.submit": "service.submit_s",
    "bench.drain": "service.dispatch_overhead_s",
    "bench.calibrate": "bench",
}

#: Program counters copied into per-layer metrics under the same name.
COUNTER_METRICS = (
    "functional.frames_profiled",
    "cluster.kmeans_runs",
    "cluster.kmeans_iterations",
    "cluster.k_explored",
    "cycle.frames_simulated",
    "store.bytes_written",
    "store.bytes_read",
    "store.hits.disk",
    "store.hits.memory",
    "store.misses",
)

#: Largest gap between a traced pass's layer total and its own time.
ACCOUNTING_TOLERANCE = 0.10


# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------


def generate_captures(workload: WorkloadDef, seed: int, out_dir: Path) -> dict:
    """Write the workload's captures for ``seed``; returns the manifest.

    Each capture is its catalog spec with ``seed`` added to the spec's
    own seed (for the first variant, seed 0 is exactly the paper
    catalog), scaled to the workload's sequence length and exported as a
    JSONL capture.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for variant in range(workload.variants):
        for alias in workload.captures:
            name = alias if variant == 0 else f"{alias}.{variant}"
            spec = get_workload(alias).spec
            spec = dataclasses.replace(
                spec, seed=spec.seed + seed + variant * VARIANT_SEED_STRIDE
            ).scaled(workload.scale)
            trace = GameWorkloadGenerator(spec).generate()
            manifest[name] = _export(trace, out_dir / f"{name}.jsonl")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def _export(trace, path: Path) -> dict:
    export_workload_file(trace, path)
    data = path.read_bytes()
    return {
        "file": path.name,
        "sha256": hashlib.sha256(data).hexdigest(),
        "frames": trace.frame_count,
        "bytes": len(data),
    }


@dataclass
class Captures:
    """The registered captures of this process, in workload order."""

    keys: tuple[str, ...]
    frames: dict[str, int]
    sizes: dict[str, int]
    manifest: dict


def register_captures(capture_dir: Path) -> Captures:
    """Register every capture of a manifest with the workload registry."""
    manifest = json.loads((capture_dir / "manifest.json").read_text())
    keys, frames, sizes = [], {}, {}
    for alias, entry in manifest.items():
        key = register_workload_file(str(capture_dir / entry["file"]), name=alias).name
        keys.append(key)
        frames[key] = entry["frames"]
        sizes[key] = entry["bytes"]
    return Captures(tuple(keys), frames, sizes, manifest)


def smallest(captures: Captures) -> str:
    """The capture with the fewest frames (the warm-up input)."""
    return min(captures.keys, key=lambda key: captures.frames[key])


def warm_up_evaluation(key: str) -> None:
    """One full evaluation on a throwaway memory store."""
    store = memory_store()
    request = PipelineRequest.create(key)
    fps = stage_fingerprints(request)
    for name in ALL_STAGES:
        materialize_stage(request, name, store=store, fingerprints=fps)


# ----------------------------------------------------------------------
# Timing and store instrumentation.
# ----------------------------------------------------------------------


class Clock:
    """Times one region at the reference machine speed.

    The region is cut into segments of about :data:`SEGMENT_S` at
    :meth:`checkpoint` calls; a calibration kernel runs at each cut (in
    a ``bench.calibrate`` span, outside the timed segments) and each
    segment is scaled by the kernel runs on its two sides.  ``raw`` is
    the plain wall time, ``seconds`` the scaled time, ``paused`` the
    time spent calibrating inside the region.
    """

    #: Segment length: short enough that the machine speed holds steady
    #: within one, long enough that calibrating costs a few percent.
    SEGMENT_S = 0.3

    def __enter__(self) -> "Clock":
        self.raw = self.seconds = self.paused = 0.0
        self._pauses: list[tuple[float, float]] = []
        self._kernel = calibration.kernel_seconds()
        self._start = time.perf_counter()
        return self

    def checkpoint(self) -> None:
        """Close the current segment if it is long enough."""
        now = time.perf_counter()
        if now - self._start >= self.SEGMENT_S:
            self._cut(now)

    def __exit__(self, *exc_info) -> None:
        self._cut(time.perf_counter())

    def _cut(self, now: float) -> None:
        wall = now - self._start
        paused_at = time.time()
        with span("bench.calibrate"):
            kernel = calibration.kernel_seconds()
        self._pauses.append((paused_at, time.time()))
        self.raw += wall
        self.seconds += calibration.scale(wall, (self._kernel + kernel) / 2)
        self._kernel = kernel
        self._start = time.perf_counter()
        self.paused += self._start - now

    @property
    def factor(self) -> float:
        """Scaled over raw time of the region so far."""
        return self.seconds / self.raw if self.raw else 1.0

    def active(self, begin: float, end: float) -> float:
        """Scaled seconds between two wall-clock (``time.time()``)
        timestamps inside the region, calibration pauses left out."""
        overlap = sum(
            max(0.0, min(end, stop) - max(begin, start))
            for start, stop in self._pauses
        )
        return (end - begin - overlap) * self.factor


class BenchStore:
    """An :class:`ArtifactStore` stand-in that times reads and writes.

    ``get``/``put`` run under ``store.get``/``store.put`` spans and the
    codec hooks under ``store.decode``/``store.encode`` spans (recorded
    in traced passes), and each gives the pass's :class:`Clock` a
    checkpoint.  Everything else (``root``, ``disk``, ...) is the
    wrapped store's.
    """

    def __init__(self, inner: ArtifactStore, clock: Clock) -> None:
        self._inner = inner
        self._clock = clock

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def get(self, kind: str, fp: str, decode=None):
        self._clock.checkpoint()
        with span("store.get", kind=kind):
            return self._inner.get(kind, fp, decode=_timed("store.decode", decode))

    def put(self, kind: str, fp: str, obj, encode=None) -> None:
        self._clock.checkpoint()
        with span("store.put", kind=kind):
            self._inner.put(kind, fp, obj, encode=_timed("store.encode", encode))


def _timed(name: str, hook: Callable | None) -> Callable | None:
    if hook is None:
        return None

    def wrapped(value):
        with span(name):
            return hook(value)

    return wrapped


# ----------------------------------------------------------------------
# Passes.
# ----------------------------------------------------------------------


@dataclass
class Item:
    """One evaluated capture (or one service request) of a pass."""

    name: str
    outputs: Any = None
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class PassResult:
    """One pass: its program time, items and (traced) layer breakdown."""

    seconds: float
    raw: float
    items: list[Item]
    info: dict = field(default_factory=dict)
    layers: dict | None = None
    root: Any = None
    trace_id: str = ""

    @property
    def digest(self) -> str:
        return outputs_digest([item.outputs for item in self.items])


def outputs_digest(outputs: list) -> str:
    """sha256 of the canonical JSON of a pass's simulated outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def relative_errors(truth, estimate) -> dict[str, float]:
    """Key-metric relative errors (zero/zero scores 0.0, as the program does)."""
    errors = {}
    for metric in KEY_METRICS:
        actual = getattr(truth, metric)
        approx = getattr(estimate, metric)
        errors[metric] = (
            0.0 if actual == 0 and approx == 0 else relative_error(approx, actual)
        )
    return errors


def plan_problems(plan, frames: int) -> list[str]:
    """Plan weights must sum to the frame count of the capture."""
    weights = sum(len(cluster.members) for cluster in plan.clusters)
    if weights != frames or plan.total_frames != frames:
        return [f"plan weights sum to {weights}, capture has {frames} frames"]
    return []


def evaluation_outputs(key: str, plan, estimate, truth) -> dict:
    """The simulated outputs of one full evaluation, for digests."""
    return {
        "capture": key,
        "plan": plan.to_dict(),
        "estimate": estimate.to_dict(),
        "truth": truth.to_dict(),
    }


def _checked(key: str, check: Callable[[Item], None]) -> Item:
    """Run a benchmark-side check; an exception fails the item."""
    item = Item(key)
    try:
        check(item)
    except Exception:  # noqa: BLE001 - a failed item is counted, not fatal
        item.problems = [traceback.format_exc()]
    return item


class Runner:
    """Runs one workload's passes in this process."""

    def __init__(self, workload: WorkloadDef, captures: Captures, work_dir: Path):
        self.workload = workload
        self.captures = captures
        self.work_dir = work_dir
        self.populated: dict[str, dict] = {}
        self.populate_s = 0.0

    def fresh_dir(self, label: str) -> Path:
        """An empty directory for one pass (the previous pass's is removed)."""
        path = self.work_dir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def prepare(self) -> None:
        """Populate the warm-reload disk store (untimed, recorded)."""
        if self.workload.name != "warm-reload":
            return
        root = self.work_dir / "reload-store"
        shutil.rmtree(root, ignore_errors=True)
        with Clock() as clock, store_scope(ArtifactStore(root=root)):
            for key in self.captures.keys:
                evaluation = evaluate_benchmark(key)
                self.populated[key] = evaluation_outputs(
                    key, evaluation.plan, evaluation.estimate, evaluation.totals
                )
        self.populate_s = clock.seconds

    def run_pass(self, keys: tuple[str, ...], traced: bool) -> PassResult:
        """One pass over ``keys``; traced passes record the span tree."""
        fn = {
            "validate": self._validate,
            "estimate-long": self._estimate,
            "warm-reload": self._reload,
            "service-batch": self._service,
        }[self.workload.name]
        if not traced:
            return fn(keys)
        with collecting() as collector:
            with span("bench.pass", workload=self.workload.name) as root:
                result = fn(keys)
        result.layers = layer_metrics(root, collector.counters, result, self.captures)
        result.root = root
        result.trace_id = collector.trace_id
        return result

    # -- the four workloads ------------------------------------------------

    def _stage_calls(self, keys, names, store: BenchStore, clock: Clock) -> dict:
        """Materialize ``names`` for each capture, one stage per call.

        Returns ``key -> (artifacts, stage seconds)``; a capture whose
        calls raised maps to the traceback instead.
        """
        outcomes = {}
        for key in keys:
            clock.checkpoint()
            seconds = {}
            try:
                with span("bench.item", capture=key):
                    request = PipelineRequest.create(key)
                    fps = stage_fingerprints(request)
                    artifacts = {}
                    for name in names:
                        start, paused = time.perf_counter(), clock.paused
                        artifacts[name] = materialize_stage(
                            request, name, store=store, fingerprints=fps
                        )
                        seconds[name] = (
                            time.perf_counter() - start - (clock.paused - paused)
                        )
                outcomes[key] = (artifacts, seconds)
            except Exception:  # noqa: BLE001 - a failed item is counted, not fatal
                outcomes[key] = traceback.format_exc()
        return outcomes

    def _sequential(self, keys, names, store: ArtifactStore, check) -> PassResult:
        """Time the stage calls of every capture, then check each one."""
        with Clock() as clock:
            outcomes = self._stage_calls(keys, names, BenchStore(store, clock), clock)
        items = []
        for key, outcome in outcomes.items():
            if isinstance(outcome, str):
                items.append(Item(key, problems=[outcome]))
                continue
            artifacts, seconds = outcome
            scaled = {name: value * clock.factor for name, value in seconds.items()}
            items.append(_checked(key, lambda item: check(item, artifacts, scaled)))
        return PassResult(clock.seconds, clock.raw, items)

    def _validate(self, keys) -> PassResult:
        def check(item, artifacts, seconds):
            plan, estimate = artifacts["plan"], artifacts["estimate"]
            truth = artifacts["ground_truth"].totals
            frames = self.captures.frames[item.name]
            errors = relative_errors(truth, estimate)
            item.outputs = evaluation_outputs(item.name, plan, estimate, truth)
            item.problems = plan_problems(plan, frames) + [
                f"{metric} relative error {value:.4f} > {MAX_REL_ERROR}"
                for metric, value in errors.items()
                if value > MAX_REL_ERROR
            ]
            item.info = {
                "frames": frames,
                "representatives": plan.selected_frame_count,
                "rel_errors": errors,
                "estimate_s": sum(seconds[name] for name in ESTIMATE_STAGES),
                "fullsim_s": seconds["trace"] + seconds["ground_truth"],
            }

        store = ArtifactStore(root=self.fresh_dir("validate-store"))
        return self._sequential(keys, ALL_STAGES, store, check)

    def _estimate(self, keys) -> PassResult:
        def check(item, artifacts, seconds):
            plan = artifacts["plan"]
            frames = self.captures.frames[item.name]
            item.outputs = {
                "capture": item.name,
                "plan": plan.to_dict(),
                "estimate": artifacts["estimate"].to_dict(),
            }
            item.problems = plan_problems(plan, frames)
            item.info = {
                "frames": frames,
                "representatives": plan.selected_frame_count,
                "estimate_s": sum(seconds.values()),
            }

        return self._sequential(keys, ESTIMATE_STAGES, memory_store(), check)

    def _reload(self, keys) -> PassResult:
        evaluations = {}
        with Clock() as clock:
            store = BenchStore(ArtifactStore(root=self.work_dir / "reload-store"), clock)
            with store_scope(store):
                for key in keys:
                    clock.checkpoint()
                    try:
                        with span("bench.item", capture=key):
                            evaluations[key] = evaluate_benchmark(key)
                    except Exception:  # noqa: BLE001 - a failed item is counted
                        evaluations[key] = traceback.format_exc()

        def check(item):
            evaluation = evaluations[item.name]
            if isinstance(evaluation, str):
                item.problems = [evaluation]
                return
            item.outputs = evaluation_outputs(
                item.name, evaluation.plan, evaluation.estimate, evaluation.totals
            )
            if item.outputs != self.populated.get(item.name):
                item.problems = ["reloaded outputs differ from the populate-time outputs"]
            item.info = {
                "frames": self.captures.frames[item.name],
                "representatives": evaluation.plan.selected_frame_count,
            }

        items = [_checked(key, check) for key in keys]
        return PassResult(clock.seconds, clock.raw, items)

    def _service(self, keys) -> PassResult:
        root = self.fresh_dir("service")
        db_path = root / "service.sqlite3"
        failure = None
        with Clock() as clock:
            store = BenchStore(ArtifactStore(root=root / "store"), clock)
            with store_scope(store):
                try:
                    with span("bench.submit"), ResultsDB(db_path) as db:
                        ids = submit_requests(db, build_requests(list(keys) * 2))
                    with span("bench.drain"):
                        serve(
                            str(db_path), parallel=ParallelConfig(jobs=1),
                            once=True, store=store,
                        )
                except Exception:  # noqa: BLE001 - a failed drain fails every request
                    failure = traceback.format_exc()
        if failure is not None:
            items = [Item(key, problems=[failure]) for key in list(keys) * 2]
            return PassResult(clock.seconds, clock.raw, items)
        with ResultsDB(db_path) as db:
            rows = {row["id"]: row for row in db.runs(limit=len(ids))}
            jobs = {
                job["id"]: job
                for request_id in ids
                for job in db.jobs_for_request(request_id)
            }
        expected, pure = self._direct_results(keys, root / "store")

        def check(item, row):
            doc = row["metrics"]
            item.outputs = doc
            if row["status"] != "completed" or doc is None:
                item.problems.append(f"request {row['id']} {row['status']}: {row['error']}")
            elif _service_view(doc) != expected[item.name]:
                item.problems.append(f"request {row['id']} differs from the direct path")
            if not pure:
                item.problems.append("the direct evaluation after the drain computed a stage")
            item.info = {
                "frames": self.captures.frames[item.name],
                "representatives": (doc or {}).get("representatives", 0),
            }

        items = [
            _checked(rows[i]["benchmark"], lambda item, row=rows[i]: check(item, row))
            for i in ids
        ]
        # One worker runs a wave's jobs one after another: a job starts
        # when it was claimed or when the job before it finished.
        executed = sorted(
            (job for job in jobs.values()
             if job["source"] == "computed" and job["status"] == "done"),
            key=lambda job: job["finished_at"],
        )
        began, previous = [], 0.0
        for job in executed:
            began.append(max(job["started_at"], previous))
            previous = job["finished_at"]
        submitted = min(row["submitted_at"] for row in rows.values())
        finished = [row["finished_at"] for row in rows.values() if row["finished_at"]]
        info = {
            "job_exec_s": sum(
                clock.active(start, job["finished_at"])
                for start, job in zip(began, executed)
            ),
            "queue_waits": [
                clock.active(job["created_at"], start)
                for start, job in zip(began, executed)
            ],
            "first_result_s": clock.active(submitted, min(finished, default=submitted)),
            "latency_p50_s": _median(
                clock.active(row["submitted_at"], row["finished_at"] or row["submitted_at"])
                for row in rows.values()
            ),
        }
        return PassResult(clock.seconds, clock.raw, items, info)

    def _direct_results(self, keys, store_root: Path) -> tuple[dict, bool]:
        """Direct ``evaluate_benchmark`` of every capture on the service's
        store, and whether it computed nothing."""
        with store_scope(ArtifactStore(root=store_root)), collecting() as collector:
            expected = {
                key: _direct_view(evaluate_benchmark(key), self.captures.frames[key])
                for key in keys
            }
        computed = _counter_sum(collector.counters, "pipeline.computed.")
        return expected, computed == 0


def _service_view(doc: dict) -> dict:
    return {
        "frames": doc["frames"],
        "representatives": doc["representatives"],
        "totals": doc["totals"],
        "estimates": doc["estimates"],
    }


def _direct_view(evaluation, frames: int) -> dict:
    return {
        "frames": frames,
        "representatives": evaluation.plan.selected_frame_count,
        "totals": {m: getattr(evaluation.totals, m) for m in KEY_METRICS},
        "estimates": {m: getattr(evaluation.estimate, m) for m in KEY_METRICS},
    }


# ----------------------------------------------------------------------
# Layer accounting.
# ----------------------------------------------------------------------


def span_layer(name: str) -> str | None:
    """The layer a span's self time is charged to (``None``: inherit)."""
    if name in SPAN_LAYERS:
        return SPAN_LAYERS[name]
    if name.startswith("service."):
        return "service.dispatch_overhead_s"
    return None


def self_times(root) -> dict[str, float]:
    """Charge every span's self time to its layer.

    A span's self time is its duration minus its children's, so the
    layer totals partition the root span exactly; the root's own self
    time (the benchmark's checks and calibration) is charged to ``bench``.
    """
    totals: dict[str, float] = defaultdict(float)

    def visit(record, inherited: str) -> None:
        layer = span_layer(record.name) or inherited
        totals[layer] += record.self_seconds
        for child in record.children:
            visit(child, layer)

    visit(root, "bench")
    return dict(totals)


def layer_metrics(root, counters: dict, result: PassResult, captures: Captures) -> dict:
    """Every per-layer metric of one traced pass (except the overhead).

    Times are scaled to the reference speed with the pass's own factor.
    """
    factor = result.seconds / result.raw if result.raw else 1.0
    times = self_times(root)
    metrics = {name: 0.0 for name in LAYER_METRICS}
    for name, value in times.items():
        if name in metrics:
            metrics[name] = value * factor
    for name in COUNTER_METRICS:
        metrics[name] = float(counters.get(name, 0.0))
    metrics["pipeline.computed"] = _counter_sum(counters, "pipeline.computed.")
    metrics["pipeline.hits"] = _counter_sum(counters, "pipeline.hits.")
    metrics["core.representatives"] = float(counters.get("megsim.representatives", 0.0))
    metrics["service.jobs_executed"] = float(counters.get("service.jobs.executed", 0.0))
    metrics["service.jobs_deduped"] = _counter_sum(counters, "service.jobs.deduped.")
    metrics["workloads.bytes_parsed"] = float(sum(
        captures.sizes.get(record.attrs.get("benchmark"), 0)
        for record in _walk(root)
        if record.name == "pipeline.trace"
        and record.counters.get("pipeline.computed.trace")
    ))
    if metrics["functional.frames_profiled"]:
        metrics["functional.us_per_frame"] = (
            1e6 * metrics["functional.profile_s"] / metrics["functional.frames_profiled"]
        )
    if metrics["cycle.frames_simulated"]:
        metrics["cycle.us_per_frame"] = 1e6 * (
            metrics["cycle.ground_truth_s"] + metrics["cycle.representatives_s"]
        ) / metrics["cycle.frames_simulated"]
    metrics["service.queue_wait_p50_s"] = _median(result.info.get("queue_waits", ()))
    metrics["service.job_exec_s"] = float(result.info.get("job_exec_s", 0.0))
    metrics["accounted_s"] = factor * sum(v for k, v in times.items() if k != "bench")
    return metrics


def _counter_sum(counters: dict, prefix: str) -> float:
    return float(sum(v for k, v in counters.items() if k.startswith(prefix)))


def _walk(record):
    yield record
    for child in record.children:
        yield from _walk(child)


# ----------------------------------------------------------------------
# Measurement.
# ----------------------------------------------------------------------


def measure(
    workload: WorkloadDef,
    captures: Captures,
    work_dir: Path,
    seconds: float,
    trace: bool,
) -> dict:
    """Warm up, then run passes for ``seconds``; returns the result document.

    With ``trace`` the passes alternate untraced and traced, the traced
    ones giving the per-layer metrics and the untraced ones the baseline
    for the tracing overhead.
    """
    runner = Runner(workload, captures, work_dir)
    runner.prepare()
    runner.run_pass((smallest(captures),), traced=False)  # untimed warm-up

    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    while True:
        want_trace = trace and len(traced) < len(untraced)
        pass_start = time.perf_counter()
        result = runner.run_pass(captures.keys, traced=want_trace)
        (traced if want_trace else untraced).append(result)
        now = time.perf_counter()
        done = len(untraced) + len(traced)
        if done >= MIN_PASSES and (traced or not trace) and (
            now - start + (now - pass_start) > seconds
        ):
            break
    return summarize(workload, runner, untraced, traced)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _with_units(units: dict[str, str], values: dict[str, float]) -> dict:
    return {
        name: {"value": values[name], "unit": units[name]}
        for name in units if name in values
    }


def summarize(workload, runner: Runner, untraced, traced) -> dict:
    """The result document of one run (README.md describes its fields)."""
    problems: list[str] = []
    passes = untraced + traced
    items = [item for p in passes for item in p.items]
    for item in items:
        problems.extend(f"{item.name}: {problem}" for problem in item.problems)

    digest = untraced[0].digest
    if any(p.digest != digest for p in passes):
        problems.append("simulated outputs differ between passes")
    if runner.populated and digest != outputs_digest(
        [runner.populated[key] for key in runner.captures.keys]
    ):
        problems.append("warm reload outputs differ from the populate-time outputs")

    first = untraced[0].items
    frames = sum(item.info.get("frames", 0) for item in first)
    reps = sum(item.info.get("representatives", 0) for item in first)
    detail = {
        "passes": len(untraced),
        "pass_seconds": [p.seconds for p in untraced],
        "pass_wall_s": _median(p.raw for p in untraced),
        "frames": frames,
        "representatives": reps,
        "reduction": frames / reps if reps else 0.0,
        "outputs_sha256": digest,
        "captures": runner.captures.manifest,
        "populate_s": runner.populate_s,
    }
    errors = [v for item in first for v in item.info.get("rel_errors", {}).values()]
    if errors:
        detail["rel_error_mean"] = statistics.fmean(errors)
        detail["rel_error_max"] = max(errors)
    estimate_s = _median(sum(i.info.get("estimate_s", 0.0) for i in p.items) for p in untraced)
    fullsim_s = _median(sum(i.info.get("fullsim_s", 0.0) for i in p.items) for p in untraced)
    if estimate_s:
        detail["estimate_fps"] = frames / estimate_s
    if fullsim_s:
        detail["fullsim_fps"] = frames / fullsim_s
        detail["megsim_speedup"] = fullsim_s / estimate_s
    if workload.name == "service-batch":
        detail["service_drain_s"] = _median(p.seconds for p in untraced)
        detail["service_latency_p50_s"] = _median(p.info["latency_p50_s"] for p in untraced)
        detail["service_first_result_s"] = _median(
            p.info["first_result_s"] for p in untraced
        )

    doc = {
        "workload": workload.name,
        "attempted": len(items),
        "failed": sum(not item.ok for item in items),
        "problems": problems,
        "metrics": _with_units(E2E_METRICS, {
            "pass_s": _median(p.seconds for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }),
        "detail": detail,
    }
    if traced:
        doc["layers"] = _with_units(
            LAYER_METRICS, traced_layers(workload, untraced, traced, problems)
        )
        detail["trace_artifact"] = str(write_trace_artifact(
            runner.work_dir / "trace.jsonl", [traced[-1].root],
            trace_id=traced[-1].trace_id,
            meta={"workload": workload.name, "outputs_sha256": digest},
        ))
    doc["correct"] = not problems
    return doc


def traced_layers(workload, untraced, traced, problems: list) -> dict:
    """Median per-layer metrics over the traced passes, plus checks."""
    layers = {
        name: _median(p.layers[name] for p in traced) for name in LAYER_METRICS
    }
    baseline = _median(p.seconds for p in untraced)
    layers["obs.trace_overhead"] = _median(p.seconds for p in traced) / baseline - 1.0
    # Each traced pass is held to its own time: untraced passes run at
    # another moment, and on a shared machine that alone moves them by
    # more than the tolerance.  How far tracing moves a pass is reported
    # as ``obs.trace_overhead`` instead.
    for p in traced:
        accounted = p.layers["accounted_s"]
        if abs(accounted - p.seconds) > ACCOUNTING_TOLERANCE * p.seconds:
            problems.append(
                f"layer self times account for {accounted:.3f} s of a traced "
                f"pass of {p.seconds:.3f} s (more than {ACCOUNTING_TOLERANCE:.0%} apart)"
            )
    if workload.name == "warm-reload" and layers["pipeline.computed"]:
        problems.append("warm reload computed a stage instead of reading it")
    if (
        workload.name == "estimate-long"
        and layers["cycle.frames_simulated"] != layers["core.representatives"]
    ):
        problems.append("estimate-long simulated frames that are not representatives")
    return layers


# ----------------------------------------------------------------------
# Child entry points.
# ----------------------------------------------------------------------


def _setup(args) -> int:
    capture_dir = Path(args.dir)
    shutil.rmtree(capture_dir, ignore_errors=True)
    generate_captures(WORKLOADS[args.workload], args.seed, capture_dir)
    warm_up_evaluation(smallest(register_captures(capture_dir)))
    return 0


def _run(args) -> int:
    with Clock() as clock:
        captures = register_captures(Path(args.captures))
    result_path = Path(args.result)
    doc = measure(
        WORKLOADS[args.workload], captures, result_path.parent,
        args.seconds, bool(args.trace),
    )
    doc["seed"] = args.seed
    doc["detail"]["register_s"] = clock.seconds
    result_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--dir", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--captures", required=True)
    run.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    return _setup(args) if args.command == "setup" else _run(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end MEGsim benchmark: one workload per invocation.

Run from the root of a checkout (the program under test is the
checkout's ``src/``)::

    python3 benchmarks/e2e/run.py --workload validate --seed 0 \\
        --seconds 20 --trace 0 [--out result.json]

The seed's captures are generated in a fresh setup subprocess, three
times; ``setup_s`` is the median time of the three.  The workload
then runs in its own fresh subprocess, which warms up and measures
passes for ``--seconds``.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).

Exit status: 0 when every output check passed, 1 when a check failed
(the result is still printed), 2 when the benchmark could not run (no
result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

CHILD = Path(__file__).resolve().parent / "e2e_bench.py"

#: Setup subprocesses per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Whole-run budget: a run must end within 180 s.
DEADLINE_S = 170.0

#: Detail fields echoed to standard output, with their units.
DETAIL_UNITS = {
    "passes": "count",
    "pass_wall_s": "s",
    "frames": "count",
    "representatives": "count",
    "reduction": "x",
    "rel_error_mean": "fraction",
    "rel_error_max": "fraction",
    "estimate_fps": "frames/s",
    "fullsim_fps": "frames/s",
    "megsim_speedup": "x",
    "service_drain_s": "s",
    "service_latency_p50_s": "s",
    "service_first_result_s": "s",
    "populate_s": "s",
    "register_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: Path, work: Path) -> dict[str, str]:
    """Environment of every child: this checkout's sources, one thread,
    and store/database defaults inside the work directory."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "MEGSIM_JOBS": "1",
        "MEGSIM_STORE": str(work / "default-store"),
        "MEGSIM_DB": str(work / "default.sqlite3"),
    })
    return env


def run_child(args: list[str], root: Path, env: dict, deadline: float) -> float:
    """Run one child to completion; returns its wall time in seconds at
    the reference machine speed (see calibration.py)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    kernel = calibration.kernel_seconds()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} timed out after {exc.timeout:.0f} s") from exc
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(
            f"child {args[0]} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    kernel = (kernel + calibration.kernel_seconds()) / 2
    return calibration.scale(seconds, kernel)


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Set up three times, run the workload once; returns the result document."""
    work = root / ".bench_work" / "e2e" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root, work)
    deadline = time.monotonic() + DEADLINE_S

    setup_seconds, manifests = [], []
    for index in range(SETUP_REPEATS):
        capture_dir = work / f"setup-{index}"
        setup_seconds.append(run_child(
            ["setup", "--workload", workload, "--seed", str(seed),
             "--dir", str(capture_dir)],
            root, env, deadline,
        ))
        manifests.append(json.loads((capture_dir / "manifest.json").read_text()))

    result_path = work / "result.json"
    run_child(
        ["run", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace)),
         "--captures", str(work / f"setup-{SETUP_REPEATS - 1}"),
         "--result", str(result_path)],
        root, env, deadline,
    )
    doc = json.loads(result_path.read_text())
    if any(manifest != manifests[0] for manifest in manifests):
        doc["problems"].append("one seed generated different captures in two setups")
        doc["correct"] = False
    doc["trace"] = int(trace)
    doc["detail"]["setup_seconds"] = setup_seconds
    doc["metrics"]["setup_s"] = {
        "value": statistics.median(setup_seconds), "unit": "s",
    }
    return doc


def exit_status(doc: dict) -> int:
    """0 when every check passed and no operation failed, else 1."""
    return 0 if doc["correct"] and doc["failed"] == 0 else 1


def report(doc: dict) -> dict:
    """Print every metric and detail line; returns the final-line object."""
    metrics = doc["layers"] if doc["trace"] else doc["metrics"]
    print(f"workload {doc['workload']} seed {doc['seed']} trace {doc['trace']}")
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    detail = doc["detail"]
    for name, unit in DETAIL_UNITS.items():
        if name in detail:
            print(f"detail {name} = {detail[name]:.6g} {unit}")
    print(f"detail outputs_sha256 = {detail['outputs_sha256']}")
    for alias, entry in detail["captures"].items():
        print(f"capture {alias} frames={entry['frames']} sha256={entry['sha256']}")
    if "trace_artifact" in detail:
        print(f"trace artifact {detail['trace_artifact']}")
    for problem in doc["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end MEGsim benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"error: {root} has no src/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # One core for this process and its children, so each calibration
    # kernel runs on the core the region it scales runs on.  Where the
    # platform refuses, the kernel beside each segment still scales it.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"note: running unpinned ({exc})", file=sys.stderr)
    try:
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = report(doc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps(final, sort_keys=True))
    return exit_status(doc)


if __name__ == "__main__":
    sys.exit(main())

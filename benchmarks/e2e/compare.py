#!/usr/bin/env python3
"""Compare two sets of e2e benchmark results against BENCHMARK.json bounds.

Compare result documents already written by ``run.py --out``; the two
sets are told apart by their directory::

    python3 benchmarks/e2e/compare.py parent/*.json change/*.json

Or drive the runs first: alternate parent and change, with the same
seed for both sides of each pair, using this benchmark's ``run.py`` in
each checkout (so both sides are measured by identical benchmark code)::

    python3 benchmarks/e2e/compare.py --parent ../parent --change . \\
        --runs 10 --out-dir /tmp/cmp [--workload validate ...]

For every (metric, workload) pair the tool prints both medians and
quartiles, the fraction of pairs the change won (ties count for
neither) and a verdict:

* ``improved``   the change won at least 90% of the pairs and its median
  is better by more than the parent's own quartile spread;
* ``unresolved`` the parent's runs spread wider than the bound, and not
  every change run beats every parent run;
* ``worse``      the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``  otherwise.

Metrics without a bound (the per-layer ones) get ``-``.  The exit
status is 1 when any pair is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent / "run.py"
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Share of pairs the change must win to count as an improvement.
WIN_FRACTION = 0.9


def load_spec(path: Path = BENCHMARK_JSON) -> dict[str, dict]:
    """Metric name -> its BENCHMARK.json entry (end-to-end and per-layer)."""
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_results(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    """(metric, workload) -> values, in (seed, file name) order."""
    docs = sorted(
        (json.loads(path.read_text()) | {"_file": path.name} for path in paths),
        key=lambda doc: (doc["workload"], doc["seed"], doc["_file"]),
    )
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for doc in docs:
        metrics = doc["layers"] if doc.get("trace") else doc["metrics"]
        for name, entry in metrics.items():
            values[(name, doc["workload"])].append(float(entry["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> dict:
    """Medians, quartiles, win fraction and verdict of one pair of sets."""
    lower = better == "lower"

    def wins(a: float, b: float) -> bool:
        return b < a if lower else b > a

    pairs = list(zip(parent, change))
    won = sum(wins(a, b) for a, b in pairs)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    result = {
        "parent": (p1, pmed, p3),
        "change": (c1, cmed, c3),
        "win_fraction": won / len(pairs) if pairs else 0.0,
        "verdict": "-",
    }
    if bound is None or not pairs or pmed == 0:
        return result
    worse_by = (cmed - pmed) / abs(pmed) if lower else (pmed - cmed) / abs(pmed)
    spread = (p3 - p1) / abs(pmed)
    all_better = all(wins(a, b) for a in parent for b in change)
    if result["win_fraction"] >= WIN_FRACTION and -worse_by > spread:
        result["verdict"] = "improved"
    elif spread > bound and not all_better:
        result["verdict"] = "unresolved"
    elif worse_by > bound:
        result["verdict"] = "worse"
    else:
        result["verdict"] = "unchanged"
    return result


def compare(parent_paths: list[Path], change_paths: list[Path],
            spec: dict[str, dict]) -> int:
    """Print one row per (metric, workload); returns the exit status."""
    parent = load_results(parent_paths)
    change = load_results(change_paths)
    status = 0
    print(f"{'metric':30s} {'workload':14s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>5s}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        name, workload = key
        entry = spec.get(name)
        if entry is None:
            continue
        row = verdict(parent[key], change[key], entry["better"], entry.get("bound"))
        fmt = "/".join(f"{v:.4g}" for v in row["parent"])
        cfmt = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{name:30s} {workload:14s} {fmt:>32s} {cfmt:>32s} "
              f"{row['win_fraction']:5.2f}  {row['verdict']}")
        if row["verdict"] == "worse":
            status = 1
    return status


def drive(parent: Path, change: Path, runs: int, workloads: list[str],
          seconds: float, trace: int, out_dir: Path) -> tuple[list[Path], list[Path]]:
    """Run ``runs`` alternating parent/change pairs; returns the result files."""
    files: dict[str, list[Path]] = {"parent": [], "change": []}
    for index in range(runs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                checkout = parent if side == "parent" else change
                target = out_dir / side / f"{workload}-{index}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                proc = subprocess.run(
                    [sys.executable, str(RUN_PY), "--workload", workload,
                     "--seed", str(index), "--seconds", str(seconds),
                     "--trace", str(trace), "--out", str(target.resolve())],
                    cwd=checkout, capture_output=True, text=True, timeout=900,
                )
                if not target.exists():
                    raise SystemExit(
                        f"{side} run of {workload} (seed {index}) produced no "
                        f"result:\n{proc.stderr}"
                    )
                files[side].append(target)
                print(f"ran {side} {workload} seed {index} -> exit {proc.returncode}",
                      file=sys.stderr)
    return files["parent"], files["change"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="result documents of two directories: parent, then change")
    parser.add_argument("--parent", type=Path, help="parent checkout to run")
    parser.add_argument("--change", type=Path, help="change checkout to run")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=Path(".bench_work/compare"))
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.parent or args.change:
        if not (args.parent and args.change):
            parser.error("--parent and --change go together")
        benchmark = json.loads(BENCHMARK_JSON.read_text())
        workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
        seconds = args.seconds or benchmark["run_seconds"]
        parent_files, change_files = drive(
            args.parent, args.change, args.runs, workloads, seconds,
            args.trace, args.out_dir,
        )
    else:
        dirs = list(dict.fromkeys(path.parent for path in args.files))
        if len(dirs) != 2:
            parser.error("give result files from exactly two directories")
        parent_files = [p for p in args.files if p.parent == dirs[0]]
        change_files = [p for p in args.files if p.parent == dirs[1]]
    return compare(parent_files, change_files, spec)


if __name__ == "__main__":
    sys.exit(main())

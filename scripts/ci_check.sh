#!/usr/bin/env bash
# The pre-merge gate (documented in README.md): static analysis first,
# then the tier-1 test suite.  Any non-zero exit fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Includes the interprocedural flow rules (MEG010-MEG013); the exit
# code also fails on stale baseline entries, so the baseline can only
# ever shrink.
echo "== megsim lint =="
python -m repro.lint --root .

# The flow rules run against an empty baseline at HEAD: nothing the
# effect analysis finds may be grandfathered.
if [ -f lint-baseline.txt ] && grep -qv '^[[:space:]]*\(#\|$\)' lint-baseline.txt; then
    echo "lint-baseline.txt must stay empty at HEAD (fix, don't baseline)" >&2
    exit 1
fi

echo "== tier-1 tests =="
python -m pytest -x -q

# The end-to-end benchmark driver imports the program's public API, so
# a change to that API can break it; its self-tests (own pytest.ini)
# run a tiny pass with every check.
echo "== e2e benchmark self-tests =="
python -m pytest -q benchmarks/e2e

# No test imports examples/, so a public-API change could break them
# silently; run the Table IV example end to end on a fresh store.
echo "== examples =="
EXAMPLES_TMP="$(mktemp -d)"
trap 'rm -rf "$EXAMPLES_TMP"' EXIT
MEGSIM_STORE="$EXAMPLES_TMP/store" python examples/accuracy_study.py pvz 0.05
rm -rf "$EXAMPLES_TMP"

# The determinism contract (docs/parallelism.md) must hold whichever
# worker count MEGSIM_JOBS selects, so the cross-check suite runs once
# serially and once with every available CPU.
echo "== parallel determinism (MEGSIM_JOBS=1) =="
MEGSIM_JOBS=1 python -m pytest -x -q tests/test_parallel/test_determinism.py

echo "== parallel determinism (MEGSIM_JOBS=auto) =="
MEGSIM_JOBS=auto python -m pytest -x -q tests/test_parallel/test_determinism.py

# The performance-regression gate (docs/benchmarking.md): run the smoke
# benchmark suite and compare against the checked-in baseline.  Wall
# time is enforced only on a platform matching the baseline's; accuracy
# and work counters are enforced everywhere.  The generous threshold
# absorbs shared-runner noise.  This run uses the default (vector)
# cycle-sim backend.
echo "== bench smoke regression gate =="
GATE_TMP="$(mktemp -d)"
trap 'rm -rf "$GATE_TMP"' EXIT
python -m repro bench --suite smoke --scale 0.05 \
    --compare benchmarks/baselines/smoke.json --threshold 2.0 \
    --out "$GATE_TMP/smoke-vector.json"

# The warm-started cluster sweep must hold its budget: one full-dataset
# k-means per explored k, and no more exploration than 1/3 of what the
# pre-warm-start search spent (465 runs at this scale).  A regression
# here would silently re-inflate every pipeline run's clustering cost.
python - "$GATE_TMP/smoke-vector.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
counters = doc["benchmarks"]["fig7"]["results"]["counters"]
runs = counters["cluster.kmeans_runs"]
explored = counters["cluster.k_explored"]
assert runs == explored, (
    f"warm-started sweep must cost one k-means per explored k "
    f"(runs={runs}, explored={explored})"
)
assert runs * 3 <= 465, (
    f"cluster search budget regressed: {runs} full k-means runs "
    f"(the pre-warm-start search spent 465; >=3x reduction required)"
)
print(f"cluster search budget: OK ({runs} runs, {465 / runs:.2f}x reduction)")
EOF

# The same regression gate under the scalar oracle backend: identical
# accuracy and counters are expected (the parity spec inside the suite
# already proves FrameStats bit-identity per benchmark), so any drift is
# a backend bug, not noise.
echo "== bench smoke regression gate (scalar backend) =="
python -m repro bench --suite smoke --scale 0.05 --backend scalar \
    --compare benchmarks/baselines/smoke.json --threshold 2.0 \
    --out "$GATE_TMP/smoke-scalar.json"

# The artifact-store contract (docs/pipeline.md): two identical warm
# runs sharing one fresh MEGSIM_STORE must produce byte-identical
# deterministic results, and the second must be served from the store —
# zero trace generation, zero functional profiling, zero cycle
# simulation in any benchmark.
echo "== store warm determinism =="
STORE_TMP="$(mktemp -d)"
SERVICE_TMP="$(mktemp -d)"
trap 'rm -rf "$GATE_TMP" "$STORE_TMP" "$SERVICE_TMP"' EXIT
MEGSIM_STORE="$STORE_TMP/store" python -m repro bench --suite smoke \
    --scale 0.02 --warm --out "$STORE_TMP/warm1.json"
MEGSIM_STORE="$STORE_TMP/store" python -m repro bench --suite smoke \
    --scale 0.02 --warm --out "$STORE_TMP/warm2.json"
python - "$STORE_TMP/warm1.json" "$STORE_TMP/warm2.json" <<'EOF'
import json
import sys

first, second = (json.load(open(path)) for path in sys.argv[1:3])
for name in second["benchmarks"]:
    cold, warm = (
        artifact["benchmarks"][name]["results"] for artifact in (first, second)
    )
    # Model outputs must be byte-identical (counters measure *work*,
    # which legitimately collapses on the warm run, so they are not
    # compared here).
    for section in ("metrics", "accuracy", "info"):
        a, b = (json.dumps(r[section], sort_keys=True) for r in (cold, warm))
        assert a == b, f"{name}.results.{section} differs between warm runs"
    if name == "parity":
        # The parity spec is a differential test of the two cycle-sim
        # backends, not a store-backed evaluation: it must actually
        # simulate on every run, so the zero-work assertions below do
        # not apply (its byte-identity across warm runs is asserted
        # above like everything else).
        continue
    counters = warm["counters"]
    for work in ("cycle.frames_simulated", "functional.frames_profiled"):
        assert work not in counters, f"{name}: warm run did work: {work}"
    assert not any(c.startswith("pipeline.computed.") for c in counters), (
        f"{name}: warm run recomputed a pipeline stage"
    )
    # Later specs in the run hit the shared memory tier, so either hit
    # kind proves the store served the evaluation.
    hits = counters.get("store.hits.disk", 0) + counters.get(
        "store.hits.memory", 0
    )
    assert hits > 0, f"{name}: warm run reported no store hits"
second_counters = {
    name: section["results"]["counters"]
    for name, section in second["benchmarks"].items()
}
assert any(c.get("store.hits.disk", 0) > 0 for c in second_counters.values()), (
    "second warm run never read the persistent store"
)
print("store warm determinism: OK")
EOF
# The trace is the pipeline's input, not a stored artifact: it must never
# reach the disk tier.
if [ -e "$STORE_TMP/store/v1/trace" ]; then
    echo "the store holds a trace directory: traces must stay in memory" >&2
    exit 1
fi

# The experiment-service contract (docs/service.md): booting the service
# against a temp database and a fresh store, submitting the smoke suite
# and draining the queue must (a) complete every request, (b) produce
# results numerically identical to the direct pipeline path, which must
# itself be a pure store hit afterwards (cross-path dedup), and (c) make
# an identical resubmission execute zero stage work, proven by counters.
echo "== service end-to-end gate =="
SERVICE_DB="$SERVICE_TMP/service.sqlite3"
MEGSIM_STORE="$SERVICE_TMP/store" MEGSIM_DB="$SERVICE_DB" \
    python -m repro submit --suite smoke --scale 0.02
MEGSIM_STORE="$SERVICE_TMP/store" MEGSIM_DB="$SERVICE_DB" \
    python -m repro serve --once --jobs auto
MEGSIM_STORE="$SERVICE_TMP/store" MEGSIM_DB="$SERVICE_DB" \
    python -m repro submit --suite smoke --scale 0.02
MEGSIM_STORE="$SERVICE_TMP/store" MEGSIM_DB="$SERVICE_DB" \
    python -m repro serve --once --trace "$SERVICE_TMP/serve2.jsonl"
MEGSIM_STORE="$SERVICE_TMP/store" python - "$SERVICE_DB" \
    "$SERVICE_TMP/serve2.manifest.json" <<'EOF'
import json
import sys

from repro.analysis.runner import evaluate_benchmark
from repro.obs import collecting
from repro.service import ResultsDB

db_path, manifest_path = sys.argv[1:3]
with ResultsDB(db_path) as db:
    counts = db.counts()
    runs = db.runs(limit=100)
assert counts["requests"]["failed"] == 0, counts
assert counts["requests"]["completed"] == 16, counts  # 8 + resubmission
assert counts["jobs"] == {"pending": 0, "running": 0,
                          "done": 40, "failed": 0}, counts
assert len(runs) == 16, f"expected 16 runs, got {len(runs)}"
for run in runs:
    doc = run["metrics"]
    with collecting() as col:
        direct = evaluate_benchmark(run["benchmark"], scale=run["scale"])
    computed = [c for c in col.counters if c.startswith("pipeline.computed.")]
    assert not computed, f"{run['benchmark']}: direct run recomputed {computed}"
    assert doc["relative_errors"] == direct.relative_errors(), run["benchmark"]
    assert doc["totals"] == {
        m: getattr(direct.totals, m) for m in doc["totals"]
    }, run["benchmark"]
    assert doc["reduction_factor"] == direct.reduction_factor, run["benchmark"]
# The second serve adopted every job already done — zero executions.
counters = json.load(open(manifest_path))["counters"]
assert counters.get("service.jobs.deduped.done") == 40, counters
assert "service.jobs.executed" not in counters, counters
assert "service.jobs.created" not in counters, counters
assert not any(c.startswith("pipeline.computed.") for c in counters), counters
print("service end-to-end gate: OK")
EOF

# The report contract (docs/observability.md, "Trace IDs and the
# report"): rendering the dashboard twice over the drained service
# database plus the bench artifacts the earlier gates produced must be
# byte-identical (sha256), self-contained (no scripts, no external
# references), and every persisted span tree must answer to its
# request's trace id.
echo "== report determinism gate =="
REPORT_BENCH="$SERVICE_TMP/bench"
mkdir -p "$REPORT_BENCH"
cp "$GATE_TMP/smoke-scalar.json" "$REPORT_BENCH/BENCH_smoke-scalar.json"
cp "$GATE_TMP/smoke-vector.json" "$REPORT_BENCH/BENCH_smoke-vector.json"
MEGSIM_DB="$SERVICE_DB" python -m repro report \
    --bench-dir "$REPORT_BENCH" --out "$SERVICE_TMP/report1.html"
MEGSIM_DB="$SERVICE_DB" python -m repro report \
    --bench-dir "$REPORT_BENCH" --out "$SERVICE_TMP/report2.html"
HASH1="$(sha256sum "$SERVICE_TMP/report1.html" | cut -d' ' -f1)"
HASH2="$(sha256sum "$SERVICE_TMP/report2.html" | cut -d' ' -f1)"
if [ "$HASH1" != "$HASH2" ]; then
    echo "report render is not byte-deterministic: $HASH1 != $HASH2" >&2
    exit 1
fi
echo "report double-render sha256: OK ($HASH1)"
python - "$SERVICE_DB" "$SERVICE_TMP/report1.html" <<'EOF'
import sys

from repro.obs import read_trace_artifact
from repro.service import ResultsDB

db_path, html_path = sys.argv[1:3]
page = open(html_path, encoding="utf-8").read()
for banned in ("<script", "http://", "https://", "src="):
    assert banned not in page, f"report is not self-contained: {banned!r}"
assert "Accuracy vs speedup" in page, "bench scatter section missing"
assert "Stage waterfalls" in page, "bench waterfall section missing"
assert "Request trace" in page, "trace waterfall section missing"
with ResultsDB(db_path) as db:
    runs = db.runs(limit=100)
traced = [r for r in runs if r.get("trace_path")]
assert traced, "no run persisted a trace"
for run in traced:
    artifact = read_trace_artifact(run["trace_path"])
    assert artifact["trace_id"] == run["trace_id"], run["id"]
    stack = list(artifact["roots"])
    while stack:
        record = stack.pop()
        span_trace = record.attrs.get("trace_id")
        if span_trace is not None:
            assert span_trace == run["trace_id"], (
                f"request {run['id']}: span {record.name} carries "
                f"{span_trace}, expected {run['trace_id']}"
            )
        stack.extend(record.children)
print(f"report trace lineage: OK ({len(traced)} traced run(s))")
EOF

# The replay contract (docs/workloads.md): exporting a benchmark as a
# megsim-workload capture and replaying it through the pipeline on a
# fresh store must (a) fingerprint identically across two runs, (b)
# recover the synthetic run's clustering exactly (adjusted rand index
# 1.0), and (c) land every key-metric relative error within 0.5% of the
# synthetic path's.
echo "== replay determinism gate =="
REPLAY_TMP="$(mktemp -d)"
trap 'rm -rf "$GATE_TMP" "$STORE_TMP" "$SERVICE_TMP" "$REPLAY_TMP"' EXIT
MEGSIM_STORE="$REPLAY_TMP/store" python -m repro export-trace hcr \
    --scale 0.05 --out "$REPLAY_TMP/hcr.jsonl"
MEGSIM_STORE="$REPLAY_TMP/store" python - "$REPLAY_TMP/hcr.jsonl" <<'EOF'
import hashlib
import sys

import numpy as np

from repro.analysis.runner import evaluate_benchmark
from repro.core import adjusted_rand_index
from repro.pipeline import PipelineRequest, stage_fingerprints
from repro.workloads.registry import register_workload_file

capture = sys.argv[1]
# The capture's bytes are pinned: the generator and the capture writer
# render exactly the bytes they always have.
digest = hashlib.sha256(open(capture, "rb").read()).hexdigest()
assert digest == (
    "ca14b2cdff377153053a11b9dc05c617633e8f394e5939490df51ea7c4e67d42"
), f"exported hcr capture bytes changed (sha256 {digest})"
ref = register_workload_file(capture)
first = stage_fingerprints(PipelineRequest.create(ref.name))
second = stage_fingerprints(PipelineRequest.create(ref.name))
assert first == second, "replay stage fingerprints drifted between runs"

synthetic = evaluate_benchmark("hcr", scale=0.05)
replayed = evaluate_benchmark(ref.name)


def labels(plan):
    out = np.zeros(plan.total_frames, dtype=np.int64)
    for row, cluster in enumerate(plan.clusters):
        out[list(cluster.members)] = row
    return out


ari = adjusted_rand_index(labels(synthetic.plan), labels(replayed.plan))
assert ari == 1.0, f"replayed clustering diverged (rand index {ari})"
# The capture is lossless, so the replayed evaluation is the synthetic
# one exactly: same plan, same estimate, same ground truth.
assert replayed.plan.to_dict() == synthetic.plan.to_dict(), "replayed plan differs"
assert replayed.estimate == synthetic.estimate, "replayed estimate differs"
assert replayed.totals == synthetic.totals, "replayed ground truth differs"
for metric, error in replayed.relative_errors().items():
    drift = abs(error - synthetic.relative_errors()[metric])
    assert drift <= 0.005, (
        f"{metric}: replay error {error} vs synthetic "
        f"{synthetic.relative_errors()[metric]} (drift {drift})"
    )
print(f"replay determinism gate: OK (rand index {ari}, "
      f"trace fingerprint {first['trace'][:12]})")
EOF

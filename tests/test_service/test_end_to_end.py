"""Submit -> serve -> results: the whole service against a real store.

These tests pin the acceptance criteria of the service: results coming
out of the job queue are numerically identical to the direct pipeline
path, and resubmitting identical work performs zero new stage
executions (proven by counters, not by timing).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.runner import evaluate_benchmark
from repro.obs import collecting
from repro.parallel import ParallelConfig
from repro.pipeline import STAGES
from repro.service import (
    ResultsDB,
    assemble_result,
    build_requests,
    serve,
    submit_requests,
)
from repro.store import ArtifactStore, store_scope

ALIAS = "bbr1"
SCALE = 0.02
#: One job per stage the store persists; the trace has no job.
PERSISTED = [stage for stage in STAGES if stage.encode is not None]


@pytest.fixture
def store(tmp_path):
    """A cold, test-private store installed process-wide.

    ``store_scope`` restores the session store afterwards even though
    workers may re-install the store via ``set_store`` mid-test.
    """
    with store_scope(ArtifactStore(root=tmp_path / "store")) as handle:
        yield handle


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "svc.sqlite3"


def _submit(db_path, benchmarks=(ALIAS,), scale=SCALE) -> list[int]:
    with ResultsDB(db_path) as db:
        return submit_requests(db, build_requests(list(benchmarks), scale=scale))


def test_serve_once_completes_a_submission(store, db_path):
    ids = _submit(db_path)
    with collecting() as collector:
        summary = serve(db_path, once=True)

    assert summary["requests"]["completed"] == 1
    assert summary["requests"]["failed"] == 0
    assert summary["jobs"]["done"] == len(PERSISTED)
    assert summary["results"] == 1
    assert collector.counters["service.jobs.created"] == len(PERSISTED)
    assert collector.counters["service.jobs.executed"] == len(PERSISTED)
    for stage in STAGES:
        assert collector.counters[f"pipeline.computed.{stage.name}"] >= 1

    with ResultsDB(db_path) as db:
        result = db.result(ids[0])
    assert result["benchmark"] == ALIAS
    assert result["schema"] == "megsim-result"


def test_service_results_match_the_direct_path(store, db_path):
    """The numbers archived by the service are byte-identical to what
    `evaluate_benchmark` computes monolithically, recomputed from
    scratch with the store bypassed entirely."""
    ids = _submit(db_path)
    serve(db_path, once=True)
    with ResultsDB(db_path) as db:
        result = db.result(ids[0])

    direct = evaluate_benchmark(ALIAS, scale=SCALE, use_cache=False)
    assert result["relative_errors"] == direct.relative_errors()
    assert result["totals"] == {
        metric: getattr(direct.totals, metric)
        for metric in result["totals"]
    }
    assert result["estimates"] == {
        metric: getattr(direct.estimate, metric)
        for metric in result["estimates"]
    }
    assert result["reduction_factor"] == direct.reduction_factor
    assert result["representatives"] == direct.plan.selected_frame_count


def test_resubmission_is_fully_deduped(store, db_path):
    first = _submit(db_path)
    serve(db_path, once=True)

    with collecting() as collector:
        second = _submit(db_path)
        serve(db_path, once=True)

    # Zero new stage work: no executions, no recomputations — the five
    # existing done jobs are linked to the new request as-is.
    assert collector.counters["service.jobs.deduped.done"] == len(PERSISTED)
    assert "service.jobs.executed" not in collector.counters
    assert "service.jobs.created" not in collector.counters
    assert not any(
        name.startswith("pipeline.computed.") for name in collector.counters
    )

    with ResultsDB(db_path) as db:
        assert db.counts()["jobs"]["done"] == len(PERSISTED)
        assert db.result(second[0]) == db.result(first[0])


def test_artifacts_from_direct_runs_dedupe_into_the_service(store, db_path):
    """Work done outside the service (a plain evaluate/`megsim run`)
    is adopted through the store: jobs are born done, nothing executes."""
    evaluate_benchmark(ALIAS, scale=SCALE)  # populates the shared store

    ids = _submit(db_path)
    with collecting() as collector:
        serve(db_path, once=True)

    assert collector.counters["service.jobs.deduped.store"] == len(PERSISTED)
    assert "service.jobs.executed" not in collector.counters
    assert not any(
        name.startswith("pipeline.computed.") for name in collector.counters
    )
    with ResultsDB(db_path) as db:
        result = db.result(ids[0])
        assert result is not None
        sources = {
            row["source"] for row in db.jobs_for_request(ids[0])
        }
    assert sources == {"store"}


def test_serve_with_worker_pool_matches_serial(store, db_path):
    """`--jobs 2` routes jobs through real pool processes (which write
    their own terminal states into the database) without changing the
    archived numbers."""
    ids = _submit(db_path)
    summary = serve(db_path, once=True, parallel=ParallelConfig(jobs=2))

    assert summary["requests"]["completed"] == 1
    assert summary["jobs"]["done"] == len(PERSISTED)
    with ResultsDB(db_path) as db:
        result = db.result(ids[0])
    direct = evaluate_benchmark(ALIAS, scale=SCALE, use_cache=False)
    assert result["relative_errors"] == direct.relative_errors()


def test_corrupt_request_fails_cleanly(store, db_path):
    with ResultsDB(db_path) as db:
        request_id = db.insert_request("fp", ALIAS, SCALE, 1234, "{not json")
    summary = serve(db_path, once=True)

    assert summary["requests"]["failed"] == 1
    assert summary["results"] == 0
    with ResultsDB(db_path) as db:
        row = db.request(request_id)
        assert row["status"] == "failed"
        assert "ServiceError" in row["error"]


def test_failed_request_carries_the_job_error(store, db_path, monkeypatch):
    """A stage blowing up marks the job failed, and finalization rolls
    the first job error up into the request row."""
    import repro.service.worker as worker_module
    from repro.errors import SimulationError

    def exploding(request, name, store=None, fingerprints=None):
        raise SimulationError("injected stage failure")

    monkeypatch.setattr(worker_module, "materialize_stage", exploding)
    ids = _submit(db_path)
    with collecting() as collector:
        summary = serve(db_path, once=True)

    assert summary["requests"]["failed"] == 1
    assert collector.counters["service.jobs.failed"] >= 1
    with ResultsDB(db_path) as db:
        row = db.request(ids[0])
        assert row["status"] == "failed"
        assert "SimulationError" in row["error"]
        assert db.result(ids[0]) is None


def test_serve_persists_request_traces(store, db_path):
    """Completing a request writes its span tree beside the database:
    `results.trace_path` points at a megsim-trace artifact whose header
    and every recorded span answer to the request's trace id."""
    from repro.obs import read_trace_artifact

    ids = _submit(db_path)
    serve(db_path, once=True)  # no outer collector: serve installs one

    with ResultsDB(db_path) as db:
        (run,) = db.runs()
        assert run["id"] == ids[0]
        assert run["trace_id"], "submission minted no trace id"
        assert run["trace_path"], "finalization persisted no trace"

    artifact = read_trace_artifact(run["trace_path"])
    assert artifact["trace_id"] == run["trace_id"]
    assert artifact["meta"]["request_id"] == ids[0]
    names = sorted(root.name for root in artifact["roots"])
    assert names == sorted(
        ["service.schedule"] + [f"service.job.{s.name}" for s in PERSISTED]
    )
    for root in artifact["roots"]:
        if root.name == "service.schedule":
            continue
        assert root.attrs["trace_id"] == run["trace_id"], root.name
        assert root.attrs["request_id"] == ids[0], root.name


def test_job_spans_carry_the_request_trace_id(store, db_path):
    """The acceptance criterion: under an ambient collector, every
    executed job's span links back to the request that caused it."""
    ids = _submit(db_path)
    with ResultsDB(db_path) as db:
        trace_id = db.request(ids[0])["trace_id"]

    with collecting() as collector:
        serve(db_path, once=True)

    job_spans = [
        record for record in collector.spans
        if record.name.startswith("service.job.")
    ]
    assert len(job_spans) == len(PERSISTED)
    for record in job_spans:
        assert record.attrs["trace_id"] == trace_id
        assert record.attrs["request_id"] == ids[0]


def test_deduped_resubmission_trace_is_schedule_only(store, db_path):
    """A fully-deduped request executes nothing, so its persisted trace
    honestly contains just the schedule span."""
    from repro.obs import read_trace_artifact

    _submit(db_path)
    serve(db_path, once=True)
    second = _submit(db_path)
    serve(db_path, once=True)

    with ResultsDB(db_path) as db:
        run = [r for r in db.runs() if r["id"] == second[0]][0]
    artifact = read_trace_artifact(run["trace_path"])
    assert [root.name for root in artifact["roots"]] == ["service.schedule"]
    assert artifact["trace_id"] == run["trace_id"]


def test_on_drain_fires_after_progress_only(store, db_path):
    """The `--report` hook: called once when a drain follows progress,
    not at all when the queue was already empty."""
    calls = []
    _submit(db_path)
    serve(db_path, once=True, on_drain=lambda db: calls.append(db.path))
    assert len(calls) == 1
    assert calls[0].samefile(db_path)

    serve(db_path, once=True, on_drain=lambda db: calls.append(db.path))
    assert len(calls) == 1  # empty queue: no progress, no regeneration


def test_assemble_result_document_is_json_serializable(store):
    request = build_requests([ALIAS], scale=SCALE)[0]
    document = assemble_result(request, store)
    round_tripped = json.loads(json.dumps(document, sort_keys=True))
    assert round_tripped["fingerprints"]["estimate"]
    assert set(round_tripped["relative_errors"]) == {
        "cycles", "dram_accesses", "l2_accesses", "tile_cache_accesses"
    }


class TestWorkloadSubmission:
    """Scripted and replay keys flow through the service layer."""

    def test_empty_submission_is_the_synthetic_suite(self):
        requests = build_requests([], scale=SCALE)
        assert len(requests) == 8
        assert all(request.workload is None for request in requests)

    def test_scripted_key_carries_its_ref(self):
        (request,) = build_requests(["hcr-osc"], scale=SCALE)
        assert request.workload is not None
        assert request.workload.kind == "scripted"

    def test_unknown_key_lists_the_registry(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="hcr-drift"):
            build_requests(["doom"], scale=SCALE)

    def test_scripted_request_completes_end_to_end(self, tmp_path):
        from repro.service import assemble_result
        from repro.service.codec import decode_request, encode_request
        from repro.pipeline import stage_fingerprints

        (request,) = build_requests(["hcr-flip"], scale=SCALE)
        # The database round trip a worker would see.
        request = decode_request(encode_request(request))
        store = ArtifactStore(tmp_path / "store")
        with store_scope(store):
            fingerprints = stage_fingerprints(request)
            document = assemble_result(request, store, fingerprints)
        assert document["benchmark"] == "hcr-flip"
        assert document["relative_errors"]

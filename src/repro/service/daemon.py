"""The serve loop: claim requests, dispatch ready jobs, finalize results.

:func:`serve` is the dispatcher half of the service (the scheduler half
is :mod:`repro.service.scheduler`): a single loop that drives every
request through its lifecycle by repeating one *tick* —

1. **claim** — move pending requests to ``running`` and expand each
   into fingerprint-keyed jobs (dedup happens here);
2. **dispatch** — claim every ready job (``pending`` with all upstream
   jobs ``done``) and execute the wave through
   :func:`~repro.parallel.parallel_map`, so ``--jobs N`` parallelizes
   independent stage work across requests;
3. **finalize** — for each running request whose jobs are all terminal,
   assemble the result document from store artifacts and record it (or
   mark the request failed, carrying the first job error).

The service runs **one dispatcher per database**: claims are optimistic
so a second dispatcher would be safe, merely wasteful — but stranded
``running`` jobs are re-queued at startup under that assumption
(:meth:`~repro.service.db.ResultsDB.recover_running_jobs`).

A tick that changes nothing means the queue is drained (jobs only move
when this loop moves them): ``once=True`` returns then, the daemon mode
sleeps ``poll_seconds`` and polls again, up to ``idle_limit`` empty
polls (``None`` = forever).
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Any, Callable

from repro.analysis.metrics import key_metric_errors
from repro.errors import ServiceError
from repro.gpu.stats import KEY_METRICS
from repro.obs import (
    Span,
    collecting,
    counter,
    get_collector,
    span,
    write_trace_artifact,
)
from repro.parallel import ParallelConfig, parallel_map
from repro.pipeline import (
    evaluation_fingerprint,
    materialize_stage,
    stage_fingerprints,
)
from repro.pipeline.request import PipelineRequest
from repro.service.codec import decode_request
from repro.service.db import ResultsDB
from repro.service.scheduler import expand_request
from repro.service.worker import execute_job
from repro.store import ArtifactStore, get_store

#: Schema tag of the result document stored in ``results.metrics_json``.
RESULT_SCHEMA = "megsim-result"

#: Bumped when the result document layout changes incompatibly.
RESULT_SCHEMA_VERSION = 1


def assemble_result(
    request: PipelineRequest,
    store: ArtifactStore | None = None,
    fingerprints: dict[str, str] | None = None,
) -> dict[str, Any]:
    """The queryable metrics document of one completed evaluation.

    Reads the ``plan``/``ground_truth``/``estimate`` artifacts (store
    hits when the jobs ran; recomputed transparently otherwise) and
    reduces them to plain JSON: ground-truth totals, estimates and
    relative errors on the four key metrics — scored by
    :func:`~repro.analysis.metrics.key_metric_errors`, like the direct
    path's :meth:`~repro.analysis.runner.BenchmarkEvaluation.relative_errors`
    — plus the sampling reduction and every stage fingerprint.
    """
    fps = fingerprints if fingerprints is not None else stage_fingerprints(request)
    plan = materialize_stage(request, "plan", store=store, fingerprints=fps)
    truth = materialize_stage(
        request, "ground_truth", store=store, fingerprints=fps
    )
    estimate = materialize_stage(
        request, "estimate", store=store, fingerprints=fps
    )
    totals = truth.totals
    return {
        "schema": RESULT_SCHEMA,
        "version": RESULT_SCHEMA_VERSION,
        "benchmark": request.alias,
        "scale": request.scale,
        "seed": request.options.seed,
        "frames": len(truth.frame_ids),
        "representatives": plan.selected_frame_count,
        "reduction_factor": plan.reduction_factor,
        "totals": {m: getattr(totals, m) for m in KEY_METRICS},
        "estimates": {m: getattr(estimate, m) for m in KEY_METRICS},
        "relative_errors": key_metric_errors(estimate, totals),
        "fingerprints": {**fps, "evaluation": evaluation_fingerprint(request, fps)},
    }


def _claim_and_expand(db: ResultsDB, store: ArtifactStore) -> int:
    """Tick step 1: pending requests become running, with jobs linked."""
    claimed = 0
    for row in db.pending_requests():
        request_id = int(row["id"])
        if not db.claim_request(request_id):
            continue
        claimed += 1
        counter("service.requests.claimed")
        try:
            request = decode_request(row["request_json"])
        except ServiceError as exc:
            db.finish_request(
                request_id, "failed", error=f"{type(exc).__name__}: {exc}"
            )
            counter("service.requests.failed")
            continue
        expand_request(db, request_id, request, store=store)
    return claimed


def _dispatch_wave(
    db: ResultsDB, store: ArtifactStore, parallel: ParallelConfig | None
) -> int:
    """Tick step 2: execute every currently ready job as one wave."""
    payloads: list[tuple[int, str, str, int | None, str | None]] = []
    for row in db.ready_jobs():
        job_id = int(row["id"])
        if not db.claim_job(job_id):
            continue
        request_row = db.job_request_row(job_id)
        if request_row is None:
            db.finish_job(job_id, error="job is linked to no request")
            continue
        # The first linked request lends the job its identity: its span
        # is stamped with that request's id and trace id, so the
        # persisted trace artifact can claim the subtree.
        payloads.append((
            job_id,
            str(row["stage"]),
            str(request_row["request_json"]),
            int(request_row["id"]),
            request_row["trace_id"],
        ))
    if not payloads:
        return 0
    with span("service.dispatch", jobs=len(payloads)):
        parallel_map(
            execute_job,
            payloads,
            parallel=parallel,
            state={
                "db_path": str(db.path),
                "store_root": (
                    None if store.root is None else str(store.root)
                ),
            },
        )
    return len(payloads)


def _request_trace_spans(request_id: int) -> list[Span]:
    """Completed spans recorded on one request's behalf, oldest first.

    The serve collector interleaves every request's spans; a request
    claims the subtrees stamped with its id — its ``service.schedule``
    span and each ``service.job.*`` span whose dispatch payload named
    it.  Jobs deduped onto another request's execution carry *that*
    request's id (the first-linked rule), so a fully-deduped request
    honestly shows only its scheduling span: no work ran for it.
    """
    collector = get_collector()
    if collector is None:
        return []
    return [
        record for record in collector.spans
        if record.attrs.get("request_id") == request_id
        and (
            record.name == "service.schedule"
            or record.name.startswith("service.job.")
        )
    ]


def _persist_trace(db: ResultsDB, row, request_id: int) -> str | None:
    """Write one completed request's span trees beside the database.

    Returns the artifact path for ``results.trace_path``, or ``None``
    when nothing was recorded (no collector, or a trace-less request).
    """
    spans = _request_trace_spans(request_id)
    if not spans:
        return None
    target = db.path.parent / "traces" / f"request-{request_id}.jsonl"
    write_trace_artifact(
        target,
        spans,
        trace_id=str(row["trace_id"] or ""),
        meta={
            "request_id": request_id,
            "benchmark": str(row["benchmark"]),
            "scale": float(row["scale"]),
        },
    )
    counter("service.traces.persisted")
    return str(target)


def _finalize_requests(db: ResultsDB, store: ArtifactStore) -> int:
    """Tick step 3: settle running requests whose jobs are all terminal."""
    settled = 0
    for row in db.requests_by_status("running"):
        request_id = int(row["id"])
        jobs = db.jobs_for_request(request_id)
        failed = [job for job in jobs if job["status"] == "failed"]
        # A failed job settles the request immediately: its dependents
        # can never become ready, so waiting for them would deadlock.
        # Untouched sibling jobs stay pending — a later request (or a
        # resubmission) adopts and re-queues the failed work.
        if not jobs or (
            not failed
            and any(job["status"] in ("pending", "running") for job in jobs)
        ):
            continue
        with span(
            "service.finalize",
            benchmark=row["benchmark"],
            request_id=request_id,
        ):
            if failed:
                first = failed[0]
                db.finish_request(
                    request_id,
                    "failed",
                    error=f"stage {first['stage']}: {first['error']}",
                )
                counter("service.requests.failed")
            else:
                request = decode_request(row["request_json"])
                db.record_result(
                    request_id,
                    assemble_result(request, store),
                    trace_path=_persist_trace(db, row, request_id),
                )
                db.finish_request(request_id, "completed")
                counter("service.requests.completed")
        settled += 1
    return settled


def serve(
    db_path: str | None = None,
    parallel: ParallelConfig | None = None,
    once: bool = False,
    poll_seconds: float = 1.0,
    idle_limit: int | None = None,
    store: ArtifactStore | None = None,
    on_drain: Callable[[ResultsDB], None] | None = None,
) -> dict[str, Any]:
    """Run the dispatcher loop against one results database.

    Args:
        db_path: database file (``--db``); ``None`` resolves via
            ``MEGSIM_DB`` and the default path.
        parallel: worker-pool configuration for job waves.
        once: drain the queue (loop until a tick changes nothing) and
            return instead of polling for new submissions.
        poll_seconds: sleep between empty polls in daemon mode.
        idle_limit: stop after this many consecutive empty polls
            (``None`` = poll forever); ignored when ``once`` is set.
        on_drain: called with the open database each time the queue
            drains after progress was made (the ``serve --report`` hook:
            the CLI passes a report regenerator; keeping it a callback
            keeps this module from importing :mod:`repro.report`).

    Returns:
        The final :meth:`~repro.service.db.ResultsDB.counts` summary,
        plus ``db_path``, ``schema_version`` and the tick/idle tallies.

    A collector is installed for the duration of the loop when none is
    active: job span trees and their counters must merge somewhere for
    per-request traces to be persisted, with or without ``--trace``.
    """
    live_store = store if store is not None else get_store()
    ticks = 0
    idle = 0
    dirty = False
    with ResultsDB(db_path) as db, ExitStack() as stack:
        if get_collector() is None:
            stack.enter_context(collecting())
        with span("service.serve", db=str(db.path), once=once):
            recovered = db.recover_running_jobs()
            if recovered:
                counter("service.jobs.recovered", recovered)
            while True:
                progressed = _claim_and_expand(db, live_store)
                progressed += _dispatch_wave(db, live_store, parallel)
                progressed += _finalize_requests(db, live_store)
                ticks += 1
                if progressed:
                    dirty = True
                    idle = 0
                    continue
                if dirty and on_drain is not None:
                    with span("service.on_drain"):
                        on_drain(db)
                    dirty = False
                if once:
                    break
                idle += 1
                counter("service.polls.idle")
                if idle_limit is not None and idle >= idle_limit:
                    break
                time.sleep(poll_seconds)
        summary = db.counts()
        summary["db_path"] = str(db.path)
        summary["schema_version"] = db.schema_version()
        summary["ticks"] = ticks
        summary["idle_polls"] = idle
    return summary

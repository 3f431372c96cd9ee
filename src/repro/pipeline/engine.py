"""Stage execution against the artifact store.

:func:`materialize_stage` is the one executor: it produces a single
stage's artifact, trying the store before computing — a stage whose
fingerprint is already present (put there by an earlier call, another
process, or a :mod:`repro.parallel` worker) is decoded instead of
recomputed — and recursing into upstream stages only on a miss.  Each
stage runs under a ``pipeline.<name>`` span and reports
``pipeline.hits.<name>`` / ``pipeline.computed.<name>`` counters, so a
trace shows exactly which work a warm store absorbed.  Callers that
need several stages share one ``artifacts`` memo across their calls, so
an upstream stage is built at most once even without a store.
:func:`~repro.analysis.runner.evaluate_benchmark` asks for the five
derived stages this way, and the experiment service
(:mod:`repro.service`) shards one evaluation into five fingerprint-keyed
jobs with it.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigError
from repro.obs import counter, span
from repro.pipeline.request import PipelineRequest
from repro.pipeline.stages import STAGES, stage_fingerprints
from repro.store import ArtifactStore

_STAGES_BY_NAME = {stage.name: stage for stage in STAGES}


def materialize_stage(
    request: PipelineRequest,
    name: str,
    store: ArtifactStore | None = None,
    fingerprints: dict[str, str] | None = None,
    artifacts: dict[str, Any] | None = None,
) -> Any:
    """Produce exactly one stage's artifact, recursing only on misses.

    The store is consulted first; a hit decodes and returns without
    touching any upstream stage.  On a miss the required upstream
    artifacts are materialized the same way (recursively), the stage is
    computed, and the result is put in the store (on disk only when the
    stage has an ``encode`` hook).  Recursively materialized
    upstreams nest under the requesting stage's span.

    Args:
        request: the resolved evaluation inputs.
        name: the stage to produce (a :data:`STAGES` name).
        store: artifact store to read/write; ``None`` recomputes.
        fingerprints: precomputed :func:`stage_fingerprints` output.
        artifacts: ``stage name -> artifact`` memo shared across calls;
            a stage already in it is returned as is, and every stage
            this call produces is added to it.

    Returns:
        The stage's artifact.

    Raises:
        ConfigError: on an unknown stage name.
    """
    if name not in _STAGES_BY_NAME:
        raise ConfigError(
            f"unknown pipeline stage {name!r}; expected one of "
            f"{', '.join(_STAGES_BY_NAME)}"
        )
    stage = _STAGES_BY_NAME[name]
    fps = fingerprints if fingerprints is not None else stage_fingerprints(request)
    if artifacts is None:
        artifacts = {}
    if name in artifacts:
        return artifacts[name]
    fp = fps[name]
    with span(
        f"pipeline.{name}", benchmark=request.alias, fingerprint=fp[:12]
    ):
        obj = None
        if store is not None:
            obj = store.get(stage.kind, fp, decode=stage.decode)
        if obj is None:
            for upstream in stage.requires:
                materialize_stage(
                    request, upstream, store=store,
                    fingerprints=fps, artifacts=artifacts,
                )
            obj = stage.compute(request, artifacts)
            counter(f"pipeline.computed.{name}")
            if store is not None:
                store.put(stage.kind, fp, obj, encode=stage.encode)
        else:
            counter(f"pipeline.hits.{name}")
    artifacts[name] = obj
    return obj

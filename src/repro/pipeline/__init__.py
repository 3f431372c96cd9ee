"""Staged evaluation pipeline.

The end-to-end flow the paper evaluates — trace generation, functional
profiling, sampling-plan construction, ground-truth cycle simulation,
representative simulation, extrapolation — decomposed into six typed
stages (:mod:`repro.pipeline.stages`), each declaring its inputs, its
upstream dependencies and a deterministic fingerprint, executed against
the content-addressed artifact store (:mod:`repro.store`) by one
executor, :func:`materialize_stage`, which builds only the stages a
caller asks for and whatever their store misses need.
``docs/pipeline.md`` documents the stage graph and the fingerprint
rules.

:func:`repro.analysis.runner.evaluate_benchmark` is a thin composition
over this package; use the pipeline directly when you need individual
stage artifacts or their fingerprints::

    from repro.pipeline import PipelineRequest, materialize_stage, stage_fingerprints
    from repro.store import get_store

    request = PipelineRequest.create("hcr", scale=0.1)
    print(stage_fingerprints(request)["plan"])   # address, nothing runs
    plan = materialize_stage(request, "plan", store=get_store())
"""

from repro.pipeline.engine import materialize_stage
from repro.pipeline.request import PipelineRequest
from repro.pipeline.stages import (
    STAGES,
    Stage,
    evaluation_fingerprint,
    stage_fingerprints,
    validate_stages,
)

__all__ = [
    "PipelineRequest",
    "STAGES",
    "Stage",
    "evaluation_fingerprint",
    "materialize_stage",
    "stage_fingerprints",
    "validate_stages",
]

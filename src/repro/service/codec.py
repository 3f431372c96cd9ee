"""Request serialization: :class:`~repro.pipeline.request.PipelineRequest`
to JSON and back.

The database stores every submission as a JSON document so a worker in
another process (or a ``megsim runs`` query months later) can rebuild
the exact request.  Encoding reuses the store's :func:`~repro.store.fingerprint.jsonable`
canonicalization — the same flattening the fingerprints hash — and
decoding rebuilds the frozen dataclasses recursively from their type
hints, so ``decode_request(encode_request(r))`` fingerprints identically
to ``r`` (the property the dedup machinery rests on, pinned by
``tests/test_service/test_codec.py``).
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing

from repro.core.sampler import MEGsimOptions
from repro.errors import ServiceError
from repro.gpu.config import CycleConfig, GPUConfig
from repro.pipeline.request import PipelineRequest
from repro.store import jsonable
from repro.workloads.base import WorkloadRef

#: Schema tag of the encoded request document.
REQUEST_SCHEMA = "megsim-request"

#: Bumped when the encoding changes incompatibly.
#: v2 adds the ``workload`` ref (``None`` for synthetic benchmarks);
#: v1 documents predate the registry and decode with ``workload=None``.
REQUEST_SCHEMA_VERSION = 2

#: Versions :func:`decode_request` still accepts.
_READABLE_VERSIONS = (1, REQUEST_SCHEMA_VERSION)


def encode_request(request: PipelineRequest) -> dict:
    """The JSON document stored in ``requests.request_json``."""
    return {
        "schema": REQUEST_SCHEMA,
        "version": REQUEST_SCHEMA_VERSION,
        "alias": request.alias,
        "scale": request.scale,
        "options": jsonable(request.options),
        "config": jsonable(request.config),
        "cycle": jsonable(request.cycle),
        "workload": (
            None if request.workload is None else jsonable(request.workload)
        ),
    }


def _build(cls: type, payload):
    """Rebuild a (possibly nested) frozen dataclass from plain JSON."""
    if not dataclasses.is_dataclass(cls):
        return payload
    if not isinstance(payload, dict):
        raise ServiceError(
            f"cannot rebuild {cls.__name__} from {type(payload).__name__}"
        )
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for spec in dataclasses.fields(cls):
        if spec.name not in payload:
            continue  # absent field: the dataclass default applies
        value = payload[spec.name]
        target = hints.get(spec.name)
        origin = typing.get_origin(target)
        if origin is typing.Union or origin is types.UnionType:
            # Optional[T] / T | None: rebuild against the non-None arm.
            alternatives = [
                arg for arg in typing.get_args(target)
                if arg is not type(None)
            ]
            target = alternatives[0] if len(alternatives) == 1 else None
            origin = typing.get_origin(target)
        if value is None:
            kwargs[spec.name] = None
        elif target is not None and dataclasses.is_dataclass(target):
            kwargs[spec.name] = _build(target, value)
        elif origin is tuple:
            kwargs[spec.name] = tuple(value)
        else:
            kwargs[spec.name] = value
    return cls(**kwargs)


def decode_request(payload: dict | str) -> PipelineRequest:
    """Rebuild the exact :class:`PipelineRequest` a document encodes.

    Args:
        payload: the :func:`encode_request` output, as a dict or its
            JSON string form (the database column).

    Raises:
        ServiceError: on a schema mismatch or a malformed document.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request document is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError("request document must be a JSON object")
    if payload.get("schema") != REQUEST_SCHEMA:
        raise ServiceError(
            f"request document schema is {payload.get('schema')!r}, "
            f"expected {REQUEST_SCHEMA!r}"
        )
    if payload.get("version") not in _READABLE_VERSIONS:
        raise ServiceError(
            f"request document version {payload.get('version')!r} is not "
            f"among the supported {_READABLE_VERSIONS}"
        )
    workload = payload.get("workload")
    try:
        return PipelineRequest(
            alias=str(payload["alias"]),
            scale=float(payload["scale"]),
            options=_build(MEGsimOptions, payload["options"]),
            config=_build(GPUConfig, payload["config"]),
            # Documents written before the backend existed omit the
            # field; they meant the scalar backend, the default of their
            # time, which is also what keeps their fingerprints stable.
            cycle=(
                _build(CycleConfig, payload["cycle"])
                if "cycle" in payload
                else CycleConfig(backend="scalar")
            ),
            # v1 documents predate the registry: they could only encode
            # synthetic benchmarks, whose workload ref is None.
            workload=(
                None if workload is None else _build(WorkloadRef, workload)
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed request document: {exc}") from exc

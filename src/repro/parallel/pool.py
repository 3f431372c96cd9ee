"""Deterministic process-pool map with observability round-tripping.

:func:`parallel_map` is the one primitive every pooled fan-out builds on:
it applies a picklable worker function to a list of items and returns
the results *in item order*, regardless of which worker finished first.
Ordered results are what make parallel runs byte-identical to serial
ones — callers merge by position, never by completion time.

Mechanics:

* ``jobs=1`` (the serial fallback) runs the same worker function inline,
  in order, with the same worker state installed — so the serial and
  pooled code paths are literally the same function applied to the same
  items.
* Workers receive shared, read-only state (a store root, a scale)
  through :func:`get_state`, installed once per worker process by the
  pool initializer.  Under the ``fork`` start method (preferred when
  available) that state is inherited by copy-on-write and never
  pickled; under ``spawn`` it is pickled once per worker, not once per
  task.
* Each pooled task runs under a private :class:`~repro.obs.Collector`;
  its spans/counters come back as a picklable
  :class:`~repro.obs.ObsBuffer` merged into the parent's collector in
  item order (see :mod:`repro.obs.buffer`), so ``--trace`` and
  ``--profile`` stay complete under parallelism.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Iterable

from repro.errors import ConfigError
from repro.obs import capture_buffer, collecting, get_collector, merge_buffer
from repro.parallel.config import ParallelConfig

#: Shared read-only state of the current worker (or of the serial path).
_WORKER_STATE: dict[str, Any] = {}

#: Reserved state key carrying the parent run's trace context into
#: workers: ``{"trace_id", "parent_span", "parent_span_id"}``.  Installed
#: automatically by :func:`parallel_map` when a collector is active, so
#: worker span trees join the parent's trace instead of starting one of
#: their own.
TRACE_STATE_KEY = "__obs_trace__"


def get_state(key: str) -> Any:  # megsim: ambient(global-read)
    """Fetch one entry of the worker's shared state.

    Raises:
        ConfigError: when the key was never installed — the worker
            function is being called outside :func:`parallel_map`.
    """
    try:
        return _WORKER_STATE[key]
    except KeyError:
        raise ConfigError(
            f"worker state {key!r} is not installed; call this function "
            "through parallel_map(..., state={...})"
        ) from None


def _install_state(state: dict[str, Any]) -> None:  # megsim: ambient(global-write)
    """(Re)install the worker-shared state (pool initializer)."""
    _WORKER_STATE.clear()
    _WORKER_STATE.update(state)


def _trace_context() -> dict:  # megsim: ambient(global-read)
    """The parent run's trace context, if :func:`parallel_map` shipped one."""
    return _WORKER_STATE.get(TRACE_STATE_KEY) or {}


def _run_buffered(fn: Callable[[Any], Any], task: tuple[int, Any]):
    """Run one indexed task under a private collector.

    The collector inherits the parent run's ``trace_id`` from the
    shipped trace context (fresh otherwise), and the returned
    :class:`~repro.obs.ObsBuffer` is labelled ``task:<index>`` — the
    item's position in the work list, which is deterministic where a
    worker pid would not be.
    """
    index, item = task
    with collecting(trace_id=_trace_context().get("trace_id")) as collector:
        result = fn(item)
    return result, capture_buffer(collector, worker=f"task:{index}")


def _mp_context():
    """The multiprocessing context: ``fork`` when available, else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    parallel: ParallelConfig | None = None,
    state: dict[str, Any] | None = None,
) -> list[Any]:
    """Apply ``fn`` to every item, preserving item order in the results.

    Args:
        fn: a module-level (picklable) function of one item.
        items: the work list; each item must be picklable when
            ``parallel.jobs > 1``.
        parallel: pool configuration; ``None`` or ``jobs=1`` runs
            serially inline.
        state: shared read-only state installed in every worker (and on
            the serial path), readable via :func:`get_state`.

    Returns:
        ``[fn(item) for item in items]`` — computed by up to
        ``parallel.jobs`` worker processes, merged back in item order.

    Raises:
        Whatever ``fn`` raises (worker exceptions propagate); plus
        :class:`~repro.errors.ConfigError` for bad configuration.
    """
    config = parallel if parallel is not None else ParallelConfig()
    work = list(items)
    shared = dict(state) if state else {}
    jobs = min(config.jobs, len(work)) if work else 1

    # Ship the parent run's trace context alongside the caller's state so
    # worker collectors join this run's trace (serial execution needs no
    # context: it records straight into the parent collector).
    active = get_collector()
    if active is not None and TRACE_STATE_KEY not in shared:
        open_span = active.current_span()
        shared[TRACE_STATE_KEY] = {
            "trace_id": active.trace_id,
            "parent_span": open_span.name if open_span is not None else None,
            "parent_span_id": (
                open_span.span_id if open_span is not None else None
            ),
        }

    if jobs <= 1:
        previous = dict(_WORKER_STATE)
        _install_state(shared)
        try:
            return [fn(item) for item in work]
        finally:
            _install_state(previous)

    # Batch items so each worker gets a handful of tasks (load balance
    # without per-item IPC).
    chunksize = max(1, -(-len(work) // (jobs * 4)))
    with ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=_mp_context(),
        initializer=_install_state,
        initargs=(shared,),
    ) as pool:
        outcomes = list(
            pool.map(
                partial(_run_buffered, fn), enumerate(work),
                chunksize=chunksize,
            )
        )

    collector = get_collector()
    results = []
    for result, buffer in outcomes:
        results.append(result)
        if collector is not None:
            merge_buffer(collector, buffer)
    return results

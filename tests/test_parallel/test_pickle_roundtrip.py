"""Pickle round-trips for the objects a pooled fan-out may move between
processes.

Worker results and observability buffers come back pickled, and under
the ``spawn`` start method the worker state is pickled too; each of
these objects must survive ``pickle`` unchanged or a pooled run
silently diverges from the serial one.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.gpu.cycle_sim import CycleAccurateSimulator
from repro.gpu.functional_sim import FunctionalSimulator
from repro.obs import capture_buffer, collecting, counter, gauge, span


def _assert_profiles_equal(left, right) -> None:
    assert left.frame_id == right.frame_id
    assert np.array_equal(left.vs_executions, right.vs_executions)
    assert np.array_equal(left.fs_executions, right.fs_executions)
    assert left.primitives == right.primitives
    assert left.vertex_instructions == right.vertex_instructions
    assert left.fragment_instructions == right.fragment_instructions


class TestWorkerBoundaryPickling:
    def test_frame(self, tiny_trace):
        frame = tiny_trace.frames[2]
        restored = pickle.loads(pickle.dumps(frame))
        assert restored == frame

    def test_workload_trace(self, tiny_trace):
        restored = pickle.loads(pickle.dumps(tiny_trace))
        assert restored == tiny_trace
        assert restored.frame_count == tiny_trace.frame_count

    def test_frame_profile(self, tiny_trace):
        profile = FunctionalSimulator().profile(tiny_trace).profiles[0]
        restored = pickle.loads(pickle.dumps(profile))
        _assert_profiles_equal(restored, profile)

    def test_frame_stats(self, tiny_trace):
        stats = CycleAccurateSimulator().simulate(
            tiny_trace, frame_ids=[1]
        ).frame_stats[0]
        restored = pickle.loads(pickle.dumps(stats))
        assert restored == stats

    def test_simulators(self, tiny_trace):
        # The pool's shared worker state: both simulators must cross the
        # process boundary under the spawn start method too.
        functional = pickle.loads(pickle.dumps(FunctionalSimulator()))
        cycle = pickle.loads(pickle.dumps(CycleAccurateSimulator()))
        profile = functional.profile(tiny_trace).profiles[0]
        assert profile.primitives > 0
        result = cycle.simulate(tiny_trace, frame_ids=[0])
        assert result.frame_stats[0].cycles > 0

    def test_obs_buffer(self):
        with collecting() as collector:
            with span("outer", phase="test"):
                with span("inner"):
                    counter("work.items", 3)
                gauge("work.level", 0.5)
        buffer = capture_buffer(collector)
        restored = pickle.loads(pickle.dumps(buffer))
        assert restored == buffer
        assert restored.span_count == buffer.span_count == 2
        assert restored.counters["work.items"] == 3

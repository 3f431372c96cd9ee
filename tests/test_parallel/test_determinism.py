"""The determinism contract: parallel output == serial output, bytewise.

``scripts/ci_check.sh`` runs this module twice — once with
``MEGSIM_JOBS=1`` and once with ``MEGSIM_JOBS=auto`` — so the
environment-driven tests exercise a real pool whenever the host has the
CPUs for one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.sampler import MEGsim
from repro.gpu.functional_sim import FunctionalSimulator
from repro.parallel import ParallelConfig, profile_parallel


def _assert_sequence_profiles_equal(left, right) -> None:
    assert left.trace_name == right.trace_name
    assert left.frame_count == right.frame_count
    assert np.array_equal(
        left.vertex_shader_weights, right.vertex_shader_weights
    )
    assert np.array_equal(
        left.fragment_shader_weights, right.fragment_shader_weights
    )
    for ours, theirs in zip(left.profiles, right.profiles):
        assert ours.frame_id == theirs.frame_id
        assert np.array_equal(ours.vs_executions, theirs.vs_executions)
        assert np.array_equal(ours.fs_executions, theirs.fs_executions)
        assert ours.primitives == theirs.primitives
        assert ours.vertex_instructions == theirs.vertex_instructions
        assert ours.fragment_instructions == theirs.fragment_instructions


@pytest.fixture(scope="module")
def serial_profile(phased_trace):
    return FunctionalSimulator().profile(phased_trace)


@pytest.fixture(scope="module")
def serial_plan(serial_profile):
    return MEGsim().plan_from_profile(serial_profile)


class TestProfileDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_profile_matches_serial(self, phased_trace, serial_profile, jobs):
        pooled = profile_parallel(
            phased_trace, parallel=ParallelConfig(jobs=jobs)
        )
        _assert_sequence_profiles_equal(pooled, serial_profile)

    def test_profile_with_environment_jobs(self, phased_trace, serial_profile):
        # ParallelConfig.from_cli(None) resolves MEGSIM_JOBS, so this
        # test changes meaning (serial vs pooled) across the CI variants.
        pooled = profile_parallel(
            phased_trace, parallel=ParallelConfig.from_cli(None)
        )
        _assert_sequence_profiles_equal(pooled, serial_profile)

    def test_chunk_size_does_not_change_results(
        self, phased_trace, serial_profile
    ):
        pooled = profile_parallel(
            phased_trace, parallel=ParallelConfig(jobs=2, chunk_size=7)
        )
        _assert_sequence_profiles_equal(pooled, serial_profile)


class TestPlanDeterminism:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_plan_json_is_byte_identical(
        self, phased_trace, serial_plan, jobs
    ):
        profile = profile_parallel(
            phased_trace, parallel=ParallelConfig(jobs=jobs)
        )
        plan = MEGsim().plan_from_profile(profile)
        ours = json.dumps(plan.to_dict(), sort_keys=True).encode()
        reference = json.dumps(serial_plan.to_dict(), sort_keys=True).encode()
        assert ours == reference

    def test_plan_with_environment_jobs(self, phased_trace, serial_plan):
        profile = profile_parallel(
            phased_trace, parallel=ParallelConfig.from_cli(None)
        )
        plan = MEGsim().plan_from_profile(profile)
        assert json.dumps(plan.to_dict(), sort_keys=True) == json.dumps(
            serial_plan.to_dict(), sort_keys=True
        )


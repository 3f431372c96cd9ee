"""The determinism contract: pooled output == serial output, bytewise.

``scripts/ci_check.sh`` runs this module twice — once with
``MEGSIM_JOBS=1`` and once with ``MEGSIM_JOBS=auto`` — so the
``environment`` cases exercise a real pool whenever the host has the
CPUs for one; the ``2`` cases force a two-worker pool on any host.
Each fan-out that remains is checked against its own serial run:
``megsim bench`` specs and ``megsim all`` steps.  (``megsim serve`` job
waves have their own cross-path check in ``tests/test_service``.)
"""

from __future__ import annotations

import json

import pytest

from repro.bench import run_suite
from repro.cli import _campaign_step
from repro.parallel import ParallelConfig, parallel_map

#: Two smoke specs that share every benchmark's evaluation.
SUITE_SPECS = ["table3", "fig7"]

#: The model-output sections of a bench artifact (``counters`` measure
#: work and ``timing`` wall time, so neither is compared).
RESULT_SECTIONS = ("metrics", "accuracy", "info")

#: Campaign steps cheap at scale 0.02; ``fig6`` fails claims there, so
#: the claim failures are compared non-empty.
CAMPAIGN_STEPS = ["table1", "fig5", "fig6"]


def _parallel(jobs: str) -> ParallelConfig:
    # ParallelConfig.from_cli(None) resolves MEGSIM_JOBS, so the
    # "environment" case changes meaning across the CI variants.
    if jobs == "environment":
        return ParallelConfig.from_cli(None)
    return ParallelConfig(jobs=int(jobs))


def _suite_results(parallel: ParallelConfig) -> dict[str, str]:
    artifact = run_suite(
        "smoke", names=SUITE_SPECS, scale=0.02, parallel=parallel
    )
    return {
        name: json.dumps(
            {key: section["results"][key] for key in RESULT_SECTIONS},
            sort_keys=True,
        )
        for name, section in artifact["benchmarks"].items()
    }


def _campaign(parallel: ParallelConfig) -> list[tuple[str, list[str]]]:
    total = len(CAMPAIGN_STEPS)
    return parallel_map(
        _campaign_step,
        [(index, total, name, 0.02, None)
         for index, name in enumerate(CAMPAIGN_STEPS, 1)],
        parallel=parallel,
    )


@pytest.fixture(scope="module")
def serial_suite():
    return _suite_results(ParallelConfig(jobs=1))


@pytest.fixture(scope="module")
def serial_campaign():
    return _campaign(ParallelConfig(jobs=1))


class TestSuiteDeterminism:
    @pytest.mark.parametrize("jobs", ["environment", "2"])
    def test_suite_matches_serial(self, serial_suite, jobs):
        pooled = _suite_results(_parallel(jobs))
        assert list(pooled) == SUITE_SPECS
        assert pooled == serial_suite


class TestCampaignDeterminism:
    @pytest.mark.parametrize("jobs", ["environment", "2"])
    def test_steps_match_serial(self, serial_campaign, jobs):
        pooled = _campaign(_parallel(jobs))
        assert pooled == serial_campaign

    def test_claim_failures_are_compared(self, serial_campaign):
        failures = dict(zip(CAMPAIGN_STEPS, serial_campaign))["fig6"][1]
        assert failures

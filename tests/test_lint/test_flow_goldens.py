"""Golden effect summaries of the repo at HEAD, plus the MEG010
acceptance check: injecting an ambient read into a stage's cone is
caught and reported with its call-site chain.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.lint import load_config, run_lint
from repro.lint.flow import get_flow
from repro.lint.project import load_project
from repro.pipeline import STAGES
from tests.test_lint.conftest import REPO_ROOT

FLOW_RULES = ("MEG010", "MEG011", "MEG012", "MEG013")

#: The obs instrumentation every simulating stage runs under; declared
#: wholesale by `ambient-paths`, hence *absorbed*, never ambient.
OBS_ABSORBED = [
    "global-read:repro.obs.trace._active",
    "wall-clock:time.perf_counter",
    "wall-clock:time.time",
]

#: Pinned `FlowAnalysis.digest()` of every stage compute, keyed by stage
#: name and then by the `Stage.version` the digest was pinned at.  The
#: digests are line-number-free, so only a real change to a cone's
#: effects (or to the declarations that absorb them) moves one.  Such a
#: change is a cache-poisoning risk: artifacts stored under the old
#: fingerprint would be served for the new computation.  So a moved
#: digest fails until the stage's version is bumped and the new digest
#: is pinned under the new version; an entry is never edited in place.
GOLDEN_DIGESTS = {
    "trace": {1: {
        "function": "repro.pipeline.stages:_compute_trace",
        "declared": [],
        "direct": [],
        "ambient": [],
        # The capture read in `load_workload_file` is declared ambient:
        # sound because a replay ref's fingerprint IS the capture's
        # content hash, so the file's bytes are in the stage address.
        "absorbed": ["filesystem:.read_text"] + OBS_ABSORBED,
    }},
    "profile": {1: {
        "function": "repro.pipeline.stages:_compute_profile",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": OBS_ABSORBED,
    }},
    "plan": {2: {
        "function": "repro.pipeline.stages:_compute_plan",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": OBS_ABSORBED,
    }},
    "ground_truth": {1: {
        "function": "repro.pipeline.stages:_compute_ground_truth",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": OBS_ABSORBED,
    }},
    "representatives": {1: {
        "function": "repro.pipeline.stages:_compute_representatives",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": OBS_ABSORBED,
    }},
    "estimate": {1: {
        "function": "repro.pipeline.stages:_compute_estimate",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": [],
    }},
}


#: Qualified name of each stage's compute function.
QUALNAMES = {
    stage.name: f"repro.pipeline.stages.{stage.compute.__name__}"
    for stage in STAGES
}


def _unpinned_cones(flow) -> list[str]:
    """Each stage whose cone digest is not the one pinned at its version."""
    problems = []
    for stage in STAGES:
        pinned = GOLDEN_DIGESTS.get(stage.name, {})
        if stage.version not in pinned:
            problems.append(f"{stage.name} v{stage.version}: no pinned cone digest")
        elif flow.digest(QUALNAMES[stage.name]) != pinned[stage.version]:
            problems.append(
                f"{stage.name} v{stage.version}: the cone changed; bump "
                "Stage.version and pin the new digest under it"
            )
    return problems


@pytest.fixture(scope="module")
def head_flow():
    return get_flow(load_project(load_config(REPO_ROOT)))


class TestHeadGoldens:
    def test_every_stage_compute_digest_is_pinned(self, head_flow):
        assert set(GOLDEN_DIGESTS) == set(QUALNAMES)
        assert _unpinned_cones(head_flow) == []

    def test_stage_cones_are_ambient_clean(self, head_flow):
        # The cache-purity guarantee, stated directly: nothing a stage
        # fingerprint misses flows into any compute cone.
        for qualname in QUALNAMES.values():
            assert head_flow.ambient[qualname] == frozenset(), qualname

    def test_digest_is_deterministic_across_builds(self, head_flow):
        from repro.lint.flow import FlowAnalysis

        rebuilt = FlowAnalysis(head_flow.project)
        for qualname in QUALNAMES.values():
            assert json.dumps(rebuilt.summary(qualname), sort_keys=True) == (
                json.dumps(head_flow.summary(qualname), sort_keys=True)
            )

    def test_repo_flow_rules_are_clean_at_head(self):
        result = run_lint(load_config(REPO_ROOT), select=FLOW_RULES)
        assert result.findings == [], "\n".join(
            finding.render() for finding in result.findings
        )
        assert result.baselined == []

    def test_worker_ship_sites_are_all_known(self, head_flow):
        # Every callable crossing the pool boundary at HEAD resolves to
        # a top-level function — no lambdas, no unresolved targets.
        for site in head_flow.graph.ship_sites:
            assert site.problem is None, (site.relpath, site.line)
            assert site.target is not None, (site.relpath, site.line)
            assert head_flow.graph.functions[site.target].is_toplevel


def _inject_env_read(root) -> None:
    """Copy the repo under ``root`` with an `os.environ` read added to
    the functional simulator, three calls deep in `_compute_profile`."""
    shutil.copytree(REPO_ROOT / "src", root / "src")
    shutil.copy(REPO_ROOT / "pyproject.toml", root / "pyproject.toml")
    target = root / "src/repro/gpu/functional_sim.py"
    source = target.read_text()
    assert "import numpy as np" in source
    source = source.replace(
        "import numpy as np", "import os\nimport numpy as np", 1
    )
    marker = '"""Profile every frame of ``trace``."""'
    assert marker in source
    source = source.replace(
        marker,
        marker + '\n        os.environ.get("MEGSIM_INJECTED")',
        1,
    )
    target.write_text(source)


class TestInjectedAmbientIsCaught:
    """ISSUE acceptance: an `os.environ` read smuggled into the cone of
    `_compute_profile` (three calls deep, inside the functional
    simulator) must produce a MEG010 finding naming the chain."""

    def test_env_read_in_functional_sim_trips_meg010(self, tmp_path):
        _inject_env_read(tmp_path)
        result = run_lint(load_config(tmp_path), select=("MEG010",))
        findings = [f for f in result.findings if f.rule_id == "MEG010"]
        assert findings, "injected ambient env read was not detected"
        text = "\n".join(f.message for f in findings)
        assert "stage 'profile'" in text
        assert "ambient env (os.environ)" in text
        assert (
            "repro.pipeline.stages:_compute_profile -> "
            "repro.gpu.functional_sim:FunctionalSimulator.profile"
        ) in text


class TestChangedConeNeedsVersionBump:
    """A cone whose effects change while its `Stage.version` stays put
    would serve stale stored artifacts; the version pin catches it."""

    def test_changed_profile_cone_without_bump_fails(self, tmp_path):
        _inject_env_read(tmp_path)
        flow = get_flow(load_project(load_config(tmp_path)))
        assert _unpinned_cones(flow) == [
            "profile v1: the cone changed; bump Stage.version and pin "
            "the new digest under it"
        ]

"""Interprocedural effect analysis over the linted project.

``repro.lint.flow`` extends the per-file AST rules (MEG001–MEG009) to
whole-program dataflow: it builds a package-wide call graph from the
ASTs the lint :class:`~repro.lint.project.Project` already holds, infers
per-function *effect summaries* (ambient reads of the environment,
wall-clock, RNG entropy, the filesystem, process identity, and mutable
module globals), and propagates them transitively to a fixed point.

Three consumer rules sit on top of the summaries:

* **MEG010** (cache purity) — every pipeline ``Stage.compute`` cone must
  be free of ambient inputs that the stage fingerprint does not capture;
* **MEG011** (declared ambient) — ``# megsim: ambient(...)`` pragmas and
  ``[tool.megsim-lint.ambient]`` allowlist entries are verified both
  ways, so a stale declaration is a finding too;
* **MEG012** (worker boundary) — callables shipped through
  ``repro.parallel`` must be top-level, picklable, and their cones must
  neither touch ambient state nor mutate shared module globals.

**MEG013** (migration lint) rides along in :mod:`repro.lint.flow.migrations`:
it checks the service's migration chain is contiguous, uses only
allow-listed DDL, and executes cleanly in an in-memory SQLite database.

The analysis is deliberately conservative on dynamic dispatch: method
calls whose receiver type cannot be resolved fan out to every project
method of that name, and a function passed as an argument is treated as
called.  Summaries are deterministic and JSON-stable (see
:meth:`FlowAnalysis.summary`), which is what the golden tests and the
``megsim lint --effects`` explainability surface rely on.
"""

from repro.lint.flow.analysis import FlowAnalysis, get_flow
from repro.lint.flow.effects import EFFECT_KINDS, Effect, WALL_CLOCK
from repro.lint.flow.names import ModuleNames, module_name

__all__ = [
    "EFFECT_KINDS",
    "Effect",
    "FlowAnalysis",
    "ModuleNames",
    "WALL_CLOCK",
    "get_flow",
    "module_name",
]

"""Lint configuration: defaults plus the ``[tool.megsim-lint]`` table.

The defaults encode this repository's layout and invariants, so
``python -m repro.lint`` works on a bare checkout; ``pyproject.toml``
can override any knob without code changes.  All paths are stored
relative to the project root with POSIX separators.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError

#: Default layer assignment of each top-level component of ``repro``.
#: A component may import components at the same or a lower level;
#: importing a *higher* level is a back-edge (MEG003).  ``errors`` and
#: ``version`` sit at the bottom and ``obs`` just above them, which is
#: what makes both importable from everywhere else.  ``store`` sits
#: below ``gpu``/``core``/``analysis`` on purpose: the artifact store
#: must stay ignorant of simulator internals (it only handles the
#: encode/decode hooks callers pass in), and this level makes any
#: ``repro.store`` -> ``repro.gpu``/``repro.analysis`` import a lint
#: failure.
DEFAULT_LAYERS: dict[str, int] = {
    "errors": 0,
    "version": 0,
    "obs": 1,
    "scene": 2,
    "store": 2,
    "workloads": 3,
    "gpu": 3,
    "core": 4,
    "pipeline": 4,
    "parallel": 5,
    "analysis": 5,
    "bench": 6,
    "lint": 6,
    "cli": 6,
    "__main__": 7,
    "__init__": 7,
}


@dataclass
class LintConfig:
    """Resolved lint configuration for one project root.

    Attributes:
        root: absolute project root; all other paths are relative to it.
        paths: directories/files whose Python sources are linted.
        package_root: directory that maps to the ``repro`` package (used
            by the layering rule to name components).
        layers: component name -> layer level (see :data:`DEFAULT_LAYERS`).
        determinism_paths: subtrees where unseeded randomness is banned.
        wallclock_allowed: subtrees exempt from the wall-clock ban.
        docs_paths: markdown locations checked by the doc rules.
        api_doc: the API reference every export/CLI surface must mention.
        cli_module: the argparse CLI source checked by MEG008.
        public_modules: dotted name -> ``__init__`` path whose ``__all__``
            must be covered by ``api_doc``.
        raise_allowed: builtin exception names that MEG005 tolerates.
        baseline: suppression file path (created on ``--write-baseline``).
        disable: rule ids switched off entirely.
        ambient: the declared-ambient allowlist for the flow rules —
            ``module:qualname`` -> effect kinds the function is allowed
            to touch (equivalent to a ``# megsim: ambient(...)`` pragma;
            MEG011 verifies these both ways).
        ambient_paths: subtrees blanket-declared ambient for *all*
            effect kinds (the obs layer: every sink touches collector
            state and the clock by design).
        store_paths: subtrees whose filesystem access is sanctioned
            (the content-addressed store — "filesystem access outside
            ``repro.store``" is the MEG010 wording).
        stages_module: the pipeline stage table MEG010 walks.
        db_module: the migration chain MEG013 checks.
        worker_entrypoints: canonical dotted names of functions that
            ship their callable argument to worker processes (MEG012).
    """

    root: Path
    paths: tuple[str, ...] = ("src/repro",)
    package_root: str = "src/repro"
    layers: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LAYERS))
    determinism_paths: tuple[str, ...] = (
        "src/repro/core",
        "src/repro/gpu",
        "src/repro/scene",
        "src/repro/workloads",
    )
    wallclock_allowed: tuple[str, ...] = ("src/repro/obs",)
    docs_paths: tuple[str, ...] = ("docs", "README.md")
    api_doc: str = "docs/api.md"
    cli_module: str = "src/repro/cli.py"
    public_modules: dict[str, str] = field(
        default_factory=lambda: {
            "repro": "src/repro/__init__.py",
            "repro.obs": "src/repro/obs/__init__.py",
            "repro.store": "src/repro/store/__init__.py",
            "repro.pipeline": "src/repro/pipeline/__init__.py",
            "repro.parallel": "src/repro/parallel/__init__.py",
            "repro.bench": "src/repro/bench/__init__.py",
            "repro.lint": "src/repro/lint/__init__.py",
        }
    )
    raise_allowed: tuple[str, ...] = ("NotImplementedError",)
    baseline: str = "lint-baseline.txt"
    disable: tuple[str, ...] = ()
    ambient: dict[str, tuple[str, ...]] = field(default_factory=dict)
    ambient_paths: tuple[str, ...] = ("src/repro/obs",)
    store_paths: tuple[str, ...] = ("src/repro/store",)
    stages_module: str = "src/repro/pipeline/stages.py"
    db_module: str = "src/repro/service/db.py"
    worker_entrypoints: tuple[str, ...] = (
        "repro.parallel.pool.parallel_map",
    )

    @property
    def baseline_path(self) -> Path:
        return self.root / self.baseline


def _as_str_tuple(value, key: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigError(f"[tool.megsim-lint] {key} must be a list of strings")
    return tuple(value)


def load_config(root: Path | str) -> LintConfig:
    """Build a :class:`LintConfig` for ``root``.

    Reads ``<root>/pyproject.toml`` when present and applies the
    ``[tool.megsim-lint]`` table over the defaults.  Unknown keys raise
    :class:`~repro.errors.ConfigError` — a typoed knob should fail the
    lint run, not silently lint the wrong thing.
    """
    root = Path(root).resolve()
    config = LintConfig(root=root)
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    with pyproject.open("rb") as stream:
        table = tomllib.load(stream)
    section = table.get("tool", {}).get("megsim-lint", {})
    if not isinstance(section, dict):
        raise ConfigError("[tool.megsim-lint] must be a TOML table")

    simple_lists = {
        "paths": "paths",
        "determinism-paths": "determinism_paths",
        "wallclock-allowed": "wallclock_allowed",
        "docs": "docs_paths",
        "raise-allowed": "raise_allowed",
        "disable": "disable",
        "ambient-paths": "ambient_paths",
        "store-paths": "store_paths",
        "worker-entrypoints": "worker_entrypoints",
    }
    simple_strings = {
        "package-root": "package_root",
        "api-doc": "api_doc",
        "cli-module": "cli_module",
        "baseline": "baseline",
        "stages-module": "stages_module",
        "db-module": "db_module",
    }
    for key, value in section.items():
        if key in simple_lists:
            setattr(config, simple_lists[key], _as_str_tuple(value, key))
        elif key in simple_strings:
            if not isinstance(value, str):
                raise ConfigError(f"[tool.megsim-lint] {key} must be a string")
            setattr(config, simple_strings[key], value)
        elif key == "layers":
            if not isinstance(value, dict) or not all(
                isinstance(level, int) for level in value.values()
            ):
                raise ConfigError(
                    "[tool.megsim-lint] layers must map component -> integer"
                )
            config.layers = dict(value)
        elif key == "ambient":
            if not isinstance(value, dict) or not all(
                isinstance(kinds, list)
                and all(isinstance(kind, str) for kind in kinds)
                for kinds in value.values()
            ):
                raise ConfigError(
                    "[tool.megsim-lint] ambient must map "
                    "module:function -> list of effect kinds"
                )
            config.ambient = {
                name: tuple(kinds) for name, kinds in value.items()
            }
        elif key == "public-modules":
            if not isinstance(value, dict) or not all(
                isinstance(path, str) for path in value.values()
            ):
                raise ConfigError(
                    "[tool.megsim-lint] public-modules must map "
                    "module -> __init__ path"
                )
            config.public_modules = dict(value)
        else:
            raise ConfigError(f"[tool.megsim-lint] unknown key: {key!r}")
    return config

"""MEG013: the migration chain is contiguous, allow-listed and executable.

The service's schema lives as SQL string literals in ``MIGRATIONS``
(``src/repro/service/db.py``).  This rule lifts those literals out of
the AST (no import of the service layer), then verifies three things:

1. **Contiguity / append-only** — versions are exactly ``1..N`` with
   ``N == SCHEMA_VERSION``; a gap, a version ``<= 0``, or a
   ``SCHEMA_VERSION`` that does not match the chain head is a finding.
2. **Allow-listed DDL** — every statement starts with ``CREATE TABLE``,
   ``ALTER TABLE ... ADD [COLUMN]``, ``CREATE [UNIQUE] INDEX``,
   ``DROP TABLE`` or ``DROP INDEX`` (the chain must stay simple enough
   to audit).  ``IF NOT EXISTS`` is rejected too: it would turn a
   collision into a silent no-op.
3. **Executes cleanly** — the chain is applied in order to an in-memory
   SQLite database; the first statement that fails is the finding, so
   SQLite itself reports a duplicate table or column, an ``ALTER`` of a
   missing table, or an index on an unknown column.

Because fresh databases are created by replaying the same chain, a
chain that executes cleanly from empty is the "fresh schema ==
migrated schema" guarantee.
"""

from __future__ import annotations

import ast
import re
import sqlite3
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import Project

#: The DDL forms a migration may use; ``IF NOT EXISTS`` is excluded.
_ALLOWED_DDL = re.compile(
    r"\s*(?:CREATE\s+TABLE|CREATE\s+(?:UNIQUE\s+)?INDEX"
    r"|ALTER\s+TABLE\s+\w+\s+ADD|DROP\s+(?:TABLE|INDEX))"
    r"(?!\s+IF\s+NOT\s+EXISTS\b)\s",
    re.IGNORECASE,
)


def _prefix(statement: str) -> str:
    """The statement on one line, cut to 60 characters."""
    text = " ".join(statement.split())
    return f"{text[:60]}{'...' if len(text) > 60 else ''}"


def extract_migrations(
    tree: ast.Module,
) -> tuple[dict[int, list[str]], int | None]:
    """``MIGRATIONS`` literal and ``SCHEMA_VERSION`` from the module AST.

    Non-literal keys/statements are skipped (the SQLite run still sees
    whatever *is* literal); a missing table returns ``{}``.
    """
    migrations: dict[int, list[str]] = {}
    schema_version: int | None = None
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "SCHEMA_VERSION":
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, int
                ):
                    schema_version = value.value
            elif target.id == "MIGRATIONS":
                value = node.value
                if not isinstance(value, ast.Dict):
                    continue
                for key, statements in zip(value.keys, value.values):
                    if not (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, int)
                    ):
                        continue
                    if not isinstance(statements, (ast.Tuple, ast.List)):
                        continue
                    migrations[key.value] = [
                        element.value
                        for element in statements.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ]
    return migrations, schema_version


class MigrationChainRule:
    """MEG013: see the module docstring."""

    rule_id = "MEG013"
    name = "migration-chain"
    summary = (
        "the service migration chain must be contiguous, append-only, "
        "allow-listed DDL that executes cleanly in SQLite"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        source = project.file_at(project.config.db_module)
        if source is None or source.tree is None:
            return
        migrations, schema_version = extract_migrations(source.tree)
        if not migrations:
            yield self._finding(
                source.relpath, 0, "no literal MIGRATIONS table found"
            )
            return
        yield from self._contiguity(
            source.relpath, migrations, schema_version
        )
        problems = list(self._allow_list(source.relpath, migrations))
        yield from problems
        if not problems:
            yield from self._execute(source.relpath, migrations)

    def _finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            path=path, line=line, rule_id=self.rule_id, message=message
        )

    def _contiguity(
        self,
        path: str,
        migrations: dict[int, list[str]],
        schema_version: int | None,
    ) -> Iterator[Finding]:
        versions = sorted(migrations)
        expected = list(range(1, len(versions) + 1))
        if versions != expected:
            yield self._finding(
                path,
                0,
                "migration versions must be contiguous from 1; found "
                f"{versions}",
            )
        if schema_version is None:
            yield self._finding(
                path, 0, "SCHEMA_VERSION is not a literal integer"
            )
        elif versions and schema_version != versions[-1]:
            yield self._finding(
                path,
                0,
                f"SCHEMA_VERSION is {schema_version} but the migration "
                f"chain ends at {versions[-1]} (append a migration, "
                "never edit a shipped one)",
            )

    def _allow_list(
        self, path: str, migrations: dict[int, list[str]]
    ) -> Iterator[Finding]:
        for version in sorted(migrations):
            for statement in migrations[version]:
                if not _ALLOWED_DDL.match(statement):
                    yield self._finding(
                        path, 0,
                        f"v{version}: unrecognized DDL statement "
                        f"'{_prefix(statement)}' — keep the chain to "
                        "CREATE TABLE / ALTER TABLE ADD COLUMN / "
                        "CREATE INDEX / DROP, without IF NOT EXISTS",
                    )

    def _execute(
        self, path: str, migrations: dict[int, list[str]]
    ) -> Iterator[Finding]:
        connection = sqlite3.connect(":memory:")
        try:
            for version in sorted(migrations):
                for statement in migrations[version]:
                    try:
                        connection.execute(statement)
                    except sqlite3.Error as exc:
                        yield self._finding(
                            path, 0,
                            f"v{version}: '{_prefix(statement)}' fails "
                            f"to execute ({exc})",
                        )
                        return
        finally:
            connection.close()

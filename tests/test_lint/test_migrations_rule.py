"""MEG013: migration-chain contiguity, DDL allow-list, SQLite execution."""

from __future__ import annotations

from tests.test_lint.conftest import messages, rule_ids

DB = "src/repro/service/db.py"


def db_module(migrations: str, schema_version: str = "SCHEMA_VERSION = 2"):
    return {DB: f"{schema_version}\n\nMIGRATIONS = {migrations}\n"}


GOOD_CHAIN = """{
    1: (
        "CREATE TABLE jobs (id INTEGER PRIMARY KEY, payload TEXT)",
        "CREATE TABLE runs (id INTEGER PRIMARY KEY, job_id INTEGER)",
    ),
    2: (
        "ALTER TABLE jobs ADD COLUMN state TEXT",
        "CREATE INDEX idx_jobs_state ON jobs (state)",
    ),
}"""


class TestMigrationChain:
    def test_sound_chain_passes(self, lint_fixture):
        result = lint_fixture(db_module(GOOD_CHAIN), select=("MEG013",))
        assert result.findings == []

    def test_missing_migrations_table_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            {DB: "SCHEMA_VERSION = 1\n"}, select=("MEG013",)
        )
        assert rule_ids(result) == ["MEG013"]
        assert "no literal MIGRATIONS table" in messages(result)

    def test_version_gap_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            db_module(
                """{
                    1: ("CREATE TABLE jobs (id INTEGER PRIMARY KEY)",),
                    3: ("ALTER TABLE jobs ADD COLUMN state TEXT",),
                }""",
                schema_version="SCHEMA_VERSION = 3",
            ),
            select=("MEG013",),
        )
        assert "MEG013" in rule_ids(result)
        assert "contiguous from 1" in messages(result)

    def test_schema_version_mismatch_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            db_module(GOOD_CHAIN, schema_version="SCHEMA_VERSION = 9"),
            select=("MEG013",),
        )
        assert rule_ids(result) == ["MEG013"]
        text = messages(result)
        assert "SCHEMA_VERSION is 9" in text
        assert "chain ends at 2" in text

    def test_alter_on_missing_table_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            db_module(
                """{
                    1: ("CREATE TABLE jobs (id INTEGER PRIMARY KEY)",),
                    2: ("ALTER TABLE ghosts ADD COLUMN state TEXT",),
                }""",
            ),
            select=("MEG013",),
        )
        assert rule_ids(result) == ["MEG013"]
        assert "ALTER TABLE ghosts" in messages(result)

    def test_duplicate_column_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            db_module(
                """{
                    1: ("CREATE TABLE jobs (id INTEGER PRIMARY KEY, state TEXT)",),
                    2: ("ALTER TABLE jobs ADD COLUMN state TEXT",),
                }""",
            ),
            select=("MEG013",),
        )
        assert rule_ids(result) == ["MEG013"]
        assert "duplicate column name: state" in messages(result)

    def test_duplicate_create_table_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            db_module(
                """{
                    1: ("CREATE TABLE jobs (id INTEGER PRIMARY KEY)",),
                    2: ("CREATE TABLE jobs (id INTEGER PRIMARY KEY)",),
                }""",
            ),
            select=("MEG013",),
        )
        assert rule_ids(result) == ["MEG013"]
        assert "table jobs already exists" in messages(result)

    def test_index_on_unknown_column_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            db_module(
                """{
                    1: ("CREATE TABLE jobs (id INTEGER PRIMARY KEY)",),
                    2: ("CREATE INDEX idx ON jobs (ghost_column)",),
                }""",
            ),
            select=("MEG013",),
        )
        assert "MEG013" in rule_ids(result)
        assert "no such column: ghost_column" in messages(result)

    def test_unrecognized_ddl_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            db_module(
                """{
                    1: ("CREATE TABLE jobs (id INTEGER PRIMARY KEY)",),
                    2: ("CREATE TRIGGER t AFTER INSERT ON jobs BEGIN SELECT 1; END",),
                }""",
            ),
            select=("MEG013",),
        )
        assert rule_ids(result) == ["MEG013"]
        assert "unrecognized DDL statement" in messages(result)

    def test_create_table_if_not_exists_is_a_finding(self, lint_fixture):
        # SQLite would silently skip the collision, so the allow-list
        # rejects IF NOT EXISTS outright.
        result = lint_fixture(
            db_module(
                """{
                    1: ("CREATE TABLE jobs (id INTEGER PRIMARY KEY)",),
                    2: ("CREATE TABLE IF NOT EXISTS jobs (id INTEGER PRIMARY KEY)",),
                }""",
            ),
            select=("MEG013",),
        )
        assert rule_ids(result) == ["MEG013"]
        text = messages(result)
        assert "unrecognized DDL statement" in text
        assert "IF NOT EXISTS jobs" in text

    def test_statement_sqlite_rejects_is_a_finding(self, lint_fixture):
        # Passes the leading-keyword allow-list but fails to execute.
        result = lint_fixture(
            db_module(
                """{
                    1: ("CREATE TABLE jobs (id INTEGER PRIMARY KEY)",),
                    2: ("ALTER TABLE jobs ADD COLUMN state NOT_A_TYPE(((",),
                }""",
            ),
            select=("MEG013",),
        )
        assert rule_ids(result) == ["MEG013"]
        assert "fails to execute" in messages(result)

    def test_drop_statements_replay_symbolically(self, lint_fixture):
        result = lint_fixture(
            db_module(
                """{
                    1: (
                        "CREATE TABLE jobs (id INTEGER PRIMARY KEY, state TEXT)",
                        "CREATE INDEX idx_state ON jobs (state)",
                        "CREATE TABLE scratch (id INTEGER PRIMARY KEY)",
                    ),
                    2: ("DROP TABLE scratch",),
                }""",
            ),
            select=("MEG013",),
        )
        assert result.findings == []

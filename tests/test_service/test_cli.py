"""The service CLI surface: serve / submit / status / runs / report / --db."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service import SCHEMA_VERSION, ResultsDB
from repro.store import STORE_ENV_VAR, set_store


@pytest.fixture
def cli_env(tmp_path, monkeypatch):
    """Private store and database for one CLI invocation chain."""
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
    monkeypatch.setenv("MEGSIM_DB", str(tmp_path / "svc.sqlite3"))
    set_store(None)  # rebuild lazily from the patched environment
    yield tmp_path
    set_store(None)


def test_submit_serve_status_runs_round_trip(cli_env, capsys):
    assert main(["submit", "bbr1", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "submitted #1: bbr1" in out

    assert main(["serve", "--once"]) == 0
    out = capsys.readouterr().out
    assert "completed=1" in out
    assert "done=6" in out

    assert main(["status"]) == 0
    out = capsys.readouterr().out
    assert f"schema v{SCHEMA_VERSION}" in out
    assert "results:  1" in out

    assert main(["runs", "--benchmark", "bbr1"]) == 0
    out = capsys.readouterr().out
    assert "bbr1" in out
    assert "completed" in out


def test_report_round_trip(cli_env, capsys):
    """submit → serve → report: the page renders the drained archive,
    byte-identically across renders, and --json exposes the document."""
    assert main(["submit", "bbr1", "--scale", "0.02"]) == 0
    assert main(["serve", "--once"]) == 0
    capsys.readouterr()

    first = cli_env / "report1.html"
    second = cli_env / "report2.html"
    assert main(["report", "--out", str(first)]) == 0
    assert "wrote report to" in capsys.readouterr().out
    assert main(["report", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    page = first.read_text(encoding="utf-8")
    assert "bbr1" in page
    assert "Request trace" in page

    assert main(["report", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == "megsim-report"
    assert document["service"]["counts"]["requests"]["completed"] == 1
    assert document["service"]["trace"]["request_id"] == 1


def test_report_without_database_renders_placeholders(cli_env, capsys):
    target = cli_env / "empty.html"
    assert main(["report", "--out", str(target)]) == 0
    capsys.readouterr()
    page = target.read_text(encoding="utf-8")
    assert "no results database" in page


def test_serve_report_hook_writes_the_page(cli_env, capsys):
    assert main(["submit", "bbr1", "--scale", "0.02"]) == 0
    target = cli_env / "dash.html"
    assert main(["serve", "--once", "--report", str(target)]) == 0
    out = capsys.readouterr().out
    assert f"report: {target}" in out
    assert target.is_file()
    assert "Experiment service" in target.read_text(encoding="utf-8")


def test_status_json_document(cli_env, capsys):
    assert main(["status", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["requests"]["pending"] == 0
    assert document["db_path"].endswith("svc.sqlite3")


def test_runs_json_document(cli_env, capsys):
    main(["submit", "bbr1", "--scale", "0.02"])
    main(["serve", "--once"])
    capsys.readouterr()

    assert main(["runs", "--json", "--limit", "5"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["benchmark"] == "bbr1"
    assert rows[0]["status"] == "completed"
    assert rows[0]["metrics"]["relative_errors"]["cycles"] >= 0.0


def test_submit_suite_queues_every_benchmark(cli_env, capsys):
    from repro.workloads.benchmarks import benchmark_aliases

    assert main(["submit", "--suite", "smoke", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert f"{len(benchmark_aliases())} request(s) queued" in out
    with ResultsDB() as db:  # resolves via the patched MEGSIM_DB
        counts = db.counts()
    assert counts["requests"]["pending"] == len(benchmark_aliases())


def test_submit_suite_default_scale(cli_env, capsys):
    from repro.bench import SUITE_SCALES

    assert main(["submit", "bbr1", "--suite", "smoke"]) == 0
    out = capsys.readouterr().out
    assert f"scale={SUITE_SCALES['smoke']}" in out


def test_db_flag_overrides_environment(cli_env, capsys, tmp_path):
    other = tmp_path / "other.sqlite3"
    assert main(["status", "--db", str(other)]) == 0
    out = capsys.readouterr().out
    assert str(other) in out
    assert other.exists()


def test_runs_empty_database(cli_env, capsys):
    assert main(["runs"]) == 0
    assert "no runs recorded" in capsys.readouterr().out


def test_service_manifest_records_db_identity(cli_env, capsys, tmp_path):
    manifest_path = tmp_path / "manifest.json"
    assert main(["status", "--manifest", str(manifest_path)]) == 0
    capsys.readouterr()
    document = json.loads(manifest_path.read_text())
    assert document["service"]["db"].endswith("svc.sqlite3")
    assert document["service"]["schema_version"] == SCHEMA_VERSION


def test_manifest_fingerprint_ignores_service_facts():
    """Like ``jobs``: where results are archived is an execution fact,
    not part of the run's identity."""
    from repro.obs import RunManifest

    plain = RunManifest.begin(command=("status",))
    recorded = RunManifest.begin(command=("status",))
    recorded.record_service("/elsewhere/other.sqlite3", SCHEMA_VERSION)
    assert plain.fingerprint() == recorded.fingerprint()
    assert recorded.to_dict()["service"]["db"] == "/elsewhere/other.sqlite3"

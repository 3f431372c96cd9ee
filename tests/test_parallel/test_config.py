"""Tests for jobs resolution and ParallelConfig validation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.parallel import (
    JOBS_ENV_VAR,
    ParallelConfig,
    available_cpus,
    resolve_jobs,
)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_int(self):
        assert resolve_jobs(3) == 3

    def test_argparse_string(self):
        assert resolve_jobs("4") == 4

    def test_auto_uses_available_cpus(self):
        assert resolve_jobs("auto") == available_cpus()
        assert resolve_jobs("AUTO") == available_cpus()

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs(None) == 5

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "auto")
        assert resolve_jobs(None) == available_cpus()

    def test_blank_env_means_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "  ")
        assert resolve_jobs(None) == 1

    def test_explicit_value_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(2) == 2

    @pytest.mark.parametrize("bad", ["zero?", "1.5", 0, -2, "-1", True, 2.0])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ConfigError):
            resolve_jobs(bad)

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1


class TestParallelConfig:
    def test_defaults_are_serial(self):
        config = ParallelConfig()
        assert config.jobs == 1

    @pytest.mark.parametrize("jobs", [0, -1, "2", True])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(ConfigError):
            ParallelConfig(jobs=jobs)

    def test_from_cli_resolves(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert ParallelConfig.from_cli(None).jobs == 1
        assert ParallelConfig.from_cli("2").jobs == 2
        assert ParallelConfig.from_cli("auto").jobs == available_cpus()


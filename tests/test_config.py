"""The runtime switches: parsing in repro.config, and its sole ownership of the env."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.config import (
    CONTRACTS_ENV_VAR,
    RunConfig,
)
from repro.errors import ConfigError
from repro import contracts

SRC = Path(repro.__file__).resolve().parent


def _reads_environment(tree: ast.AST) -> list[int]:
    """Lines that touch ``os.environ`` / ``os.getenv`` or import them."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                lines.append(node.lineno)
    return lines


class TestEnvironmentOwnership:
    def test_only_config_reads_the_environment(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path == SRC / "config.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [f"{path.relative_to(SRC)}:{line}" for line in _reads_environment(tree)]
        assert offenders == []


class TestRunConfig:
    def test_defaults(self, monkeypatch):
        for name in (
            "REPRO_BACKEND",
            "REPRO_WORKERS",
            "REPRO_SYMMETRY",
            CONTRACTS_ENV_VAR,
            "REPRO_DATA_DIR",
        ):
            monkeypatch.delenv(name, raising=False)
        assert RunConfig.from_env() == RunConfig()

    def test_reads_every_switch(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", " process ")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_SYMMETRY", "reduce")
        monkeypatch.setenv(CONTRACTS_ENV_VAR, "on")
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        assert RunConfig.from_env() == RunConfig(
            backend="process",
            workers=3,
            symmetry="reduce",
            contracts=True,
            data_dir=tmp_path,
        )


def _contracts_on() -> bool:
    return contracts.enabled()


BOOL_SWITCHES = [
    pytest.param(CONTRACTS_ENV_VAR, _contracts_on, id="contracts"),
]


class TestBoolSwitches:
    """The boolean switch has one strict parser."""

    @pytest.mark.parametrize("name, is_on", BOOL_SWITCHES)
    @pytest.mark.parametrize("raw", ["1", "true", "ON", "yes", " True "])
    def test_truthy(self, monkeypatch, name, is_on, raw):
        monkeypatch.setenv(name, raw)
        assert is_on()

    @pytest.mark.parametrize("name, is_on", BOOL_SWITCHES)
    @pytest.mark.parametrize("raw", ["", " ", "0", "false", "OFF", "no"])
    def test_falsy(self, monkeypatch, name, is_on, raw):
        monkeypatch.setenv(name, raw)
        assert not is_on()

    @pytest.mark.parametrize("name, is_on", BOOL_SWITCHES)
    @pytest.mark.parametrize("raw", ["2", "maybe", "enabled"])
    def test_other_values_rejected(self, monkeypatch, name, is_on, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigError, match=name):
            is_on()

"""``repro.settings``: the one module that reads ``REPRO_*`` knobs."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro import settings
from repro.serve.supervisor import PoolConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _environ_uses(tree: ast.AST):
    """Yield ``(node, parent, parents)`` for every ``os.environ`` / ``os.getenv`` node."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield node, parents.get(node), parents


def _is_env_write(node: ast.AST, parent: ast.AST, parents) -> bool:
    """``os.environ[k] = v``, ``os.environ.pop(k, ...)``, or the saved-value
    ``os.environ.get(k)`` inside a dict comprehension (save for restore)."""
    if isinstance(parent, ast.Subscript) and isinstance(parent.ctx, ast.Store):
        return True
    if isinstance(parent, ast.Attribute) and isinstance(parents.get(parent), ast.Call):
        if parent.attr == "pop":
            return True
        if parent.attr == "get":
            return isinstance(parents.get(parents[parent]), ast.DictComp)
    return False


def test_only_settings_reads_the_environment():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "settings.py":
            continue
        for node, parent, parents in _environ_uses(ast.parse(path.read_text())):
            # The chaos campaign may set, pop and restore the environment its
            # pool workers inherit; nothing else may touch os.environ.
            if relative == "serve/chaos.py" and _is_env_write(node, parent, parents):
                continue
            offenders.append(f"{relative}:{node.lineno}")
    assert not offenders, f"os.environ read outside repro.settings: {offenders}"


def test_knob_set_after_import_takes_effect(monkeypatch):
    monkeypatch.delenv("REPRO_SERVE_QUEUE_MAX", raising=False)
    assert settings.get("REPRO_SERVE_QUEUE_MAX") == 128
    monkeypatch.setenv("REPRO_SERVE_QUEUE_MAX", "7")
    assert settings.get("REPRO_SERVE_QUEUE_MAX") == 7
    assert settings.snapshot()["REPRO_SERVE_QUEUE_MAX"] == 7
    monkeypatch.setenv("REPRO_SERVE_QUEUE_MAX", "")
    assert settings.get("REPRO_SERVE_QUEUE_MAX") == 128


@pytest.mark.parametrize(
    ("name", "raw"),
    [
        ("REPRO_SERVE_QUEUE_MAX", "1k"),
        ("REPRO_EVAL_MIN_R_DELTA", "2%"),
        ("REPRO_JOBS", "two"),
        ("REPRO_OPT_STRATEGY", "sideways"),
        ("REPRO_CACHE", "off"),
    ],
)
def test_malformed_value_raises_naming_knob_and_value(monkeypatch, name, raw):
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError, match=f"{name}={raw!r}"):
        settings.get(name)
    with pytest.raises(ValueError, match=name):
        settings.snapshot()


def test_configure_applies_env_and_overrides_win(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_BACKOFF_S", "0.5")
    monkeypatch.setenv("REPRO_SERVE_RETRIES", "5")
    config = settings.configure(PoolConfig, workers=3, retry_limit=1, hang_timeout_s=None)
    assert config.workers == 3
    assert config.backoff_base_s == 0.5  # from the environment
    assert config.retry_limit == 1  # a non-None override wins
    assert config.hang_timeout_s == PoolConfig().hang_timeout_s  # None: env/default
    monkeypatch.delenv("REPRO_SERVE_BACKOFF_S")
    monkeypatch.delenv("REPRO_SERVE_RETRIES")
    assert settings.configure(PoolConfig) == PoolConfig()


def test_cli_rejects_malformed_knob_at_startup(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_JOBS", "two")
    assert main(["dataset", "--designs", "1"]) != 0
    assert "REPRO_JOBS" in capsys.readouterr().err

"""The unified ``python -m repro`` CLI: help smoke + end-to-end workflow."""

from __future__ import annotations

import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from tests.conftest import BAD_RTL

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

SUBCOMMANDS = (
    "train",
    "predict",
    "whatif",
    "serve",
    "retrain",
    "promote",
    "rollback",
    "optimize",
    "dataset",
    "fuzz",
)


def _cli_env(tmp_path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_MODEL_DIR"] = str(tmp_path / "models")
    return env


# ---------------------------------------------------------------------------
# Help / parsing smoke
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_subcommand_help_smoke(subcommand, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([subcommand, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out  # help text actually printed


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for subcommand in SUBCOMMANDS:
        assert subcommand in out


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 2
    assert "COMMAND" in capsys.readouterr().out


def test_parser_covers_documented_flags():
    parser = build_parser()
    args = parser.parse_args(["serve", "--model", "m@2", "--port", "0", "--max-batch", "4"])
    assert args.model == "m@2" and args.port == 0 and args.max_batch == 4


def test_fuzz_passthrough_validates_arguments(capsys):
    # The fuzz runner owns its CLI; an unknown oracle errors without running.
    assert main(["fuzz", "--checks", "not-an-oracle"]) == 2
    assert "unknown checks" in capsys.readouterr().out


@pytest.mark.parametrize("subcommand", ["train", "retrain"])
@pytest.mark.parametrize("value", ["0", "-5", "x"])
def test_nonpositive_estimators_rejected_at_parse_time(subcommand, value, capsys):
    """``--estimators 0`` must be an argparse error, never a silent default."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([subcommand, "--estimators", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "positive integer" in err or "not an integer" in err


def test_estimators_boundary_accepted():
    args = build_parser().parse_args(["train", "--estimators", "1"])
    assert args.estimators == 1
    args = build_parser().parse_args(["train"])
    assert args.estimators is None  # preset, resolved by `is None` not truthiness


def test_retrain_parser_knobs():
    args = build_parser().parse_args(
        ["retrain", "--fast", "--fuzz-seeds", "3,5,8", "--extra-designs", "2", "--holdout", "2"]
    )
    assert args.fuzz_seeds == [3, 5, 8]
    assert args.extra_designs == 2 and args.holdout == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args(["retrain", "--fuzz-seeds", "3,oops"])


def test_promote_and_rollback_error_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_MODEL_DIR", str(tmp_path / "models"))
    assert main(["promote", "--model", "ghost", "deadbeef"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["rollback", "--model", "ghost"]) == 1
    assert "no promotion" in capsys.readouterr().err


def test_unknown_model_fails_cleanly(tmp_path, capsys, monkeypatch, design_file):
    monkeypatch.setenv("REPRO_MODEL_DIR", str(tmp_path / "models"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for command in ("predict", "whatif"):
        assert main([command, "--model", "ghost", str(design_file)]) == 1
        err = capsys.readouterr().err
        assert "error: unknown model 'ghost'" in err and "Traceback" not in err


@pytest.mark.parametrize("source, message", BAD_RTL)
def test_bad_rtl_fails_cleanly(trained_cli_registry, tmp_path, capsys, monkeypatch, source, message):
    """RTL that does not parse or has no register: one error line, exit 1."""
    _, env, _ = trained_cli_registry
    monkeypatch.setenv("REPRO_MODEL_DIR", env["REPRO_MODEL_DIR"])
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    design = tmp_path / "bad.v"
    design.write_text(source)
    for command in ("predict", "whatif"):
        assert main([command, "--model", "cli-test", str(design)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert err.count("\n") == 1


def test_retrain_exit_code_reflects_verdict(tmp_path, capsys, monkeypatch):
    """Promotion exits 0; an eval-gate rejection exits 3 (not argparse's 2)."""
    import repro.lifecycle.retrain as retrain_mod
    from repro.cli import EXIT_EVAL_REJECTED

    monkeypatch.setenv("REPRO_MODEL_DIR", str(tmp_path / "models"))

    def fake_run(verdict):
        def run(config, registry=None, report=None):
            return {
                "name": config.name,
                "promoted": verdict == "promote",
                "verdict": verdict,
                "reasons": ["stubbed"],
                "candidate": {"bundle_id": "c" * 64},
                "promotion": None,
                "eval_report": {"digest": "d" * 64},
                "report_path": str(tmp_path / "report.json"),
            }

        return run

    monkeypatch.setattr(retrain_mod, "run_retrain", fake_run("promote"))
    assert main(["retrain", "--fast"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "promote"

    monkeypatch.setattr(retrain_mod, "run_retrain", fake_run("reject"))
    assert main(["retrain", "--fast"]) == EXIT_EVAL_REJECTED
    assert json.loads(capsys.readouterr().out)["promoted"] is False


# ---------------------------------------------------------------------------
# End-to-end: train once, predict + serve many (the acceptance path)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_cli_registry(tmp_path_factory):
    """``python -m repro train`` into a scratch registry (runs once)."""
    tmp_path = tmp_path_factory.mktemp("cli")
    env = _cli_env(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "repro", "train", "--designs", "3", "--fast", "--name", "cli-test"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["name"] == "cli-test" and len(summary["bundle_id"]) == 64
    return tmp_path, env, summary


@pytest.fixture(scope="module")
def design_file(tmp_path_factory):
    from tests.conftest import SIMPLE_VERILOG

    path = tmp_path_factory.mktemp("cli-designs") / "simple.v"
    path.write_text(SIMPLE_VERILOG)
    return path


def test_cli_train_then_predict(trained_cli_registry, design_file):
    tmp_path, env, _ = trained_cli_registry
    result = subprocess.run(
        [sys.executable, "-m", "repro", "predict", "--model", "cli-test", str(design_file)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    prediction = json.loads(result.stdout)
    assert prediction["design"] == "simple"
    assert set(prediction["overall"]) == {"wns", "tns"}
    assert prediction["ranked_signals"]

    # The model was loaded, not re-trained: predicting twice is identical
    # (up to the wall-clock runtime_seconds field).
    again = subprocess.run(
        [sys.executable, "-m", "repro", "predict", "--model", "cli-test", str(design_file)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    second = json.loads(again.stdout)
    second.pop("runtime_seconds"), prediction.pop("runtime_seconds")
    assert second == prediction


def test_cli_whatif(trained_cli_registry, design_file):
    _, env, _ = trained_cli_registry
    result = subprocess.run(
        [sys.executable, "-m", "repro", "whatif", "--model", "cli-test", "--k", "3", str(design_file)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["design"] == "simple"
    assert payload["candidates"], "no what-if candidates came back"
    assert {"wns", "tns", "n_patches"} <= set(payload["candidates"][0])


def _serving_port(server: subprocess.Popen, timeout_s: float = 120.0) -> int:
    """The port a ``repro serve`` process reports on stderr once it listens.

    A daemon thread keeps draining stderr afterwards so the server never
    blocks on a full pipe.
    """
    lines: "queue.Queue[str | None]" = queue.Queue()

    def drain():
        for line in server.stderr:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=drain, daemon=True).start()
    seen = []
    deadline = time.time() + timeout_s
    while True:
        try:
            line = lines.get(timeout=max(deadline - time.time(), 0.0))
        except queue.Empty:
            pytest.fail(f"server never reported its port; stderr so far: {seen}")
        assert line is not None, f"server exited before serving: {seen}"
        seen.append(line)
        match = re.search(r" on http://[^:/]+:(\d+)", line)
        if match:
            return int(match.group(1))


def test_cli_serve_answers_http(trained_cli_registry, design_file):
    """train -> serve -> HTTP /predict must match the CLI's own predict."""
    tmp_path, env, _ = trained_cli_registry
    reference = subprocess.run(
        [sys.executable, "-m", "repro", "predict", "--model", "cli-test", str(design_file)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    expected = json.loads(reference.stdout)

    bench_out = tmp_path / "BENCH_serve.json"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--model", "cli-test", "--port", "0",
            "--bench-out", str(bench_out),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        # Port 0: the server binds a free port itself and reports it, so no
        # other process can take the port between choosing and binding it.
        port = _serving_port(server)
        payload = json.dumps({"source": design_file.read_text(), "name": "simple"}).encode()
        response = None
        deadline = time.time() + 120
        while time.time() < deadline:
            try:
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/predict",
                    data=payload,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as raw:
                    response = json.loads(raw.read())
                break
            except (ConnectionError, urllib.error.URLError):
                time.sleep(0.5)
        assert response is not None, "server never came up"
        # Served predictions are bit-identical to the in-process CLI predict.
        for key in ("overall", "signal_slack", "signal_ranking", "rank_group"):
            assert response[key] == expected[key]

        with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=30) as raw:
            health = json.loads(raw.read())
        assert health["status"] == "ok"
        assert health["model"]["name"] == "cli-test"
    finally:
        import signal

        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=30)

    # Shutdown wrote the serve-stage runtime report.
    report = json.loads(bench_out.read_text())
    assert report["counters"]["serve_requests"] >= 1
    assert "serve.predict_batch" in report["stages"]
    assert "serve.predict_p50" in report["stages"]

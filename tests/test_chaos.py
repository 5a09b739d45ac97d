"""Chaos campaigns: invariants under injected faults, seed replayability."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core import RTLTimer
from repro.runtime.report import RuntimeReport
from repro.serve.chaos import (
    DEFAULT_FAULTS,
    FAULT_EVIDENCE,
    ChaosConfig,
    ChaosResult,
    run_campaign,
    write_bundle,
)
from tests.test_registry import TINY_TIMER_CONFIG

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos campaigns need the fork start method",
)


@pytest.fixture(scope="module")
def chaos_timer(tiny_records):
    return RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:4])


def _campaign(**overrides) -> ChaosConfig:
    defaults = dict(
        seed=3,
        requests=18,
        concurrency=3,
        workers=2,
        designs=3,
        deadline_s=30.0,
        recovery_timeout_s=30.0,
        hang_timeout_s=1.0,
        backoff_max_s=0.2,
    )
    defaults.update(overrides)
    return ChaosConfig(**defaults)


def test_baseline_campaign_is_clean(chaos_timer, tiny_records):
    """No faults: every request correct, nothing shed, instant recovery."""
    result = run_campaign(
        _campaign(faults={}), records=tiny_records, timer=chaos_timer
    )
    assert result.ok, result.violations
    assert result.wrong == 0 and result.failed == 0
    assert result.correct == result.accepted == result.requests
    assert result.availability == 1.0


def test_faulted_campaign_holds_invariants(chaos_timer, tiny_records):
    """The full fault mix: zero wrong answers, zero lost accepted requests,
    availability at the floor, recovery in bound, every ladder step hit."""
    report = RuntimeReport()
    result = run_campaign(
        _campaign(faults=dict(DEFAULT_FAULTS)),
        records=tiny_records,
        timer=chaos_timer,
        report=report,
    )
    assert result.ok, result.violations
    assert result.wrong == 0 and result.failed == 0
    assert result.availability >= 0.99
    assert result.recovery_s <= 30.0
    # Every configured fault left its ladder evidence (directed sweep
    # guarantees this even for seeds where the probabilistic phase missed).
    for fault in DEFAULT_FAULTS:
        evidence = FAULT_EVIDENCE[fault]
        assert any(report.counters.get(name, 0) > 0 for name in evidence), fault
    # Stages the CI trend gate consumes.
    for stage in (
        "serve.chaos_campaign",
        "serve.chaos_p99",
        "serve.chaos_recovery",
        "serve.availability",
    ):
        assert stage in report.stages


def test_campaign_is_seed_replayable(chaos_timer, tiny_records):
    """Two runs of the same seed draw the same worker-fault pattern."""
    faults = {"worker.crash": 0.2}
    runs = []
    for _ in range(2):
        report = RuntimeReport()
        result = run_campaign(
            _campaign(seed=5, requests=12, concurrency=1, faults=faults),
            records=tiny_records,
            timer=chaos_timer,
            report=report,
        )
        assert result.ok, result.violations
        runs.append(report.counters.get("serve_worker_deaths", 0))
    # Serialized traffic (concurrency=1) makes request ids, and therefore
    # crash draws, line up between runs.
    assert runs[0] == runs[1] > 0


def test_violated_campaign_writes_replayable_bundle(tmp_path):
    result = ChaosResult(config=_campaign(faults={"worker.crash": 1.0}))
    result.violations.append("synthetic violation")
    path = write_bundle(result, tmp_path)
    bundle = json.loads(path.read_text())
    assert bundle["schema"] == "repro-chaos-bundle/1"
    assert bundle["replay"]["seed"] == result.config.seed
    assert bundle["replay"]["faults"] == {"worker.crash": 1.0}
    assert bundle["result"]["ok"] is False

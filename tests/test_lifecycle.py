"""Online lifecycle: eval gate, retrain→promote/reject, hot swap, watcher."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.core import RTLTimer
from repro.lifecycle import (
    EvalThresholds,
    PromotionWatcher,
    RetrainConfig,
    compare_evals,
    eval_digest,
    evaluate_timer,
    run_retrain,
    training_config,
)
from repro.lifecycle.evaluate import EVAL_REPORT_SCHEMA
from repro.serve.http import start_server
from repro.runtime import RuntimeReport
from repro.serve.registry import ModelRegistry, state_payload
from repro.serve.service import PooledTimingService, ServeConfig, TimingService
from repro.serve.supervisor import PoolConfig
from repro.settings import configure
from tests.conftest import TINY_SPECS
from tests.test_registry import TINY_TIMER_CONFIG


@pytest.fixture(scope="module")
def good_timer(tiny_records):
    return RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:3])


@pytest.fixture(scope="module")
def alt_timer(tiny_records):
    """A different healthy bundle (wider training set → different content)."""
    return RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:4])


@pytest.fixture(scope="module")
def degraded_timer(tiny_records):
    """Deliberately bad: one design, one boosting round."""
    return RTLTimer(training_config(1, fast=True)).fit(tiny_records[:1])


@pytest.fixture(scope="module")
def holdout(tiny_records):
    return tiny_records[3:]


# ---------------------------------------------------------------------------
# Training-config semantics (the --estimators 0 bugfix)
# ---------------------------------------------------------------------------


def test_training_config_estimator_semantics():
    assert training_config(None, fast=True).bitwise.n_estimators == 20
    assert training_config(None, fast=False).bitwise.n_estimators == 60
    assert training_config(7, fast=True).bitwise.n_estimators == 7
    for bad in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            training_config(bad)


# ---------------------------------------------------------------------------
# The eval gate
# ---------------------------------------------------------------------------


def test_evaluate_timer_shape(good_timer, holdout):
    result = evaluate_timer(good_timer, holdout)
    assert set(result["designs"]) == {record.name for record in holdout}
    assert -1.0 <= result["mean_r"] <= 1.0
    assert result["mean_predict_seconds"] > 0.0
    with pytest.raises(ValueError, match="empty holdout"):
        evaluate_timer(good_timer, [])


def test_eval_gate_rejects_degraded_candidate(good_timer, degraded_timer, holdout):
    good_eval = evaluate_timer(good_timer, holdout)
    bad_eval = evaluate_timer(degraded_timer, holdout)
    assert bad_eval["mean_r"] < good_eval["mean_r"] - 0.05  # decisively worse

    verdict = compare_evals(bad_eval, good_eval, EvalThresholds())
    assert verdict["verdict"] == "reject"
    assert any("regressed" in reason for reason in verdict["reasons"])

    # The improvement direction always passes.
    assert compare_evals(good_eval, bad_eval, EvalThresholds())["verdict"] == "promote"
    # No baseline: bootstrap promotion.
    bootstrap = compare_evals(good_eval, None)
    assert bootstrap["verdict"] == "promote"
    assert bootstrap["baseline_mean_r"] is None


def test_eval_gate_latency_budget():
    fast = {"mean_r": 0.9, "mean_predict_seconds": 0.1}
    slow = {"mean_r": 0.9, "mean_predict_seconds": 1.0}
    thresholds = EvalThresholds(min_r_delta=0.02, latency_ratio=5.0)
    verdict = compare_evals(slow, fast, thresholds)
    assert verdict["verdict"] == "reject"
    assert any("latency" in reason for reason in verdict["reasons"])
    assert verdict["latency_ratio_observed"] == pytest.approx(10.0)
    assert compare_evals(fast, slow, thresholds)["verdict"] == "promote"


def test_eval_thresholds_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_EVAL_MIN_R_DELTA", "0.5")
    monkeypatch.setenv("REPRO_EVAL_LATENCY_RATIO", "9.0")
    thresholds = configure(EvalThresholds)
    assert thresholds.min_r_delta == 0.5
    assert thresholds.latency_ratio == 9.0
    monkeypatch.setenv("REPRO_EVAL_MIN_R_DELTA", "not-a-number")
    with pytest.raises(ValueError, match="REPRO_EVAL_MIN_R_DELTA"):
        configure(EvalThresholds)


def test_eval_digest_is_canonical():
    report = {"b": 1, "a": [1, 2], "digest": "ignored"}
    reordered = {"a": [1, 2], "b": 1}
    assert eval_digest(report) == eval_digest(reordered)
    assert eval_digest({"a": [1, 2], "b": 2}) != eval_digest(report)


# ---------------------------------------------------------------------------
# run_retrain: the eval-gated canary flow
# ---------------------------------------------------------------------------


def test_run_retrain_promotes_then_rejects_degraded(tmp_path):
    registry = ModelRegistry(tmp_path / "models")

    first = run_retrain(
        RetrainConfig(
            name="m",
            fast=True,
            estimators=10,
            train_specs=TINY_SPECS[:3],
            holdout_specs=TINY_SPECS[3:],
            report_out=str(tmp_path / "r1.json"),
        ),
        registry=registry,
    )
    assert first["promoted"] and first["verdict"] == "promote"
    first_id = first["candidate"]["bundle_id"]
    assert registry.resolve("m@promoted") == first_id
    # The promotion entry records the digest of the exact report written.
    report1 = json.loads((tmp_path / "r1.json").read_text())
    assert report1["schema"] == EVAL_REPORT_SCHEMA
    assert report1["digest"] == eval_digest(report1)
    assert registry.promoted("m")["eval_digest"] == report1["digest"]
    assert registry.promoted("m")["source"] == "retrain"

    degraded = run_retrain(
        RetrainConfig(
            name="m",
            fast=True,
            estimators=1,
            train_specs=TINY_SPECS[:1],
            holdout_specs=TINY_SPECS[3:],
            report_out=str(tmp_path / "r2.json"),
        ),
        registry=registry,
    )
    assert not degraded["promoted"] and degraded["verdict"] == "reject"
    # The registry default did NOT flip; the report was written anyway.
    assert registry.resolve("m@promoted") == first_id
    report2 = json.loads((tmp_path / "r2.json").read_text())
    assert report2["verdict"] == "reject"
    assert report2["baseline"]["bundle_id"] == first_id
    assert report2["candidate"]["bundle_id"] == degraded["candidate"]["bundle_id"]

    # The rejected candidate is still *registered* (canary, not default) —
    # a manual promote can override the gate, and rollback undoes it.
    registry.promote("m", degraded["candidate"]["bundle_id"])
    assert registry.resolve("m@promoted") == degraded["candidate"]["bundle_id"]
    restored = registry.rollback("m")
    assert restored["bundle_id"] == first_id
    assert registry.resolve("m@promoted") == first_id


def _fuzz_retrain_config(tmp_path, **overrides) -> RetrainConfig:
    """Tiny injected train/holdout split widened with one fuzz seed."""
    return RetrainConfig(
        name="m",
        fast=True,
        estimators=10,
        train_specs=TINY_SPECS[:3],
        holdout_specs=TINY_SPECS[3:],
        fuzz_seeds=(5,),
        fuzz_size_class="tiny",
        report_out=str(tmp_path / "eval.json"),
        **overrides,
    )


def test_run_retrain_never_fingerprints_ingested_records(tmp_path, monkeypatch):
    """Every ingested record, fuzz ones included, carries its build key, so
    the path-feature cache never pickles a record into a fingerprint."""
    def refuse(record):
        raise AssertionError(f"{record.name} was fingerprinted by pickling")

    monkeypatch.setattr("repro.runtime.cache.record_fingerprint", refuse)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    result = run_retrain(_fuzz_retrain_config(tmp_path), registry=ModelRegistry(tmp_path / "models"))
    assert result["promoted"]
    assert result["candidate"]["metadata"]["train_designs"] == 4


def test_run_retrain_ingests_in_one_fan_out(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_JOBS", "2")
    registry = ModelRegistry(tmp_path / "models")
    designs = 3 + 1 + 2  # train + fuzz + holdout

    cold = RuntimeReport()
    run_retrain(_fuzz_retrain_config(tmp_path), registry=registry, report=cold)
    assert cold.stage_calls["dataset.build_parallel"] == 1
    assert cold.counters["cache_stores"] == designs
    assert cold.counters["lifecycle_fuzz_ingested"] == 1

    warm = RuntimeReport()
    run_retrain(_fuzz_retrain_config(tmp_path), registry=registry, report=warm)
    assert warm.counters["cache_hits"] == designs
    assert "dataset.build_parallel" not in warm.stage_calls


def test_run_retrain_guards_holdout_overlap(tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    with pytest.raises(ValueError, match="overlap"):
        run_retrain(
            RetrainConfig(
                name="m",
                fast=True,
                train_specs=TINY_SPECS[:3],
                holdout_specs=TINY_SPECS[2:4],
            ),
            registry=registry,
        )
    with pytest.raises(ValueError, match="injected together"):
        run_retrain(RetrainConfig(name="m", train_specs=TINY_SPECS[:3]), registry=registry)


# ---------------------------------------------------------------------------
# Hot bundle swap: zero dropped in-flight requests
# ---------------------------------------------------------------------------


def _arrival_refs(timer, records):
    return {record.name: timer.predict(record).signal_arrival for record in records}


def test_inprocess_hot_swap_drops_nothing(good_timer, alt_timer, tiny_records):
    old_refs = _arrival_refs(good_timer, tiny_records)
    new_refs = _arrival_refs(alt_timer, tiny_records)
    service = TimingService(
        good_timer,
        ServeConfig(max_batch=4),
        manifest={"bundle_id": "a" * 64},
    )
    results, errors = [], []
    swap_now = threading.Event()

    def client(worker_id):
        for i in range(12):
            record = tiny_records[(worker_id + i) % len(tiny_records)]
            if worker_id == 0 and i == 4:
                swap_now.set()
            try:
                prediction = service.predict(record)
                results.append((record.name, prediction.signal_arrival))
            except BaseException as exc:  # pragma: no cover - would fail the test
                errors.append(exc)

    try:
        threads = [threading.Thread(target=client, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        swap_now.wait(timeout=30)
        service.reload(alt_timer, manifest={"bundle_id": "b" * 64, "eval_digest": "e" * 8})
        for thread in threads:
            thread.join(timeout=60)

        assert not errors
        assert len(results) == 48  # every request answered
        # Every answer came from exactly one bundle — old or new, never a mix.
        for name, arrival in results:
            assert arrival in (old_refs[name], new_refs[name])
        # The swap is visible: identity surfaced, and new predictions use it.
        assert service.active_bundle_id == "b" * 64
        assert service.eval_digest == "e" * 8
        serving = service.metrics()["serving"]
        assert serving["active_bundle_id"] == "b" * 64
        assert serving["eval_digest"] == "e" * 8
        assert service.report.counters["serve_model_reloads"] == 1
        after = service.predict(tiny_records[0])
        assert after.signal_arrival == new_refs[tiny_records[0].name]
    finally:
        service.close()


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="worker pool tests need the fork start method",
)
def test_pooled_hot_swap_rolls_workers_without_drops(good_timer, alt_timer, tiny_records):
    import time

    old_refs = _arrival_refs(good_timer, tiny_records)
    new_refs = _arrival_refs(alt_timer, tiny_records)
    payload_old = state_payload(good_timer.to_state())
    payload_new = state_payload(alt_timer.to_state())
    service = PooledTimingService(
        good_timer,
        ServeConfig(max_batch=4),
        manifest={"bundle_id": "a" * 64},
        pool_config=PoolConfig(
            workers=2,
            hang_timeout_s=10.0,
            backoff_base_s=0.05,
            backoff_max_s=0.2,
            retry_limit=2,
        ),
        payload_provider=lambda: payload_old,
    )
    results, errors = [], []
    swap_now = threading.Event()

    def client(worker_id):
        for i in range(10):
            record = tiny_records[(worker_id + i) % len(tiny_records)]
            if worker_id == 0 and i == 3:
                swap_now.set()
            try:
                prediction = service.predict(record)
                results.append((record.name, prediction.signal_arrival))
            except BaseException as exc:  # pragma: no cover - would fail the test
                errors.append(exc)

    try:
        threads = [threading.Thread(target=client, args=(t,)) for t in range(3)]
        for thread in threads:
            thread.start()
        swap_now.wait(timeout=60)
        service.reload(
            alt_timer, manifest={"bundle_id": "b" * 64}, payload=payload_new
        )
        for thread in threads:
            thread.join(timeout=120)

        assert not errors
        assert len(results) == 30  # zero dropped in-flight requests
        for name, arrival in results:
            assert arrival in (old_refs[name], new_refs[name])

        # The supervisor rolls every worker onto the new generation...
        deadline = time.monotonic() + 30
        while not service.pool.refresh_complete() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert service.pool.refresh_complete()
        assert service.report.counters["serve_pool_refreshes"] == 1
        assert service.report.counters.get("serve_worker_refreshes", 0) >= 1
        # ...and post-roll answers come from the new bundle.
        after = service.predict(tiny_records[1])
        assert after.signal_arrival == new_refs[tiny_records[1].name]
        assert service.metrics()["serving"]["active_bundle_id"] == "b" * 64
    finally:
        service.close()


# ---------------------------------------------------------------------------
# PromotionWatcher: a serving process follows name@promoted
# ---------------------------------------------------------------------------


def test_promotion_watcher_swaps_and_reports(tmp_path, good_timer, alt_timer, tiny_records):
    registry = ModelRegistry(tmp_path / "models")
    first = registry.save(good_timer, "m")
    registry.promote("m", "m@1", eval_digest="digest-1")
    timer, manifest = registry.load_with_manifest("m@promoted")
    service = TimingService(timer, ServeConfig(), manifest=dict(manifest))
    watcher = PromotionWatcher(service, registry, "m", interval_s=60)
    server = start_server(service, port=0)
    try:
        assert service.active_bundle_id == first["bundle_id"]
        assert watcher.poll_once() is False  # already on the promoted bundle

        second = registry.save(alt_timer, "m")
        registry.promote("m", "m@2", eval_digest="digest-2")
        assert watcher.poll_once() is True
        assert service.active_bundle_id == second["bundle_id"]
        assert service.eval_digest == "digest-2"
        record = tiny_records[2]
        assert service.predict(record).signal_arrival == alt_timer.predict(record).signal_arrival

        # /health surfaces the new identity for one-probe canary checks.
        host, port = server.server_address
        with urllib.request.urlopen(f"http://{host}:{port}/health") as response:
            health = json.loads(response.read())
        assert health["active_bundle_id"] == second["bundle_id"]
        assert health["eval_digest"] == "digest-2"
        assert health["model"]["bundle_id"] == second["bundle_id"]

        # A promotion pointing at a vanished blob must NOT take the service
        # down: the swap fails, the counter ticks, the old bundle keeps serving.
        registry.rollback("m")  # pointer back to m@1 ...
        registry.cache.path_for(first["bundle_id"]).unlink()  # ... whose blob is gone
        assert watcher.poll_once() is False
        assert service.active_bundle_id == second["bundle_id"]
        assert service.report.counters["serve_promotion_swap_failures"] >= 1
    finally:
        server.shutdown()
        service.close()


def test_promotion_watcher_background_thread(tmp_path, good_timer, alt_timer):
    import time

    registry = ModelRegistry(tmp_path / "models")
    registry.save(good_timer, "m")
    registry.promote("m", "m@1")
    timer, manifest = registry.load_with_manifest("m@promoted")
    service = TimingService(timer, ServeConfig(), manifest=dict(manifest))
    try:
        with PromotionWatcher(service, registry, "m", interval_s=0.05):
            second = registry.save(alt_timer, "m")
            registry.promote("m", "m@2")
            deadline = time.monotonic() + 30
            while (
                service.active_bundle_id != second["bundle_id"]
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert service.active_bundle_id == second["bundle_id"]
            assert service.report.counters["serve_promotion_swaps"] >= 1
    finally:
        service.close()

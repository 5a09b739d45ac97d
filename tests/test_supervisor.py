"""Supervised worker pool: crash recovery, retries, bit-identical serving."""

from __future__ import annotations

import copy
import dataclasses
import os
import signal
import sys
import threading
import time

import pytest

from repro.core import RTLTimer
from repro.faults import FAULT_ENV_VAR
from repro.runtime.report import RuntimeReport
from repro.serve.registry import state_payload
from repro.serve.service import PooledTimingService, ServeConfig
from repro.serve.supervisor import PoolConfig, WorkerPool
from tests.test_registry import TINY_TIMER_CONFIG

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="worker pool tests need the fork start method",
)


@pytest.fixture(scope="module")
def pool_timer(tiny_records):
    return RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:4])


@pytest.fixture(scope="module")
def pool_payload(pool_timer):
    return state_payload(pool_timer.to_state())


def _fast_pool_config(**overrides) -> PoolConfig:
    defaults = dict(
        workers=2,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=2.0,
        hang_timeout_s=5.0,
        backoff_base_s=0.05,
        backoff_max_s=0.2,
        retry_limit=2,
    )
    defaults.update(overrides)
    return PoolConfig(**defaults)


def _wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


# ---------------------------------------------------------------------------
# WorkerPool
# ---------------------------------------------------------------------------


def test_pool_predicts_match_parent_timer(pool_timer, pool_payload, tiny_records):
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(), report=report) as pool:
        for record in tiny_records[:3]:
            pooled = pool.submit("predict", record, content_key=record.name).result()
            serial = pool_timer.predict(record)
            assert pooled.signal_slack == serial.signal_slack
            assert pooled.overall == serial.overall
    assert report.counters.get("serve_worker_deaths", 0) == 0


def test_pool_recovers_from_sigkill(pool_timer, pool_payload, tiny_records):
    """SIGKILLing a worker loses nothing: in-flight retries, slot respawns."""
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(), report=report) as pool:
        victim = pool._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        record = tiny_records[0]
        # Requests keep being answered correctly throughout the restart.
        for _ in range(4):
            pooled = pool.submit("predict", record).result()
            assert pooled.signal_slack == pool_timer.predict(record).signal_slack
        _wait_for(
            lambda: pool.alive_count() == 2,
            message="killed worker slot to respawn",
        )
    assert report.counters.get("serve_worker_restarts", 0) >= 1


def test_pool_parks_requests_when_all_workers_down(pool_timer, pool_payload, tiny_records):
    """With every worker dead, accepted requests wait and then complete."""
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(), report=report) as pool:
        for worker in pool._workers:
            os.kill(worker.process.pid, signal.SIGKILL)
        record = tiny_records[1]
        results = []

        def run():
            results.append(pool.submit("predict", record).result())

        threads = [threading.Thread(target=run) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(results) == 3
        serial = pool_timer.predict(record)
        for pooled in results:
            assert pooled.signal_slack == serial.signal_slack


def test_pool_refreshes_payload_via_provider_on_restart(pool_timer, pool_payload):
    """Worker restarts re-pull the bundle; a failing provider degrades to cache."""
    calls = []

    def provider():
        calls.append(None)
        if len(calls) > 1:
            raise RuntimeError("registry unavailable")
        return pool_payload

    report = RuntimeReport()
    with WorkerPool(lambda: provider(), _fast_pool_config(workers=1), report=report) as pool:
        os.kill(pool._workers[0].process.pid, signal.SIGKILL)
        _wait_for(
            lambda: report.counters.get("serve_worker_spawns", 0) >= 2
            and pool.alive_count() == 1,
            message="worker respawn",
        )
    assert len(calls) >= 2  # initial load + restart refresh attempt
    assert report.counters.get("serve_registry_fallbacks", 0) >= 1


# ---------------------------------------------------------------------------
# Worker record cache (parent mirror in sync with each worker's LRU)
# ---------------------------------------------------------------------------


def _keyed(record, key):
    """A copy of ``record`` stamped with build key ``key``."""
    keyed = copy.copy(record)
    keyed.__dict__["_content_key"] = key
    return keyed


def _record_transfers(report):
    counters = report.counters
    return (
        counters.get("serve_pool_record_sends", 0),
        counters.get("serve_pool_record_hits", 0),
    )


def _assert_pooled_matches(pool, timer, record):
    # A worker error reply (e.g. a cache miss on a key-only request) raises
    # from result(), so every call here also asserts zero error replies.
    pooled = pool.submit(
        "predict", record, content_key=record.__dict__.get("_content_key")
    ).result()
    serial = timer.predict(record)
    # Everything but the wall-clock runtime is bit-identical.
    assert dataclasses.replace(pooled, runtime_seconds=serial.runtime_seconds) == serial


def test_pool_ships_keyed_record_once(pool_timer, pool_payload, tiny_records):
    record = _keyed(tiny_records[0], "key-0")
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1), report=report) as pool:
        for _ in range(3):
            _assert_pooled_matches(pool, pool_timer, record)
    assert _record_transfers(report) == (1, 2)


def test_pool_resends_evicted_records(pool_timer, pool_payload, tiny_records):
    capacity = 2
    records = [_keyed(r, f"key-{i}") for i, r in enumerate(tiny_records[: capacity + 1])]
    report = RuntimeReport()
    with WorkerPool(
        lambda: pool_payload,
        _fast_pool_config(workers=1),
        report=report,
        record_cache_entries=capacity,
    ) as pool:
        # capacity + 1 keys cycled through an LRU: each evicts the one that
        # comes next, so every request ships its record.
        for record in records + records:
            _assert_pooled_matches(pool, pool_timer, record)
        assert _record_transfers(report) == (2 * len(records), 0)
        # The two most recent keys are still cached on both sides.
        for record in records[-capacity:]:
            _assert_pooled_matches(pool, pool_timer, record)
    assert _record_transfers(report) == (2 * len(records), capacity)


def test_pool_resends_after_worker_restart(pool_timer, pool_payload, tiny_records):
    record = _keyed(tiny_records[0], "key-0")
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1), report=report) as pool:
        _assert_pooled_matches(pool, pool_timer, record)
        _assert_pooled_matches(pool, pool_timer, record)
        pool._workers[0].process.kill()
        _wait_for(
            lambda: report.counters.get("serve_worker_spawns", 0) == 2
            and pool.alive_count() == 1,
            message="killed worker to respawn",
        )
        _assert_pooled_matches(pool, pool_timer, record)
        _assert_pooled_matches(pool, pool_timer, record)
    assert _record_transfers(report) == (2, 2)


def test_pool_resends_after_refresh(pool_timer, pool_payload, tiny_records):
    record = _keyed(tiny_records[0], "key-0")
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1), report=report) as pool:
        _assert_pooled_matches(pool, pool_timer, record)
        pool.request_refresh()
        _wait_for(pool.refresh_complete, message="bundle refresh")
        _assert_pooled_matches(pool, pool_timer, record)
        _assert_pooled_matches(pool, pool_timer, record)
    assert _record_transfers(report) == (2, 1)


def test_pool_ships_unkeyed_record_every_time(pool_timer, pool_payload, tiny_records):
    record = tiny_records[0]
    assert "_content_key" not in record.__dict__
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1), report=report) as pool:
        for _ in range(3):
            _assert_pooled_matches(pool, pool_timer, record)
    assert _record_transfers(report) == (3, 0)


def test_pool_record_mirror_survives_concurrent_senders(pool_timer, pool_payload, tiny_records):
    """Many threads, small LRUs, more workers than cores: the mirror never drifts.

    A mirror step taken outside the send order would make the parent send a
    bare key the worker has evicted, which comes back as an error reply.
    """
    records = [_keyed(r, f"key-{i}") for i, r in enumerate(tiny_records[:4])]
    serial = {r.__dict__["_content_key"]: pool_timer.predict(r).signal_slack for r in records}
    report = RuntimeReport()
    failures = []
    per_thread = 8

    def run(offset):
        try:
            for index in range(per_thread):
                record = records[(offset + index) % len(records)]
                key = record.__dict__["_content_key"]
                pooled = pool.submit("predict", record, content_key=key).result()
                assert pooled.signal_slack == serial[key]
        except BaseException as exc:
            failures.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(
            lambda: pool_payload,
            _fast_pool_config(workers=(os.cpu_count() or 1) + 1),
            report=report,
            # Capacity 1: every change of key on a worker is an eviction.
            record_cache_entries=1,
        ) as pool:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch_interval)
    assert failures == []
    assert sum(_record_transfers(report)) == 6 * per_thread


def test_pool_close_is_idempotent_and_fails_pending(pool_payload):
    pool = WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1))
    pool.close()
    pool.close()
    from repro.serve.resilience import WorkerUnavailable

    with pytest.raises(WorkerUnavailable):
        pool.submit("predict", None).result()


# ---------------------------------------------------------------------------
# PooledTimingService
# ---------------------------------------------------------------------------


def test_pooled_service_bit_identical(pool_timer, tiny_records):
    service = PooledTimingService(
        pool_timer,
        ServeConfig(max_batch=4, batch_window_s=0.02),
        pool_config=_fast_pool_config(),
    )
    try:
        for record in tiny_records[:3]:
            served = service.predict(record)
            serial = pool_timer.predict(record)
            assert served.signal_slack == serial.signal_slack
            assert served.signal_ranking == serial.signal_ranking
            assert served.overall == serial.overall
        workers = service.metrics()["serving"]["workers"]
        assert len(workers) == 2 and all(w["alive"] for w in workers)
    finally:
        service.close()


def test_pooled_service_ships_source_records_once(pool_timer, simple_source, monkeypatch):
    """Source-built records carry a build key; the pool caches them per worker."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    service = PooledTimingService(
        pool_timer,
        ServeConfig(batch_window_s=0.0, record_cache_entries=3),
        pool_config=_fast_pool_config(workers=1),
    )
    try:
        assert service.pool.record_cache_entries == 3
        record = service.record_for_source(simple_source, name="simple")
        serial = pool_timer.predict(record)
        for _ in range(3):
            served = service.predict(record)
            assert served.signal_slack == serial.signal_slack
            assert served.overall == serial.overall
    finally:
        service.close()
    counters = service.report.counters
    assert counters.get("serve_pool_record_sends", 0) == 1
    assert counters.get("serve_pool_record_hits", 0) == 2


def test_pooled_service_survives_crash_faults(pool_timer, tiny_records, monkeypatch):
    """Every answer stays correct while workers crash under fault injection."""
    monkeypatch.setenv(FAULT_ENV_VAR, "worker.crash:p=0.3:seed=11")
    service = PooledTimingService(
        pool_timer,
        ServeConfig(max_batch=4, batch_window_s=0.01),
        pool_config=_fast_pool_config(),
    )
    try:
        serial = {r.name: pool_timer.predict(r) for r in tiny_records[:2]}
        for index in range(10):
            record = tiny_records[index % 2]
            served = service.predict(record)
            assert served.signal_slack == serial[record.name].signal_slack
    finally:
        service.close()
    counters = service.report.counters
    # The seed guarantees at least one crash in 10+ requests at p=0.3; every
    # loss was either retried on a sibling or answered by the local fallback.
    assert (
        counters.get("serve_worker_restarts", 0) > 0
        or counters.get("serve_pool_local_fallbacks", 0) > 0
    )

"""Corruption recovery: cache/registry damage must never yield wrong answers."""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.core import RTLTimer
from repro.runtime.report import RuntimeReport
from repro.serve.registry import ModelRegistry, RegistryError
from repro.serve.service import PooledTimingService, ServeConfig, TimingService
from tests.test_registry import TINY_TIMER_CONFIG


@pytest.fixture(scope="module")
def recovery_timer(tiny_records):
    return RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:4])


def _flip_all_cache_entries(cache_dir) -> int:
    """Bit-flip the head and truncate every on-disk cache entry; returns count."""
    flipped = 0
    for path in cache_dir.rglob("*.pkl"):
        blob = path.read_bytes()
        path.write_bytes(bytes([blob[0] ^ 0xFF]) + blob[1 : max(len(blob) // 2, 1)])
        flipped += 1
    return flipped


def test_cache_corruption_recovers_under_concurrency(
    recovery_timer, simple_source, tmp_path, monkeypatch
):
    """Concurrent requests against bit-flipped cache entries all recompute
    correctly — the corrupt reads count, the answers never differ."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))

    with TimingService(recovery_timer, ServeConfig(record_cache_entries=1)) as service:
        healthy_record = service.record_for_source(simple_source, name="simple")
        healthy = recovery_timer.predict(healthy_record)
        # Evict "simple" from the in-memory LRU so the next lookups go to disk.
        service.record_for_source(simple_source, name="other")
        assert _flip_all_cache_entries(cache_dir) > 0

        results = [None] * 4
        errors = []

        def run(index):
            try:
                record = service.record_for_source(simple_source, name="simple")
                results[index] = service.predict(record)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        for prediction in results:
            assert prediction.signal_slack == healthy.signal_slack
            assert prediction.overall == healthy.overall
        counters = service.report.counters
        assert counters.get("cache_corrupt", 0) >= 1


def test_registry_payload_rejects_corrupted_bundle(recovery_timer, tmp_path):
    """A tampered stored bundle raises RegistryError from payload() — the
    worker-reload path can never load silently wrong bytes."""
    registry = ModelRegistry(tmp_path / "models")
    saved = registry.save(recovery_timer, "tiny")

    payload, manifest = registry.payload("tiny")
    assert manifest["bundle_id"] == saved["bundle_id"]
    assert isinstance(payload, bytes) and len(payload) > 0

    blob_path = registry.cache.path_for(saved["bundle_id"])
    blob = blob_path.read_bytes()
    blob_path.write_bytes(blob[: len(blob) // 2])

    with pytest.raises(RegistryError):
        registry.payload("tiny")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker pool tests need the fork start method",
)
def test_pooled_service_survives_registry_corruption(
    recovery_timer, tiny_records, tmp_path
):
    """Corrupting the registry mid-flight degrades worker reloads to the
    cached payload; predictions stay bit-identical throughout."""
    import os
    import signal

    from repro.serve.supervisor import PoolConfig

    registry = ModelRegistry(tmp_path / "models")
    registry.save(recovery_timer, "tiny")
    report = RuntimeReport()
    service = PooledTimingService(
        recovery_timer,
        ServeConfig(),
        report=report,
        pool_config=PoolConfig(
            workers=1,
            backoff_base_s=0.05,
            backoff_max_s=0.2,
        ),
        payload_provider=lambda: registry.payload("tiny")[0],
    )
    try:
        record = tiny_records[0]
        healthy = recovery_timer.predict(record)
        assert service.predict(record).signal_slack == healthy.signal_slack

        # Tear the registry out from under the pool, then kill the worker:
        # the restart's payload refresh fails and degrades to the cached
        # in-memory payload.
        for path in (tmp_path / "models").rglob("*"):
            if path.is_file():
                path.write_bytes(b"garbage")
        os.kill(service.pool._workers[0].process.pid, signal.SIGKILL)

        for _ in range(4):
            assert service.predict(record).signal_slack == healthy.signal_slack
    finally:
        service.close()
    assert report.counters.get("serve_registry_fallbacks", 0) >= 1

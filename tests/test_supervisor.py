"""Supervised worker pool: crash recovery, the charging rule, bit-identical serving."""

from __future__ import annotations

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
from repro.serve.resilience import WorkerUnavailable
from repro.serve.service import PooledTimingService, ServeConfig
from repro.serve import supervisor
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
        hang_timeout_s=5.0,
        backoff_base_s=0.05,
        backoff_max_s=0.2,
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
            pooled = pool.submit(record).result()
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
        unkeyed = dataclasses.replace(record, key=None)  # round-robins
        # Requests keep being answered correctly throughout the restart, and
        # the first goes to the killed slot.
        for _ in range(4):
            pooled = pool.submit(unkeyed).result()
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
            results.append(pool.submit(record).result())

        threads = [threading.Thread(target=run) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(results) == 3
        serial = pool_timer.predict(record)
        for pooled in results:
            assert pooled.signal_slack == serial.signal_slack


def _warm(pool, record):
    """One answered request per worker (submits 1..workers), so no worker
    is still loading its bundle when a test starts the hang clock."""
    unkeyed = dataclasses.replace(record, key=None)  # round-robins
    for handle in [pool.submit(unkeyed) for _ in pool._workers]:
        handle.result()


def _hang_on(monkeypatch, *submit_ids):
    """Make the pool's submits with these numbers (1, 2, ...) hang their
    worker."""
    monkeypatch.setattr(
        supervisor,
        "_worker_faults",
        lambda submit_id: ("worker.hang",) if submit_id in submit_ids else (),
    )


def test_pool_answers_a_hung_request_on_a_sibling(pool_timer, pool_payload, tiny_records, monkeypatch):
    """A worker that owes a reply for hang_timeout_s is killed; the request
    is answered on its sibling."""
    record = tiny_records[0]
    report = RuntimeReport()
    with WorkerPool(
        lambda: pool_payload, _fast_pool_config(hang_timeout_s=0.5), report=report
    ) as pool:
        _warm(pool, record)
        _hang_on(monkeypatch, 3)
        handle = pool.submit(record)
        assert handle.done.wait(20.0), "hung request never answered"
        assert handle.result().signal_slack == pool_timer.predict(record).signal_slack
    assert report.counters.get("serve_worker_hangs", 0) == 1


def test_pool_detects_both_hangs_when_every_worker_hangs(
    pool_timer, pool_payload, tiny_records, monkeypatch
):
    """Two hung workers with full pipes are both detected and replaced.

    Submits 3 and 4 hang one worker each.  The unkeyed records after them
    round-robin and ship whole (about 140 KB pickled each), so they fill both
    pipes and sends block.  The first hang's retries then block on the second
    worker's pipe; run on the supervisor's thread, they would keep it from
    ever seeing that hang.
    """
    record = dataclasses.replace(tiny_records[0], key=None)
    serial = pool_timer.predict(record)
    report = RuntimeReport()
    handles = []
    pool = WorkerPool(
        lambda: pool_payload, _fast_pool_config(hang_timeout_s=0.5), report=report
    )
    try:
        _warm(pool, record)
        _hang_on(monkeypatch, 3, 4)

        def submit_all():
            for _ in range(16):
                handles.append(pool.submit(record))

        submitter = threading.Thread(target=submit_all, daemon=True)
        submitter.start()
        deadline = time.monotonic() + 20.0
        submitter.join(timeout=20.0)
        assert not submitter.is_alive(), f"{len(handles)} of 16 submitted"
        for handle in handles:
            assert handle.done.wait(max(deadline - time.monotonic(), 0.0)), (
                f"{sum(h.done.is_set() for h in handles)} of 16 resolved"
            )
            assert handle.result().signal_slack == serial.signal_slack
    finally:
        # A stalled pool cannot be closed over its pipes; kill the workers
        # first so a stall fails this test instead of hanging the suite.
        for worker in pool._workers:
            worker.process.kill()
        pool.close()
    assert report.counters.get("serve_worker_hangs", 0) >= 2


def test_pool_never_calls_a_replying_queue_hung(pool_timer, pool_payload, tiny_records, monkeypatch):
    """20 slow requests queued on one worker take longer than hang_timeout_s
    in all, but replies keep coming: the rule is "no reply for
    hang_timeout_s", not "oldest dispatch too old"."""
    record = tiny_records[0]  # keyed: every request is pinned to one worker
    serial = pool_timer.predict(record)
    report = RuntimeReport()
    with WorkerPool(
        lambda: pool_payload, _fast_pool_config(hang_timeout_s=0.5), report=report
    ) as pool:
        _warm(pool, record)
        pool.submit(record).result()  # the worker builds the record
        monkeypatch.setattr(supervisor, "_worker_faults", lambda submit_id: ("worker.slow_io",))
        handles = [pool.submit(record) for _ in range(20)]
        for handle in handles:
            assert handle.done.wait(20.0)
            assert handle.result().signal_slack == serial.signal_slack
    assert report.counters.get("serve_worker_hangs", 0) == 0
    assert report.counters.get("serve_worker_deaths", 0) == 0


class _Conn:
    """A stand-in worker pipe: ``send`` raises ``error``, or records the message."""

    def __init__(self, error=None):
        self.error = error
        self.sent = []

    def send(self, message):
        if self.error is not None:
            raise self.error
        self.sent.append(message)


@pytest.mark.parametrize("case", ["send_fails", "process_exited"])
def test_pool_charges_no_attempt_for_a_worker_already_gone(
    pool_payload, tiny_records, monkeypatch, case
):
    """A request sent to a worker that was already gone is never charged: its
    failed send parks it for that slot's respawn, and the worker's death,
    declared after it, charges nobody, since the request was never that
    worker's head.  Both workers are gone and neither death is declared yet,
    so a send that tried a sibling instead would bounce between them."""
    # No supervisor: nothing respawns, so the parked requests stay parked.
    monkeypatch.setattr(WorkerPool, "_supervise", lambda self: None)
    with WorkerPool(lambda: pool_payload, _fast_pool_config()) as pool:
        workers = pool._workers
        real_conns = [worker.conn for worker in workers]
        for worker in workers:
            if case == "send_fails":
                worker.conn = _Conn(BrokenPipeError("worker gone"))
            else:
                os.kill(worker.process.pid, signal.SIGKILL)
                worker.process.join(timeout=10.0)
                _wait_for(lambda: not worker.alive, message="death noticed")
                # Replay the window before the death was noticed: the slot
                # still looks alive, and the send meets the dead process's
                # closed pipe.
                worker.alive = True
        unkeyed = dataclasses.replace(tiny_records[0], key=None)  # round-robins
        handles = [pool.submit(unkeyed) for _ in workers]
        # Each request's pipe failed, so it parks at once.
        assert pool._parked == handles
        assert all(worker.pending == {} for worker in workers)
        assert all(worker.alive for worker in workers)  # only receivers declare deaths
        for worker in workers:
            pool._mark_dead(worker, worker.process, reason="pipe closed")
        assert pool._parked == handles
        for handle in handles:
            assert (handle.attempts, handle.charges) == (0, 0)
            assert not handle.done.is_set()
        for worker, conn in zip(workers, real_conns):
            worker.conn = conn
    for handle in handles:
        with pytest.raises(WorkerUnavailable, match="pool closed"):
            handle.result()


def test_pool_answers_every_crash_fault_after_one_death(pool_timer, pool_payload, tiny_records, monkeypatch):
    """With ``worker.crash`` at p=1, each request kills the worker it is
    sent to, is charged for it, and is answered by its clean retry."""
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(), report=report) as pool:
        _warm(pool, tiny_records[0])
        monkeypatch.setenv(FAULT_ENV_VAR, "worker.crash")
        for deaths, record in enumerate(tiny_records[:3], start=1):
            handle = pool.submit(record)
            assert handle.result().signal_slack == pool_timer.predict(record).signal_slack
            assert (handle.attempts, handle.charges) == (2, 1)
            assert report.counters["serve_worker_deaths"] == deaths
    assert report.counters.get("serve_pool_poisoned", 0) == 0


def test_pool_charges_no_death_to_a_bundle_refresh(pool_timer, pool_payload, tiny_records, monkeypatch):
    """A request charged once, then orphaned by a refresh kill, is answered:
    a refresh kill is the pool's doing, not the request's."""
    from repro.core.pipeline import RTLTimer

    record = dataclasses.replace(tiny_records[0], key=None)
    serial = pool_timer.predict(record)
    predict = RTLTimer.predict

    def slow_predict(timer, design, *args, **kwargs):
        time.sleep(1.0)  # long enough for the refresh to kill the worker
        return predict(timer, design, *args, **kwargs)

    # Before the fork, so every worker incarnation is slow.
    monkeypatch.setattr(RTLTimer, "predict", slow_predict)
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1), report=report) as pool:
        monkeypatch.setattr(
            supervisor, "_worker_faults", lambda submit_id: ("worker.crash",)
        )
        handle = pool.submit(record)
        _wait_for(lambda: handle.attempts == 2, message="the charged retry to be sent")
        assert handle.charges == 1 and not handle.done.is_set()
        pool.request_refresh()
        assert handle.done.wait(30.0), "request orphaned by the refresh never answered"
        assert handle.result().signal_slack == serial.signal_slack
        assert (handle.attempts, handle.charges) == (3, 1)
    assert report.counters["serve_worker_refreshes"] == 1
    assert report.counters.get("serve_pool_poisoned", 0) == 0


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
# Worker records: the LRU, then the shared artifact cache, then a build
# ---------------------------------------------------------------------------


def _keyed(record, key):
    """A copy of ``record`` carrying build key ``key``."""
    return dataclasses.replace(record, key=key)


def _record_sources(report):
    """(LRU hits, artifact-cache loads, builds) the workers reported."""
    counters = report.counters
    return (
        counters.get("serve_worker_record_hits", 0),
        counters.get("serve_worker_record_loads", 0),
        counters.get("serve_worker_record_builds", 0),
    )


def _assert_pooled_matches(pool, timer, record):
    # A worker error reply raises from result(), so every call here also
    # asserts zero error replies.
    pooled = pool.submit(record).result()
    serial = timer.predict(record)
    # Everything but the wall-clock runtime is bit-identical.
    assert dataclasses.replace(pooled, runtime_seconds=serial.runtime_seconds) == serial


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """An empty artifact cache, set before the pool forks its workers."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return tmp_path


def test_pool_worker_builds_a_keyed_record_once(pool_timer, pool_payload, tiny_records, cache_dir):
    record = tiny_records[0]
    # A keyed record ships the spec it was built from, not itself.
    assert supervisor._shipped(record) == (record.key, (record.spec, None))
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1), report=report) as pool:
        for _ in range(3):
            _assert_pooled_matches(pool, pool_timer, record)
    assert _record_sources(report) == (2, 0, 1)


def test_pool_worker_lru_evicts_at_capacity(pool_timer, pool_payload, tiny_records, cache_dir):
    capacity = 2
    records = tiny_records[: capacity + 1]
    report = RuntimeReport()
    with WorkerPool(
        lambda: pool_payload,
        _fast_pool_config(workers=1),
        report=report,
        record_cache_entries=capacity,
    ) as pool:
        # capacity + 1 keys cycled through an LRU: each evicts the one that
        # comes next, so the second round loads every record from disk.
        for record in records + records:
            _assert_pooled_matches(pool, pool_timer, record)
        assert _record_sources(report) == (0, len(records), len(records))
        # The two most recent keys are still in the worker's LRU.
        for record in records[-capacity:]:
            _assert_pooled_matches(pool, pool_timer, record)
    assert _record_sources(report) == (capacity, len(records), len(records))


@pytest.mark.parametrize("cache", ["on", "off"])
@pytest.mark.parametrize("restart", ["kill", "refresh"])
def test_pool_worker_reloads_after_restart(
    pool_timer, pool_payload, tiny_records, cache_dir, monkeypatch, restart, cache
):
    """A respawned worker starts with an empty LRU: the record it built
    before comes back from the artifact cache, or is rebuilt without one."""
    if cache == "off":
        monkeypatch.setenv("REPRO_CACHE", "0")
    record = tiny_records[0]
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1), report=report) as pool:
        _assert_pooled_matches(pool, pool_timer, record)
        _assert_pooled_matches(pool, pool_timer, record)
        if restart == "kill":
            pool._workers[0].process.kill()
            _wait_for(
                lambda: report.counters.get("serve_worker_spawns", 0) == 2
                and pool.alive_count() == 1,
                message="killed worker to respawn",
            )
        else:
            pool.request_refresh()
            _wait_for(pool.refresh_complete, message="bundle refresh")
        _assert_pooled_matches(pool, pool_timer, record)
        _assert_pooled_matches(pool, pool_timer, record)
    assert _record_sources(report) == ((2, 1, 1) if cache == "on" else (2, 0, 2))


def test_pool_worker_rebuilds_a_corrupt_cache_entry(
    pool_timer, pool_payload, tiny_records, cache_dir, monkeypatch
):
    """``cache.corrupt_entry`` is drawn in the parent: armed after the worker
    forked, it still corrupts the worker's read, which rebuilds."""
    first, second = tiny_records[:2]
    report = RuntimeReport()
    with WorkerPool(
        lambda: pool_payload,
        _fast_pool_config(workers=1),
        report=report,
        record_cache_entries=1,
    ) as pool:
        _assert_pooled_matches(pool, pool_timer, first)
        _assert_pooled_matches(pool, pool_timer, second)  # evicts the first
        monkeypatch.setenv(FAULT_ENV_VAR, "cache.corrupt_entry")
        _assert_pooled_matches(pool, pool_timer, first)
    assert report.counters.get("cache_corrupt", 0) == 1
    assert _record_sources(report) == (0, 0, 3)


def test_pool_ships_unkeyed_record_every_time(pool_timer, pool_payload, tiny_records):
    records = (
        dataclasses.replace(tiny_records[0], key=None),
        # A key the worker could not rebuild the record under.
        _keyed(tiny_records[0], "key-0"),
    )
    report = RuntimeReport()
    with WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1), report=report) as pool:
        for record in records:
            assert supervisor._shipped(record) == (None, record)
            for _ in range(3):
                _assert_pooled_matches(pool, pool_timer, record)
    assert _record_sources(report) == (0, 0, 0)


def test_pool_worker_lru_survives_concurrent_senders(
    pool_timer, pool_payload, tiny_records, cache_dir
):
    """Many threads, LRUs of one record, more workers than cores: every
    request is answered right, from the LRU, the artifact cache or a build."""
    records = tiny_records[:4]
    serial = {r.key: pool_timer.predict(r).signal_slack for r in records}
    report = RuntimeReport()
    failures = []
    per_thread = 8

    def run(offset):
        try:
            for index in range(per_thread):
                record = records[(offset + index) % len(records)]
                key = record.key
                pooled = pool.submit(record).result()
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
    assert sum(_record_sources(report)) == 6 * per_thread


def test_input_errors_survive_the_worker_pipe():
    """A worker sends an input error back pickled; it must unpickle as itself."""
    import pickle

    from repro.core.dataset import INPUT_ERRORS
    from repro.hdl.lexer import LexerError

    errors = [LexerError("unexpected character '$'", 3, 7)] + [
        cls("bad design") for cls in INPUT_ERRORS[1:]
    ]
    for error in errors:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and str(copy) == str(error)


def test_pool_close_is_idempotent_and_fails_pending(pool_payload):
    pool = WorkerPool(lambda: pool_payload, _fast_pool_config(workers=1))
    pool.close()
    pool.close()
    from repro.serve.resilience import WorkerUnavailable

    with pytest.raises(WorkerUnavailable):
        pool.submit(None).result()


# ---------------------------------------------------------------------------
# PooledTimingService
# ---------------------------------------------------------------------------


def test_pooled_service_bit_identical(pool_timer, tiny_records):
    service = PooledTimingService(
        pool_timer,
        ServeConfig(max_batch=4),
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


def test_pooled_service_runs_one_pass_per_worker_at_once(pool_timer, tiny_records, monkeypatch):
    """Two concurrent requests on a two-worker pool are in the pool together.

    Each pass waits at a two-party barrier before it reaches the pool, so
    both passes must be open at once; a lone batcher would run them one
    after the other and break the barrier on its timeout.
    """
    barrier = threading.Barrier(2, timeout=30)
    execute = PooledTimingService._execute_batch

    def execute_together(service, batch):
        barrier.wait()
        execute(service, batch)

    monkeypatch.setattr(PooledTimingService, "_execute_batch", execute_together)
    service = PooledTimingService(
        pool_timer,
        ServeConfig(max_batch=1),
        pool_config=_fast_pool_config(),
    )
    served = {}
    try:
        threads = [
            threading.Thread(target=lambda r=record: served.update({r.name: service.predict(r)}))
            for record in tiny_records[:2]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        service.close()
    assert not barrier.broken
    assert service.report.counters["serve_batches"] == 2
    for record in tiny_records[:2]:
        assert served[record.name].signal_slack == pool_timer.predict(record).signal_slack


def test_pooled_service_elaborates_source_in_the_worker(pool_timer, simple_source, monkeypatch):
    """A raw-source predict is elaborated by the worker, never in the parent."""
    from repro.core import dataset
    from repro.core.dataset import build_design_record
    from repro.runtime.cache import record_key
    from repro.serve import service as service_mod

    monkeypatch.setenv("REPRO_CACHE", "0")
    serial = pool_timer.predict(build_design_record(simple_source, name="simple"))
    service = PooledTimingService(
        pool_timer,
        ServeConfig(record_cache_entries=3),
        pool_config=_fast_pool_config(workers=1),
    )

    def no_parent_builds(*args, **kwargs):
        raise AssertionError("the parent elaborated a pooled /predict")

    # After the fork, so only the parent's copies raise.
    monkeypatch.setattr(dataset, "build_design_record", no_parent_builds)
    monkeypatch.setattr(service_mod, "build_design_record", no_parent_builds)
    try:
        assert service.pool.record_cache_entries == 3
        design = service.record_for_source(simple_source, name="simple")
        assert design.key == record_key(simple_source, None, "simple")
        for _ in range(3):
            served = service.predict(design)
            assert dataclasses.replace(served, runtime_seconds=serial.runtime_seconds) == serial
    finally:
        service.close()
    assert _record_sources(service.report) == (2, 0, 1)


def test_pooled_service_survives_crash_faults(pool_timer, tiny_records, monkeypatch):
    """Every answer stays correct while workers crash under fault injection."""
    monkeypatch.setenv(FAULT_ENV_VAR, "worker.crash:p=0.3:seed=11")
    service = PooledTimingService(
        pool_timer,
        ServeConfig(max_batch=4),
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
    # The seed draws a crash for some of the 10 requests at p=0.3; each is
    # charged once and answered by its clean retry, never a 503.
    assert counters.get("serve_worker_restarts", 0) > 0
    assert counters.get("serve_pool_poisoned", 0) == 0


@pytest.mark.parametrize("death", ["crash", "hang"])
def test_pooled_service_answers_a_poison_request_503(
    pool_timer, tiny_records, monkeypatch, death
):
    """A request whose design kills every worker that runs it costs two
    workers and gets ``WorkerUnavailable``; it never runs in the server, and
    the requests around it, queued behind it on the same worker, are
    answered bit-identically."""
    from repro.core.pipeline import RTLTimer
    from tests.conftest import hold_first_batch, queued_at_least

    before, poison, *after = tiny_records[:4]
    serial = {r.name: pool_timer.predict(r) for r in (before, *after)}
    predict = RTLTimer.predict

    def poisoned_predict(timer, design, *args, **kwargs):
        if design.name == poison.name:
            if death == "crash":
                os._exit(17)
            time.sleep(3600.0)
        return predict(timer, design, *args, **kwargs)

    # Before the fork, so every worker incarnation inherits the poison.
    monkeypatch.setattr(RTLTimer, "predict", poisoned_predict)
    # One batch of all four requests, in queue order, on the only worker.
    hold_first_batch(monkeypatch, 4)
    service = PooledTimingService(
        pool_timer,
        ServeConfig(max_batch=4),
        pool_config=_fast_pool_config(workers=1, hang_timeout_s=0.5),
    )

    def no_parent_pass(*args, **kwargs):
        raise AssertionError("the server ran a /predict model pass")

    monkeypatch.setattr(service.timer, "predict", no_parent_pass)
    monkeypatch.setattr(service.timer, "predict_batch", no_parent_pass)
    outcomes = {}

    def run(record):
        try:
            outcomes[record.name] = service.predict(record)
        except BaseException as exc:
            outcomes[record.name] = exc

    threads = []
    try:
        for queued, record in enumerate((before, poison, *after)):
            # Each waits for the last to queue; the fourth releases the batch.
            assert queued_at_least(service, queued)
            threads.append(threading.Thread(target=run, args=(record,)))
            threads[-1].start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        service.close()
    assert isinstance(outcomes[poison.name], WorkerUnavailable), outcomes[poison.name]
    for name, prediction in serial.items():
        served = outcomes[name]
        assert dataclasses.replace(served, runtime_seconds=prediction.runtime_seconds) == prediction
    counters = service.report.counters
    assert counters["serve_worker_deaths"] == 2
    assert counters.get("serve_worker_hangs", 0) == (2 if death == "hang" else 0)
    assert counters["serve_pool_poisoned"] == 1

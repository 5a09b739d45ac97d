"""Supervised pre-forked worker pool for the serving runtime.

The ROADMAP's multi-worker front end: every worker is a separate process
that restores one registry bundle (``RTLTimer.from_state`` over verified
payload bytes) and answers predict requests over a duplex pipe.  A
supervisor thread watches a shared heartbeat queue and restarts workers
that

* **crash** — the process died (``os._exit``, OOM-kill, segfault);
* **hang** — the heartbeat keeps arriving (the heartbeat *thread* is
  alive) but its ``busy_since`` timestamp shows the request loop stuck in
  one request longer than ``hang_timeout_s``;
* **go silent** — no heartbeat at all for ``heartbeat_timeout_s``.

Heartbeats also carry the worker's RSS, reported by :meth:`WorkerPool.status`.

Restarts use exponential backoff per slot.  In-flight requests on a dead
worker are retried on a sibling (bounded by ``retry_limit``, respecting the
request's propagated deadline); predicts are idempotent pure functions of
the record, so a retry can never change an answer — only save it.  When no
sibling is alive the request parks and is flushed to the first worker that
comes back, which is what makes "zero lost accepted requests" hold through
a restart storm.

:class:`~repro.serve.service.PooledTimingService` plugs the pool into the
:class:`~repro.serve.service.TimingService` front end: admission,
micro-batch queueing, deadlines and per-request error isolation stay in
the parent; batch execution fans out over the pool, falling back to the
parent's own timer (bit-identical, counted) if the pool is momentarily
empty.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing as mp
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults import fault_fires
from repro.runtime.report import RuntimeReport
from repro.serve.resilience import (
    Deadline,
    DeadlineExceeded,
    WorkerUnavailable,
    remaining_or_none,
)
from repro.settings import configure, knob_field

log = logging.getLogger("repro.serve")


@dataclass(frozen=True)
class PoolConfig:
    """Supervision knobs of one :class:`WorkerPool`.

    ``repro.settings.configure(PoolConfig)`` fills the knob-bound fields
    from the ``REPRO_SERVE_*`` environment.
    """

    workers: int = 2
    #: Seconds between worker heartbeats.
    heartbeat_interval_s: float = knob_field("REPRO_SERVE_HEARTBEAT_S")
    #: Seconds without any heartbeat before a worker is declared dead.
    heartbeat_timeout_s: float = knob_field("REPRO_SERVE_HEARTBEAT_TIMEOUT_S")
    #: Seconds a worker may stay inside one request before it counts as hung.
    hang_timeout_s: float = knob_field("REPRO_SERVE_HANG_TIMEOUT_S")
    #: Base and upper bound of the exponential restart backoff, seconds.
    backoff_base_s: float = knob_field("REPRO_SERVE_BACKOFF_S")
    backoff_max_s: float = knob_field("REPRO_SERVE_BACKOFF_MAX_S")
    #: How many times one request may be retried on a sibling worker.
    retry_limit: int = knob_field("REPRO_SERVE_RETRIES")


def _rss_mb() -> float:
    """Resident set size of this process in MiB (Linux; 0.0 if unknown)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)
    except (OSError, ValueError, IndexError):
        try:
            import resource

            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except Exception:
            return 0.0


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _cache_record(
    records: "OrderedDict[str, Any]", capacity: int, key: str, record: Any
) -> None:
    """One LRU step on a record cache: store/refresh ``key``, evict the oldest.

    The worker runs it on its record cache and the parent on its mirror of
    that cache (which stores ``None``), so both hold the same keys in the
    same order.
    """
    records[key] = record
    records.move_to_end(key)
    while len(records) > capacity:
        records.popitem(last=False)


def _worker_main(
    slot: int, conn, payload: bytes, config: PoolConfig, record_capacity: int
) -> None:
    """Entry point of one pool worker process.

    Heartbeats travel over the same per-worker duplex pipe as results —
    deliberately *not* over a shared ``mp.Queue``: a worker killed mid-put
    (SIGKILL, ``os._exit`` chaos) would leave the queue's cross-process
    write lock held forever, silencing every sibling's heartbeats at once.
    A broken pipe only ever takes down its own worker.
    """
    from repro.core.pipeline import RTLTimer
    from repro.runtime.cache import gc_paused

    with gc_paused():
        timer = RTLTimer.from_state(pickle.loads(payload))

    # busy[0] is the wall-clock start of the request currently being
    # served, or 0.0 when idle; the heartbeat thread snapshots it so the
    # supervisor can tell a hung request loop from a healthy idle worker.
    busy = [0.0]
    stop = threading.Event()
    send_lock = threading.Lock()
    records: "OrderedDict[str, Any]" = OrderedDict()

    def send(message) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except (OSError, ValueError):
            return False

    def heartbeat() -> None:
        while not stop.is_set():
            if not send(("hb", 0, (time.time(), _rss_mb(), busy[0]))):
                return  # pipe torn down: the parent is gone
            stop.wait(config.heartbeat_interval_s)

    threading.Thread(target=heartbeat, name=f"worker-{slot}-heartbeat", daemon=True).start()

    try:
        while True:
            try:
                kind, request_id, data = conn.recv()
            except (EOFError, OSError):
                break
            if kind == "shutdown":
                break
            busy[0] = time.time()
            try:
                if kind != "predict":
                    send(("error", request_id, f"unknown request kind {kind!r}"))
                    continue
                key, record, expires_at = data
                # The record cache step comes first, the same step the parent
                # took on its mirror for this send, so the two stay in sync
                # whatever happens to the request afterwards.  A key the
                # cache does not hold is a bug: it raises into the error
                # reply below.
                if key is not None:
                    if record is None:
                        record = records[key]
                    _cache_record(records, record_capacity, key, record)
                # Chaos hooks fire before any work, exactly like a crash
                # between accept and compute would in production.  Draws are
                # keyed by the pool-wide request id: unique per dispatch, so
                # a retried request redraws (a fresh worker's per-process
                # counter would replay the same first draw on every spawn,
                # turning one unlucky seed into a deterministic crash loop).
                token = str(request_id)
                if fault_fires("worker.crash", token):
                    os._exit(43)
                if fault_fires("worker.hang", token):
                    time.sleep(3600.0)
                if fault_fires("worker.slow_io", token):
                    time.sleep(0.05)
                if expires_at is not None and time.time() >= expires_at:
                    send(("deadline", request_id, None))
                    continue
                send(("ok", request_id, timer.predict(record)))
            except SystemExit:
                raise
            except BaseException as exc:
                if not send(("error", request_id, f"{type(exc).__name__}: {exc}")):
                    break
            finally:
                busy[0] = 0.0
    finally:
        stop.set()


# ---------------------------------------------------------------------------
# Parent-side plumbing
# ---------------------------------------------------------------------------


class PoolRequestHandle:
    """Parent-side completion handle for one pool request."""

    def __init__(
        self,
        kind: str,
        data: Tuple,
        deadline: Optional[Deadline],
        content_key: Optional[str] = None,
    ):
        self.kind = kind
        self.data = data
        self.deadline = deadline
        #: Build key of ``data[0]``: the pin and the worker record-cache key,
        #: kept here so retries and parked flushes keep both.
        self.content_key = content_key
        self.attempts = 0
        self.done = threading.Event()
        self.result_value: Any = None
        self.error: Optional[BaseException] = None

    def _resolve(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        if self.done.is_set():
            return
        self.result_value = value
        self.error = error
        self.done.set()

    def result(self) -> Any:
        """Block for the outcome (bounded by the request deadline)."""
        if not self.done.wait(remaining_or_none(self.deadline)):
            raise DeadlineExceeded("pool request deadline expired")
        if self.error is not None:
            raise self.error
        return self.result_value


class _Worker:
    """Parent-side state of one pool slot."""

    def __init__(self, slot: int):
        self.slot = slot
        self.process: Optional[mp.process.BaseProcess] = None
        self.conn = None
        self.send_lock = threading.Lock()
        self.alive = False
        self.last_heartbeat = 0.0
        self.busy_since = 0.0
        self.rss_mb = 0.0
        self.restarts = 0
        self.started_at = 0.0
        #: Payload generation this incarnation was spawned with; a worker
        #: whose generation trails the pool's is rolled onto the new bundle.
        self.generation = 0
        self.pending: Dict[int, PoolRequestHandle] = {}
        #: Mirror of the worker's record LRU (keys only).  Touched under
        #: ``send_lock`` in pipe order and reset together with ``conn``.
        self.records: "OrderedDict[str, None]" = OrderedDict()


class WorkerPool:
    """Supervised pool of model-serving worker processes."""

    def __init__(
        self,
        payload_provider: Callable[[], bytes],
        config: Optional[PoolConfig] = None,
        report: Optional[RuntimeReport] = None,
        record_cache_entries: int = 64,
    ):
        self.config = config or configure(PoolConfig)
        self.report = report if report is not None else RuntimeReport()
        #: Capacity of each worker's record LRU (and of its parent mirror).
        self.record_cache_entries = max(record_cache_entries, 1)
        self._payload_provider = payload_provider
        self._payload = payload_provider()  # fail fast on a broken registry
        self._ctx = (
            mp.get_context("fork")
            if "fork" in mp.get_all_start_methods()
            else mp.get_context()
        )
        self._lock = threading.RLock()
        self._closed = False
        self._request_ids = itertools.count(1)
        self._route_counter = itertools.count()
        self._parked: List[PoolRequestHandle] = []
        #: Bumped by :meth:`request_refresh`; workers on an older generation
        #: are rolled (one at a time) onto the current payload.
        self._generation = 0
        self._workers = [_Worker(slot) for slot in range(max(self.config.workers, 1))]
        for worker in self._workers:
            self._spawn(worker)
        self._supervisor = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            with worker.send_lock:
                if worker.conn is not None:
                    try:
                        worker.conn.send(("shutdown", 0, None))
                    except (OSError, ValueError):
                        pass
        deadline = time.monotonic() + 5.0
        for worker in workers:
            process = worker.process
            if process is None:
                continue
            process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._supervisor.join(timeout=5.0)
        with self._lock:
            leftovers = [
                handle
                for worker in self._workers
                for handle in worker.pending.values()
            ] + self._parked
            for worker in self._workers:
                worker.pending.clear()
            self._parked.clear()
        for handle in leftovers:
            handle._resolve(error=WorkerUnavailable("worker pool closed"))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        kind: str,
        *data: Any,
        deadline: Optional[Deadline] = None,
        content_key: Optional[str] = None,
    ) -> PoolRequestHandle:
        """Dispatch one request to a worker; returns a completion handle.

        ``content_key`` is the build key of the record ``data[0]`` (equal
        keys must mean equal records).  It pins the request to one (alive)
        worker, which caches the record under that key, so a repeated
        request ships the key instead of the record.  Without a key the
        record ships whole and requests round-robin.
        """
        handle = PoolRequestHandle(kind, tuple(data), deadline, content_key)
        if not self._dispatch(handle):
            with self._lock:
                if self._closed:
                    handle._resolve(error=WorkerUnavailable("worker pool closed"))
                else:
                    # Nobody alive right now: park until a restart flushes us.
                    self._parked.append(handle)
                    self.report.incr("serve_pool_parked")
        return handle

    def _dispatch(self, handle: PoolRequestHandle) -> bool:
        key = handle.content_key
        with self._lock:
            if self._closed:
                return False
            alive = [worker for worker in self._workers if worker.alive]
            if not alive:
                return False
            if key is not None:
                worker = alive[hash(key) % len(alive)]
            else:
                worker = alive[next(self._route_counter) % len(alive)]
            request_id = next(self._request_ids)
            worker.pending[request_id] = handle
        handle.attempts += 1
        expires_at = handle.deadline.expires_at if handle.deadline is not None else None
        record = handle.data[0]
        try:
            with worker.send_lock:
                # The mirror is read and stepped under the same lock as the
                # send, so it sees exactly the pipe order the worker sees.
                # It is stepped only after a send that went through: a
                # failed send takes the slot down and its respawn starts
                # both caches empty.
                hit = key is not None and key in worker.records
                data = (key, None if hit else record, expires_at)
                worker.conn.send((handle.kind, request_id, data))
                if key is not None:
                    _cache_record(worker.records, self.record_cache_entries, key, None)
        # A concurrently restarted slot can close the pipe between the alive
        # check and the send; a closed Connection surfaces as TypeError (its
        # handle is None) and a conn replaced mid-flight as AttributeError.
        except (OSError, ValueError, TypeError, AttributeError):
            with self._lock:
                worker.pending.pop(request_id, None)
            self._mark_dead(worker, reason="send failed")
            return self._dispatch(handle)
        self.report.incr("serve_pool_record_hits" if hit else "serve_pool_record_sends")
        return True

    # -- worker lifecycle --------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker.slot, child_conn, self._payload, self.config,
                self.record_cache_entries,
            ),
            name=f"timing-worker-{worker.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        now = time.time()
        # A new pipe means a new, empty worker cache: swap conn and mirror
        # together under send_lock, so no racing sender can pair the fresh
        # pipe with the old incarnation's mirror.
        with self._lock, worker.send_lock:
            worker.process = process
            worker.conn = parent_conn
            worker.records = OrderedDict()
            worker.alive = True
            worker.last_heartbeat = now  # grace until the first real beat
            worker.busy_since = 0.0
            worker.rss_mb = 0.0
            worker.started_at = now
            worker.generation = self._generation
        threading.Thread(
            target=self._receive_loop,
            args=(worker, parent_conn, process),
            name=f"pool-recv-{worker.slot}",
            daemon=True,
        ).start()
        self.report.incr("serve_worker_spawns")
        self._flush_parked()

    def _receive_loop(self, worker: _Worker, conn, process) -> None:
        while True:
            try:
                status, request_id, value = conn.recv()
            except (EOFError, OSError):
                break
            if status == "hb":
                # Heartbeats ride the result pipe; a beat from a previous
                # incarnation of the slot cannot arrive here because each
                # incarnation has its own pipe.
                if worker.process is process:
                    beat_at, rss_mb, busy_since = value
                    worker.last_heartbeat = max(worker.last_heartbeat, beat_at)
                    worker.rss_mb = rss_mb
                    worker.busy_since = busy_since
                continue
            with self._lock:
                handle = worker.pending.pop(request_id, None)
            if handle is None:
                continue  # abandoned (deadline) or requeued already
            if status == "ok":
                handle._resolve(value=value)
            elif status == "deadline":
                handle._resolve(error=DeadlineExceeded("deadline expired in worker"))
            else:
                handle._resolve(error=RuntimeError(f"worker error: {value}"))
        # Only the incarnation that owns this pipe may declare the slot dead.
        if worker.process is process:
            self._mark_dead(worker, reason="pipe closed")

    def _mark_dead(self, worker: _Worker, reason: str) -> None:
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            closing = self._closed
            orphans = list(worker.pending.values())
            worker.pending.clear()
        if closing:
            # Expected pipe EOF of a worker we just told to shut down — not
            # a death.  Anything still pending cannot complete anymore.
            for handle in orphans:
                handle._resolve(error=WorkerUnavailable("worker pool closed"))
            return
        log.warning("worker %d down (%s); %d in-flight", worker.slot, reason, len(orphans))
        self.report.incr("serve_worker_deaths")
        for handle in orphans:
            self._retry(handle)

    def _retry(self, handle: PoolRequestHandle) -> None:
        if handle.done.is_set():
            return
        if handle.deadline is not None and handle.deadline.expired:
            handle._resolve(error=DeadlineExceeded("deadline expired during retry"))
            return
        if handle.attempts > self.config.retry_limit:
            handle._resolve(
                error=WorkerUnavailable(
                    f"request failed on {handle.attempts} workers (retry budget spent)"
                )
            )
            return
        self.report.incr("serve_request_retries")
        if not self._dispatch(handle):
            with self._lock:
                if self._closed:
                    handle._resolve(error=WorkerUnavailable("worker pool closed"))
                    return
                self._parked.append(handle)
                self.report.incr("serve_pool_parked")

    # -- bundle refresh (promotion hot swap) --------------------------------------

    def request_refresh(self, payload_provider: Optional[Callable[[], bytes]] = None) -> int:
        """Roll every worker onto a freshly provided payload; returns the generation.

        The supervisor restarts stale-generation workers **one slot at a
        time** (each respawn completes before the next slot is touched), so
        siblings keep serving throughout and any request in flight on a
        rolling slot is retried on a sibling by the normal death machinery —
        a promotion swaps bundles with zero dropped in-flight requests.
        ``payload_provider`` replaces the pool's provider (e.g. after a
        promotion changed what ``name@promoted`` resolves to); omitting it
        re-reads the existing provider, which is the right thing when the
        provider itself re-resolves a registry reference.
        """
        with self._lock:
            if payload_provider is not None:
                self._payload_provider = payload_provider
            self._generation += 1
            generation = self._generation
        self.report.incr("serve_pool_refreshes")
        return generation

    def refresh_complete(self) -> bool:
        """Whether every worker is alive on the current payload generation."""
        with self._lock:
            return all(
                worker.alive and worker.generation == self._generation
                for worker in self._workers
            )

    def _flush_parked(self) -> None:
        with self._lock:
            parked, self._parked = self._parked, []
        for handle in parked:
            if handle.deadline is not None and handle.deadline.expired:
                handle._resolve(error=DeadlineExceeded("deadline expired while parked"))
            elif not self._dispatch(handle):
                with self._lock:
                    self._parked.append(handle)

    def _restart(self, worker: _Worker, reason: str) -> None:
        self._mark_dead(worker, reason=reason)
        process = worker.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        with worker.send_lock:  # never close the pipe under a sender's feet
            try:
                worker.conn.close()
            except (OSError, AttributeError):
                pass
        # A slot that stayed up well past the heartbeat window earns its
        # backoff back: only rapid crash loops pay exponentially.
        if time.time() - worker.started_at > max(self.config.heartbeat_timeout_s, 5.0):
            worker.restarts = 0
        backoff = min(
            self.config.backoff_base_s * (2.0 ** worker.restarts),
            self.config.backoff_max_s,
        )
        worker.restarts += 1
        self.report.incr("serve_worker_restarts")
        log.warning("restarting worker %d in %.3fs (%s)", worker.slot, backoff, reason)
        time.sleep(backoff)
        if self._closed:
            return
        # Prefer a fresh registry read (picks up repaired bundles); fall back
        # to the cached in-memory payload when the registry itself is the
        # failing dependency.
        try:
            self._payload = self._payload_provider()
        except Exception:
            self.report.incr("serve_registry_fallbacks")
            log.warning("registry payload unreadable; respawning on the cached payload")
        self._spawn(worker)

    def _supervise(self) -> None:
        check_every = max(self.config.heartbeat_interval_s / 2.0, 0.01)
        while not self._closed:
            time.sleep(check_every)
            now = time.time()
            for worker in self._workers:
                if self._closed:
                    break
                process = worker.process
                if not worker.alive:
                    # The receiver saw the pipe close (crash, send failure):
                    # the supervisor owns the respawn.
                    self._restart(worker, reason="worker died")
                elif process is not None and not process.is_alive():
                    self._restart(worker, reason=f"exited with {process.exitcode}")
                elif now - worker.last_heartbeat > self.config.heartbeat_timeout_s:
                    self._restart(worker, reason="missed heartbeats")
                elif (
                    worker.busy_since > 0.0
                    and now - worker.busy_since > self.config.hang_timeout_s
                ):
                    self._restart(worker, reason="request hung")
                elif worker.generation != self._generation:
                    # Promotion hot swap: roll this slot onto the current
                    # payload.  _restart respawns synchronously, so only one
                    # slot is ever down for a refresh at a time.
                    self.report.incr("serve_worker_refreshes")
                    self._restart(worker, reason="bundle refresh")

    # -- introspection -----------------------------------------------------------

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for worker in self._workers if worker.alive)

    def status(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {
                    "slot": worker.slot,
                    "alive": worker.alive,
                    "pid": worker.process.pid if worker.process else None,
                    "restarts": worker.restarts,
                    "rss_mb": round(worker.rss_mb, 1),
                    "pending": len(worker.pending),
                    "generation": worker.generation,
                }
                for worker in self._workers
            ]

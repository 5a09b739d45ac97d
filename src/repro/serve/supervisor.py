"""Supervised pre-forked worker pool for the serving runtime.

The ROADMAP's multi-worker front end: every worker is a separate process
that restores one registry bundle (``RTLTimer.from_state`` over verified
payload bytes) and answers predict requests over its own duplex pipe.  A
worker's health is judged only in the parent, by one rule with two halves:

* **dead** — its pipe reports EOF (``os._exit``, OOM-kill, segfault) or a
  send to it fails;
* **hung** — it has pending requests and has sent no reply for
  ``hang_timeout_s`` on the parent's clock.  A queue that keeps getting
  replies is never hung, however long it is.

A supervisor thread kills a hung worker and respawns every dead one with
exponential backoff per slot.  It never writes to a worker pipe: in-flight
requests of a dead worker are retried on a sibling (bounded by
``retry_limit``, respecting the request's propagated deadline) from a
short-lived thread of their own, so a retry blocked on a hung sibling's
full pipe cannot stop the supervisor from detecting that hang.  Predicts
are idempotent pure functions of the record, so a retry can never change
an answer — only save it.  When no sibling is alive the request parks and
is flushed to the first worker that comes back, which is what makes "zero
lost accepted requests" hold through a restart storm.

:class:`~repro.serve.service.PooledTimingService` plugs the pool into the
:class:`~repro.serve.service.TimingService` front end: admission,
batch queueing, deadlines and per-request error isolation stay in
the parent; batch execution fans out over the pool.  A request whose retry
budget is spent is answered by the parent's own timer (bit-identical,
counted); a parked request waits for a worker.
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
    #: Seconds a worker with pending requests may go without replying
    #: before it counts as hung.
    hang_timeout_s: float = knob_field("REPRO_SERVE_HANG_TIMEOUT_S")
    #: Base and upper bound of the exponential restart backoff, seconds.
    backoff_base_s: float = knob_field("REPRO_SERVE_BACKOFF_S")
    backoff_max_s: float = knob_field("REPRO_SERVE_BACKOFF_MAX_S")
    #: How many times one request may be retried on a sibling worker.
    retry_limit: int = knob_field("REPRO_SERVE_RETRIES")


#: Seconds between the supervisor's checks of every slot.
_SUPERVISE_POLL_S = 0.05

#: Uptime after which a slot's restart backoff starts over: only rapid
#: crash loops pay exponentially.
_STABLE_UPTIME_S = 5.0


def _rss_mb(pid: int) -> float:
    """Resident set size of process ``pid`` in MiB (0.0 without ``/proc``)."""
    try:
        with open(f"/proc/{pid}/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


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


#: Fault points that act inside a pool worker (see :mod:`repro.faults`).
_WORKER_FAULTS = ("worker.crash", "worker.hang", "worker.slow_io")


def _worker_faults(request_id: int) -> Tuple[str, ...]:
    """The worker fault points that fire for one dispatch, drawn in the parent.

    Drawn against the parent's ``REPRO_FAULT_INJECT``, so arming or clearing
    faults reaches every worker at once, whatever environment it was forked
    with.  Keyed by the pool-wide request id, so a retry redraws.
    """
    token = str(request_id)
    return tuple(name for name in _WORKER_FAULTS if fault_fires(name, token))


def _worker_main(conn, payload: bytes, record_capacity: int) -> None:
    """Entry point of one pool worker process: answer requests until EOF.

    The worker sends nothing but replies.  The parent learns of its death
    from the pipe's EOF and of a hang from the replies that stop coming.
    """
    from repro.core.pipeline import RTLTimer
    from repro.runtime.cache import gc_paused

    with gc_paused():
        timer = RTLTimer.from_state(pickle.loads(payload))
    records: "OrderedDict[str, Any]" = OrderedDict()

    def send(message) -> bool:
        try:
            conn.send(message)
            return True
        except (OSError, ValueError):
            return False

    while True:
        try:
            kind, request_id, data = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if kind != "predict":
                send(("error", request_id, f"unknown request kind {kind!r}"))
                continue
            key, record, expires_at, faults = data
            # The record cache step comes first, the same step the parent
            # took on its mirror for this send, so the two stay in sync
            # whatever happens to the request afterwards.  A key the cache
            # does not hold is a bug: it raises into the error reply below.
            if key is not None:
                if record is None:
                    record = records[key]
                _cache_record(records, record_capacity, key, record)
            # Chaos hooks (drawn by the parent, see _worker_faults) fire
            # before any work, exactly like a crash between accept and
            # compute would in production.
            if "worker.crash" in faults:
                os._exit(43)
            if "worker.hang" in faults:
                time.sleep(3600.0)
            if "worker.slow_io" in faults:
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
        #: Parent-clock (monotonic) time of this slot's last sign of
        #: progress: its spawn, its last reply, or a dispatch that found it
        #: idle.  A slot with pending requests and a stale stamp is hung.
        self.progress_at = 0.0
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
        """Stop the supervisor and the workers; fail whatever is still pending.

        The workers are terminated rather than asked to stop over their
        pipes, so a hung worker with a full pipe cannot hold up the close.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        self._supervisor.join(timeout=5.0)
        for worker in workers:
            process = worker.process
            if process is None:
                continue
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
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
        self._dispatch(handle)
        return handle

    def _dispatch(self, handle: PoolRequestHandle) -> None:
        """Send ``handle`` to an alive worker, or park it if none is alive."""
        key = handle.content_key
        with self._lock:
            if self._closed:
                handle._resolve(error=WorkerUnavailable("worker pool closed"))
                return
            alive = [worker for worker in self._workers if worker.alive]
            if not alive:
                # Parked under the same lock a spawn marks its slot alive
                # under, so a parked request always sees the next flush.
                self._parked.append(handle)
                self.report.incr("serve_pool_parked")
                return
            if key is not None:
                worker = alive[hash(key) % len(alive)]
            else:
                worker = alive[next(self._route_counter) % len(alive)]
            request_id = next(self._request_ids)
            if not worker.pending:
                worker.progress_at = time.monotonic()
            worker.pending[request_id] = handle
        # An attempt is charged before the send, so a death that retries the
        # request counts it, but only to a worker whose process had not
        # exited, and a failed send refunds it: a request never pays for a
        # death that came before it was sent.
        charge = int(worker.process.exitcode is None)
        handle.attempts += charge
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
                data = (key, None if hit else record, expires_at, _worker_faults(request_id))
                worker.conn.send((handle.kind, request_id, data))
                if key is not None:
                    _cache_record(worker.records, self.record_cache_entries, key, None)
        # A concurrently restarted slot can close the pipe between the alive
        # check and the send; a closed Connection surfaces as TypeError (its
        # handle is None) and a conn replaced mid-flight as AttributeError.
        except (OSError, ValueError, TypeError, AttributeError):
            handle.attempts -= charge
            with self._lock:
                owned = worker.pending.pop(request_id, None) is handle
            self._mark_dead(worker, reason="send failed")
            if owned:  # else the death that broke the send retries it
                self._dispatch(handle)
            return
        self.report.incr("serve_pool_record_hits" if hit else "serve_pool_record_sends")

    # -- worker lifecycle --------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._payload, self.record_cache_entries),
            name=f"timing-worker-{worker.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        now = time.monotonic()
        # A new pipe means a new, empty worker cache: swap conn and mirror
        # together under send_lock, so no racing sender can pair the fresh
        # pipe with the old incarnation's mirror.
        with self._lock, worker.send_lock:
            worker.process = process
            worker.conn = parent_conn
            worker.records = OrderedDict()
            worker.alive = True
            worker.progress_at = now
            worker.started_at = now
            worker.generation = self._generation
            parked = bool(self._parked)
        threading.Thread(
            target=self._receive_loop,
            args=(worker, parent_conn, process),
            name=f"pool-recv-{worker.slot}",
            daemon=True,
        ).start()
        self.report.incr("serve_worker_spawns")
        if parked:
            # Off the supervisor's thread, like every send (see _mark_dead).
            threading.Thread(target=self._flush_parked, name="pool-flush", daemon=True).start()

    def _receive_loop(self, worker: _Worker, conn, process) -> None:
        while True:
            try:
                status, request_id, value = conn.recv()
            except (EOFError, OSError):
                break
            with self._lock:
                worker.progress_at = time.monotonic()
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
            # Expected pipe EOF of a worker we just stopped — not a death.
            # Anything still pending cannot complete anymore.
            for handle in orphans:
                handle._resolve(error=WorkerUnavailable("worker pool closed"))
            return
        log.warning("worker %d down (%s); %d in-flight", worker.slot, reason, len(orphans))
        self.report.incr("serve_worker_deaths")
        if orphans:
            # The retries send, and a send can block on a hung sibling's full
            # pipe; on their own thread they cannot stall the caller (the
            # supervisor, from _restart) that must detect that hang.
            threading.Thread(
                target=self._retry_all, args=(orphans,), name="pool-retry", daemon=True
            ).start()

    def _retry_all(self, handles: List[PoolRequestHandle]) -> None:
        for handle in handles:
            if handle.done.is_set():
                continue
            if handle.deadline is not None and handle.deadline.expired:
                handle._resolve(error=DeadlineExceeded("deadline expired during retry"))
            elif handle.attempts > self.config.retry_limit:
                handle._resolve(
                    error=WorkerUnavailable(
                        f"request failed on {handle.attempts} workers (retry budget spent)"
                    )
                )
            else:
                self.report.incr("serve_request_retries")
                self._dispatch(handle)

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
            else:
                self._dispatch(handle)

    def _restart(self, worker: _Worker, reason: str) -> None:
        self._mark_dead(worker, reason=reason)
        process = worker.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        # The process is gone, so a sender blocked on its pipe has failed
        # out and released the lock; never close the pipe under a sender.
        with worker.send_lock:
            try:
                worker.conn.close()
            except (OSError, AttributeError):
                pass
        if time.monotonic() - worker.started_at > _STABLE_UPTIME_S:
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
        while not self._closed:
            time.sleep(_SUPERVISE_POLL_S)
            for worker in self._workers:
                if self._closed:
                    break
                if not worker.alive:
                    # The receiver saw the pipe close, or a send failed.
                    self._restart(worker, reason="worker died")
                elif (
                    # pending is read first: a dispatch stamps progress_at
                    # before it makes pending non-empty.
                    worker.pending
                    and time.monotonic() - worker.progress_at > self.config.hang_timeout_s
                ):
                    self.report.incr("serve_worker_hangs")
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
                    "rss_mb": round(_rss_mb(worker.process.pid), 1) if worker.process else 0.0,
                    "pending": len(worker.pending),
                    "generation": worker.generation,
                }
                for worker in self._workers
            ]

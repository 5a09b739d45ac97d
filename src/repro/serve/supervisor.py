"""Supervised pre-forked worker pool for the serving runtime.

The ROADMAP's multi-worker front end: every worker is a separate process
that restores one registry bundle (``RTLTimer.from_state`` over verified
payload bytes) and answers predict requests over its own duplex pipe.  A
request names its design by build key plus the spec or source it was built
from; the worker takes the record from its own LRU, the shared artifact
cache or a build, so elaboration runs where the prediction does.  A
worker's health is judged only in the parent, by one rule with two halves:

* **dead** — its pipe reports EOF (``os._exit``, OOM-kill, segfault).  A
  send that fails parks its own request until that slot respawns: the
  worker's receiver declares the death once it has read every reply sent
  before it;
* **hung** — it has pending requests and has sent no reply for
  ``hang_timeout_s`` on the parent's clock.  A queue that keeps getting
  replies is never hung, however long it is.

A supervisor thread kills a hung worker and respawns every dead one with
exponential backoff per slot.  It never writes to a worker pipe: a dead
worker's in-flight requests are retried from a thread of their own, so a
retry blocked on a hung sibling's full pipe cannot hide that hang from it.
A death is charged only to the worker's *head*, its oldest pending request
in pipe order and so the one it was running.  A request charged twice
resolves :class:`WorkerUnavailable` (``serve_pool_poisoned``): a source
that kills every worker running it costs two workers and a 503, never the
server.  Other orphans, and those of a bundle-refresh kill, retry
uncharged; a predict is a pure function of its design, so a retry never
changes an answer.  While no worker is alive requests park until one comes
back, which is what makes "zero lost accepted requests" hold through a
restart storm.

:class:`~repro.serve.service.PooledTimingService` plugs the pool into the
:class:`~repro.serve.service.TimingService` front end: admission,
batch queueing, deadlines and per-request error isolation stay in
the parent; every ``/predict`` model pass runs in a worker.
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
from repro.runtime import report as report_mod
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


#: Fault points that act inside a pool worker (see :mod:`repro.faults`);
#: ``cache.corrupt_entry`` corrupts the worker's artifact-cache read.
_WORKER_FAULTS = ("worker.crash", "worker.hang", "worker.slow_io", "cache.corrupt_entry")


def _worker_faults(submit_id: int) -> Tuple[str, ...]:
    """The worker fault points that fire for one request, drawn in the parent.

    Drawn once, at submit, against the parent's ``REPRO_FAULT_INJECT``, so
    arming or clearing faults reaches every worker at once, whatever
    environment it was forked with.  Keyed by the request's submit count
    (1, 2, ...); a request sheds them once a death is charged to it.
    """
    token = str(submit_id)
    return tuple(name for name in _WORKER_FAULTS if fault_fires(name, token))


def _shipped(design: Any) -> Tuple[Optional[str], Any]:
    """What one predict ships for ``design``: ``(key, (spec_or_source, name))``
    when a worker can rebuild it under its build key, else ``(None, design)``."""
    build_args = getattr(design, "build_args", None)
    args = build_args() if build_args is not None else None
    return (None, design) if args is None else (design.key, args)


def _worker_record(records, capacity: int, artifacts, key, shipped, corrupt: bool):
    """The record one request names: ``shipped`` itself when ``key`` is None,
    else the worker's LRU entry, the shared artifact cache's, or a build."""
    from repro.core.dataset import build_design_record

    if key is None:
        return shipped
    record = records.pop(key, None)
    if record is not None:
        report_mod.incr("serve_worker_record_hits")
    else:
        record = artifacts.get(key, corrupt=corrupt)
        if record is not None:
            report_mod.incr("serve_worker_record_loads")
        else:
            spec_or_source, name = shipped
            record = build_design_record(spec_or_source, name=name)
            artifacts.put(key, record)
            report_mod.incr("serve_worker_record_builds")
    records[key] = record
    while len(records) > capacity:
        records.popitem(last=False)
    return record


def _worker_main(conn, payload: bytes, record_capacity: int) -> None:
    """Entry point of one pool worker process: answer requests until EOF.

    The worker sends nothing but replies, each with the counters its record
    lookup moved.  The parent learns of its death from the pipe's EOF and of
    a hang from the replies that stop coming.
    """
    from repro.core.dataset import INPUT_ERRORS
    from repro.core.pipeline import RTLTimer
    from repro.runtime.cache import ArtifactCache, gc_paused

    with gc_paused():
        timer = RTLTimer.from_state(pickle.loads(payload))
    records: "OrderedDict[str, Any]" = OrderedDict()
    artifacts = ArtifactCache()

    def send(message) -> bool:
        try:
            conn.send(message)
            return True
        except (OSError, ValueError):
            return False

    while True:
        try:
            request_id, key, shipped, expires_at, faults = conn.recv()
        except (EOFError, OSError):
            break
        counters = RuntimeReport()
        try:
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
                send(("deadline", request_id, None, {}))
                continue
            with report_mod.activate(counters):
                record = _worker_record(
                    records, record_capacity, artifacts, key, shipped,
                    "cache.corrupt_entry" in faults,
                )
            send(("ok", request_id, timer.predict(record), counters.counters))
        except SystemExit:
            raise
        except INPUT_ERRORS as exc:
            # The request's RTL is at fault: the error goes back as itself,
            # to be answered as the in-process server would, never retried.
            if not send(("input_error", request_id, exc, counters.counters)):
                break
        except BaseException as exc:
            message = f"{type(exc).__name__}: {exc}"
            if not send(("error", request_id, message, counters.counters)):
                break


# ---------------------------------------------------------------------------
# Parent-side plumbing
# ---------------------------------------------------------------------------


class PoolRequestHandle:
    """Parent-side completion handle for one pool request."""

    def __init__(self, data: Tuple, deadline: Optional[Deadline], faults: Tuple[str, ...]):
        #: ``(key, what ships)`` from :func:`_shipped`; the key pins the request.
        self.data = data
        self.deadline = deadline
        #: Chaos faults drawn for this request (see :func:`_worker_faults`).
        self.faults = faults
        #: Sends that reached a worker's pipe.
        self.attempts = 0
        #: Worker deaths charged to this request: it was their head.
        self.charges = 0
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
        #: In-flight requests by request id, in pipe order: the first is the
        #: one the worker is running.
        self.pending: Dict[int, PoolRequestHandle] = {}


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
        #: Capacity of each worker's record LRU.
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
        self._submit_ids = itertools.count(1)
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

    def submit(self, design: Any, *, deadline: Optional[Deadline] = None) -> PoolRequestHandle:
        """Dispatch one predict of ``design`` to a worker; returns a completion handle.

        A design with a build key ships the spec or source it was built
        from, pinned by that key to one (alive) worker, which takes the
        record from its LRU, the shared artifact cache or a build; any other
        ships whole and round-robins.
        """
        faults = _worker_faults(next(self._submit_ids))
        handle = PoolRequestHandle(_shipped(design), deadline, faults)
        self._dispatch(handle)
        return handle

    def _park(self, handle: PoolRequestHandle) -> None:
        """Hold ``handle`` for the next spawn's flush; call under ``self._lock``,
        the lock a spawn marks its slot alive under, so it sees that flush."""
        if self._closed:
            handle._resolve(error=WorkerUnavailable("worker pool closed"))
            return
        self._parked.append(handle)
        self.report.incr("serve_pool_parked")

    def _dispatch(self, handle: PoolRequestHandle) -> None:
        """Send ``handle`` to an alive worker, or park it if none is alive."""
        key = handle.data[0]
        with self._lock:
            alive = [worker for worker in self._workers if worker.alive]
            if self._closed or not alive:
                self._park(handle)
                return
            if key is not None:
                worker = alive[hash(key) % len(alive)]
            else:
                worker = alive[next(self._route_counter) % len(alive)]
        request_id = next(self._request_ids)
        expires_at = handle.deadline.expires_at if handle.deadline is not None else None
        with worker.send_lock:
            with self._lock:
                if not worker.alive:
                    # It died since it was chosen; its respawn flushes the park.
                    self._park(handle)
                    return
                conn = worker.conn
                if not worker.pending:
                    worker.progress_at = time.monotonic()
                # Entered in pipe order, so a worker's oldest pending request
                # is the one it is running: the one its death is charged to.
                worker.pending[request_id] = handle
            try:
                conn.send((request_id, *handle.data, expires_at, handle.faults))
                handle.attempts += 1
            # A concurrently restarted slot can close the pipe between the
            # alive check and the send; a closed Connection surfaces as
            # TypeError (its handle is None) and a replaced one as
            # AttributeError.
            except (OSError, ValueError, TypeError, AttributeError):
                # The worker is gone, but its death waits for its receiver to
                # read every reply; the slot's respawn flushes the park.  Else
                # the death that broke the send already retries the request.
                with self._lock:
                    if worker.pending.pop(request_id, None) is handle:
                        self._park(handle)

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
        with self._lock:
            worker.process = process
            worker.conn = parent_conn
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
                status, request_id, value, counters = conn.recv()
            except (EOFError, OSError):
                break
            for name, amount in counters.items():
                self.report.incr(name, amount)
            with self._lock:
                worker.progress_at = time.monotonic()
                handle = worker.pending.pop(request_id, None)
            if handle is None:
                continue  # abandoned (deadline) or requeued already
            if status == "ok":
                handle._resolve(value=value)
            elif status == "deadline":
                handle._resolve(error=DeadlineExceeded("deadline expired in worker"))
            elif status == "input_error":
                handle._resolve(error=value)
            else:
                handle._resolve(error=RuntimeError(f"worker error: {value}"))
        # Not while a send to it is in flight, so a request whose own send
        # fails is never the head charged for the death.
        with worker.send_lock:
            self._mark_dead(worker, process, reason="pipe closed")

    def _mark_dead(self, worker: _Worker, process, reason: str, charge: bool = True) -> None:
        with self._lock:
            # Only the live incarnation ``process`` may be declared dead.
            if not worker.alive or worker.process is not process:
                return
            worker.alive = False
            closing = self._closed
            orphans = list(worker.pending.values())
            worker.pending.clear()
            if charge and orphans:
                # The head pays for the death; its retry runs without the
                # faults it drew, as a fault of the worker it killed.
                orphans[0].charges += 1
                orphans[0].faults = ()
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
            elif handle.charges > 1:
                self.report.incr("serve_pool_poisoned")
                handle._resolve(
                    error=WorkerUnavailable(
                        f"request was running on {handle.charges} workers when they died"
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
        rolling slot is re-dispatched, uncharged, by the normal death
        machinery — a promotion swaps bundles with zero dropped in-flight
        requests.
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

    def _restart(self, worker: _Worker, reason: str, charge: bool = True) -> None:
        process = worker.process
        self._mark_dead(worker, process, reason=reason, charge=charge)
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
                    # The receiver saw the pipe close.
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
                    self._restart(worker, reason="bundle refresh", charge=False)

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

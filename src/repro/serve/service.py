"""Load-once, thread-safe serving facade over :class:`RTLTimer`.

A :class:`TimingService` owns one fitted timer and answers prediction
requests from many threads.  A batcher thread serves the queue: whenever it
is free it takes every queued request (up to ``max_batch``) into one
:meth:`RTLTimer.predict_batch` call, and it never waits for companions, so
requests are batched only when they queue up behind a running pass
(:class:`PooledTimingService` runs one batcher per pool worker).  Every
caller gets exactly the prediction it would have gotten from a serial
in-process ``predict``
(predict_batch is element-wise identical by construction, covered by
``tests/test_runtime_engine.py`` and re-asserted for the service in
``tests/test_serve.py``).

Every request is timed into the service's
:class:`~repro.runtime.report.RuntimeReport` (``serve.*`` stages,
``serve_requests`` / ``serve_batches`` counters); :meth:`TimingService.metrics`
derives latency percentiles and the realized mean batch size, which the
serve benchmark appends to ``BENCH_runtime.json``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.core.dataset import DesignRecord, build_design_record
from repro.core.pipeline import RTLTimer, RTLTimerPrediction
from repro.runtime.cache import ArtifactCache, record_key
from repro.runtime.report import RuntimeReport, activate
from repro.serve.resilience import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    WorkerUnavailable,
    remaining_or_none,
)
from repro.serve.supervisor import PoolConfig, WorkerPool
from repro.settings import configure, knob_field

#: Stage names emitted by the service (kept as constants so the serve
#: benchmark and the docs cannot drift from the implementation).
PREDICT_BATCH_STAGE = "serve.predict_batch"
PREDICT_P50_STAGE = "serve.predict_p50"
WHATIF_STAGE = "serve.whatif"

#: Latency samples kept for the percentile metrics (newest win; bounds
#: memory on long-lived services).
LATENCY_WINDOW = 4096


@dataclass(frozen=True)
class ServeConfig:
    """Batching, record-cache and admission knobs of one :class:`TimingService`.

    ``repro.settings.configure(ServeConfig)`` fills the knob-bound fields
    from the ``REPRO_SERVE_*`` environment.
    """

    #: Maximum number of queued requests taken into one ``predict_batch`` call.
    max_batch: int = 16
    #: Default candidate count for ``what_if`` when none are supplied.
    whatif_k: int = 8
    #: In-process DesignRecords kept hot for repeated source payloads (LRU);
    #: evicted entries fall back to the on-disk artifact cache.  Also the
    #: size of each pool worker's record LRU.
    record_cache_entries: int = 64
    #: Admission bound on queued + in-flight requests before load shedding.
    queue_max: int = knob_field("REPRO_SERVE_QUEUE_MAX")
    #: Default per-request deadline in seconds (None: no deadline).
    deadline_s: Optional[float] = knob_field("REPRO_SERVE_DEADLINE_S")
    #: ``Retry-After`` hint attached to shed requests.
    retry_after_s: float = knob_field("REPRO_SERVE_RETRY_AFTER_S")
    #: Concurrent what-if sweeps admitted (they are much heavier than predicts).
    whatif_concurrency: int = knob_field("REPRO_SERVE_WHATIF_CONCURRENCY")


@dataclass
class _Request:
    """One queued prediction request and its completion plumbing."""

    record: DesignRecord
    enqueued_at: float
    deadline: Optional[Deadline] = None
    done: threading.Event = field(default_factory=threading.Event)
    prediction: Optional[RTLTimerPrediction] = None
    error: Optional[BaseException] = None
    batch_size: int = 0
    queue_seconds: float = 0.0


class TimingService:
    """Thread-safe, batching inference service over one fitted timer."""

    def __init__(
        self,
        timer: RTLTimer,
        config: Optional[ServeConfig] = None,
        report: Optional[RuntimeReport] = None,
        manifest: Optional[Dict[str, Any]] = None,
    ):
        self.timer = timer
        self.config = config or configure(ServeConfig)
        self.report = report if report is not None else RuntimeReport()
        #: Manifest of the bundle this service was loaded from (None when the
        #: timer was fitted in-process); surfaced by ``/health``.
        self.manifest = manifest
        self.started_at = time.time()

        self._queue: List[_Request] = []
        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._closed = False
        self._abort = False
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._record_cache: "OrderedDict[str, DesignRecord]" = OrderedDict()
        self._record_mutex = threading.Lock()
        self.admission = AdmissionController(
            queue_max=self.config.queue_max,
            route_limits={"whatif": max(self.config.whatif_concurrency, 1)},
            retry_after_s=self.config.retry_after_s,
            report=self.report,
        )
        # Build-on-demand records for ``/predict`` source payloads go through
        # the content-addressed artifact cache (``REPRO_CACHE=0`` disables it).
        self._artifacts = ArtifactCache()
        self._batchers = [
            threading.Thread(target=self._serve_loop, name="timing-service-batcher", daemon=True)
            for _ in range(self._batcher_count())
        ]
        for batcher in self._batchers:
            batcher.start()

    # -- lifecycle ---------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service deterministically.

        With ``drain`` (the default) requests already queued are completed
        before the batcher threads exit; new requests are rejected from the
        moment close() is called.  With ``drain=False`` queued requests are
        rejected immediately with ``RuntimeError``.  Either way no client
        thread is left hanging: anything still unresolved when the batchers
        are gone (including one that outlived ``timeout``) is failed
        explicitly.
        """
        with self._wakeup:
            already_closed = self._closed
            self._closed = True
            if not drain:
                self._abort = True
            self._wakeup.notify_all()
        join_by = time.monotonic() + timeout
        for batcher in self._batchers:
            batcher.join(timeout=max(join_by - time.monotonic(), 0.0))
        if already_closed:
            return
        # Deterministic sweep: fail whatever is still queued (abort path, or
        # a batcher that did not finish draining within the timeout).
        with self._wakeup:
            pending, self._queue = self._queue, []
        for request in pending:
            if not request.done.is_set():
                request.error = RuntimeError("TimingService closed while request was queued")
                request.done.set()

    def __enter__(self) -> "TimingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- hot swap ----------------------------------------------------------------

    @property
    def active_bundle_id(self) -> Optional[str]:
        """Bundle id currently serving predictions (None for in-process fits)."""
        manifest = self.manifest
        return manifest.get("bundle_id") if manifest else None

    @property
    def eval_digest(self) -> Optional[str]:
        """Digest of the eval report that promoted the active bundle, if any."""
        manifest = self.manifest
        return manifest.get("eval_digest") if manifest else None

    def reload(self, timer: RTLTimer, manifest: Optional[Dict[str, Any]] = None) -> None:
        """Swap the served model in place without dropping queued requests.

        Each batcher reads ``self.timer`` once per batch, so a plain
        attribute rebind is atomic under the GIL: every request resolves
        against exactly one bundle — the old one or the new one, never a
        mixture.  Requests already queued keep their answers; nothing is
        rejected or restarted.
        """
        self.timer = timer
        self.manifest = manifest
        self.report.incr("serve_model_reloads")

    # -- inference ---------------------------------------------------------------

    def predict(
        self, record: DesignRecord, deadline_s: Optional[float] = None
    ) -> RTLTimerPrediction:
        """Predict one design; bit-identical to in-process ``timer.predict``.

        Thread-safe: callers queued behind a running model pass share the
        next one.
        """
        prediction, _ = self.predict_with_stats(record, deadline_s=deadline_s)
        return prediction

    def predict_with_stats(self, record: DesignRecord, deadline_s: Optional[float] = None):
        """Like :meth:`predict`, plus per-request serving stats.

        Returns ``(prediction, stats)`` where ``stats`` reports the realized
        batch size, time spent queued and total service latency for *this*
        request — the per-request view of the service-wide report.

        The request is admission-controlled (:class:`RejectedError` when the
        service is saturated) and deadline-bounded
        (:class:`DeadlineExceeded` rather than an unbounded wait; the
        deadline propagates into pool workers).
        """
        deadline = Deadline.after(
            deadline_s if deadline_s is not None else self.config.deadline_s
        )
        with self.admission.admit("predict"):
            request = _Request(
                record=record, enqueued_at=time.perf_counter(), deadline=deadline
            )
            with self._wakeup:
                if self._closed:
                    raise RuntimeError("TimingService is closed")
                self._queue.append(request)
                self._wakeup.notify_all()
            if not request.done.wait(remaining_or_none(deadline)):
                # A batcher will still resolve the request object
                # eventually; nobody is listening by then.
                self.report.incr("serve_deadline_timeouts")
                raise DeadlineExceeded("predict deadline expired")
            if request.error is not None:
                raise request.error
            latency = time.perf_counter() - request.enqueued_at
            with self._mutex:
                self._latencies.append(latency)
            stats = {
                "batch_size": request.batch_size,
                "queue_seconds": round(request.queue_seconds, 6),
                "latency_seconds": round(latency, 6),
            }
            return request.prediction, stats

    def what_if(
        self,
        record: DesignRecord,
        candidates: Optional[Sequence[Any]] = None,
        k: Optional[int] = None,
    ):
        """Project candidate synthesis option sets with the incremental engine.

        The prediction feeding candidate generation goes through the batched
        :meth:`predict` path.  The incremental sweep only reads the record's
        baseline netlist (each candidate re-times on its own override
        columns), so concurrent sweeps run in parallel, bounded by the
        ``whatif_concurrency`` admission limit.
        """
        with self.admission.admit("whatif"):
            prediction = None
            if candidates is None:
                prediction = self.predict(record)
            with activate(self.report), self.report.stage(WHATIF_STAGE):
                estimates = self.timer.what_if(
                    record,
                    candidates=candidates,
                    prediction=prediction,
                    k=self.config.whatif_k if k is None else k,
                )
            self.report.incr("serve_whatif_requests")
            return estimates

    def record_for_source(self, source: str, name: Optional[str] = None) -> DesignRecord:
        """Elaborate (or fetch) the DesignRecord for raw Verilog source.

        Records are cached twice: an in-process dict for the lifetime of the
        service and — when enabled — the shared content-addressed artifact
        cache, so repeated requests for the same source skip elaboration.
        """
        key = record_key(source, None, name)
        with self._record_mutex:
            cached = self._record_cache.get(key)
            if cached is not None:
                self._record_cache.move_to_end(key)
        if cached is not None:
            self.report.incr("serve_record_hits")
            return cached
        with activate(self.report), self.report.stage("serve.build_record"):
            # A corrupt disk-cache entry is deleted and rebuilt inside
            # ArtifactCache.get; a build error (e.g. a Verilog syntax error)
            # surfaces to the caller unchanged.
            record = self._artifacts.load_or_build(
                key, lambda: build_design_record(source, name=name)
            )
        with self._record_mutex:
            self._record_cache[key] = record
            self._record_cache.move_to_end(key)
            while len(self._record_cache) > max(self.config.record_cache_entries, 1):
                self._record_cache.popitem(last=False)
        return record

    # -- metrics -----------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """Service-level snapshot: report + latency percentiles + batch size."""
        with self._mutex:
            latencies = sorted(self._latencies)
        snapshot = self.report.to_dict()
        requests = self.report.counters.get("serve_requests", 0)
        batches = self.report.counters.get("serve_batches", 0)
        serving: Dict[str, Any] = {
            "requests": requests,
            "batches": batches,
            "batch_size": round(requests / batches, 3) if batches else 0.0,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "active_bundle_id": self.active_bundle_id,
            "eval_digest": self.eval_digest,
            "admission_depth": self.admission.depth(),
        }
        if latencies:
            serving["predict_p50"] = round(_percentile(latencies, 0.50), 6)
            serving["predict_p95"] = round(_percentile(latencies, 0.95), 6)
            serving["predict_p99"] = round(_percentile(latencies, 0.99), 6)
        snapshot["serving"] = serving
        return snapshot

    def runtime_report(self) -> RuntimeReport:
        """A copy of the service report with derived ``serve.*`` stages added.

        ``serve.predict_p50`` is recorded as a stage (it is a wall-time
        quantity) so the CI benchmark-trend artifact tracks it next to the
        other stages; the mean batch size lands in the ``derived`` section
        via the ``serve_requests`` / ``serve_batches`` counters.
        """
        merged = RuntimeReport().merge(self.report)
        with self._mutex:
            latencies = sorted(self._latencies)
        if latencies:
            merged.stages[PREDICT_P50_STAGE] = round(_percentile(latencies, 0.50), 6)
            merged.stage_calls[PREDICT_P50_STAGE] = len(latencies)
        return merged

    # -- batching worker -----------------------------------------------------------

    def _batcher_count(self) -> int:
        """One batcher: this service's model passes run in-process, one at a time."""
        return 1

    def _take_batch(self) -> Optional[List[_Request]]:
        """Block until a request is queued (or the service closes), then take
        up to ``max_batch`` of what is queued — without waiting for more."""
        # Clamp like the other ServeConfig knobs: max_batch <= 0 would make
        # the slice below never take anything while the queue stays
        # non-empty — a busy-spinning worker and callers blocked forever.
        max_batch = max(self.config.max_batch, 1)
        with self._wakeup:
            while not self._queue and not self._closed:
                self._wakeup.wait()
            if not self._queue or self._abort:
                return None  # closed with an empty queue, or close(drain=False)
            batch = self._queue[:max_batch]
            del self._queue[:max_batch]
            return batch

    def _execute_batch(self, batch: List[_Request]) -> None:
        """Fill ``prediction`` for every request in ``batch`` (one model pass)."""
        predictions = self.timer.predict_batch(
            [request.record for request in batch], report=self.report
        )
        for request, prediction in zip(batch, predictions):
            request.prediction = prediction

    def _serve_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                break
            taken_at = time.perf_counter()
            ready: List[_Request] = []
            for request in batch:
                request.queue_seconds = taken_at - request.enqueued_at
                if request.deadline is not None and request.deadline.expired:
                    # Nobody is waiting anymore; don't spend a model pass.
                    request.error = DeadlineExceeded("deadline expired in queue")
                    continue
                ready.append(request)
            for request in ready:
                request.batch_size = len(ready)
            if ready:
                try:
                    with activate(self.report), self.report.stage(PREDICT_BATCH_STAGE):
                        self._execute_batch(ready)
                except BaseException:
                    # The batch failed as a unit: re-run each request alone
                    # so a bad record fails only its own caller.
                    for request in ready:
                        try:
                            with activate(self.report), self.report.stage(
                                PREDICT_BATCH_STAGE
                            ):
                                request.prediction = self.timer.predict(request.record)
                        except BaseException as exc:
                            request.error = exc
            self.report.incr("serve_requests", len(batch))
            self.report.incr("serve_batches")
            if len(ready) > 1:
                self.report.incr("serve_batched_requests", len(ready))
            for request in batch:
                request.done.set()


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    index = min(len(sorted_values) - 1, max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[index]


class PooledTimingService(TimingService):
    """A :class:`TimingService` whose predicts run on a supervised worker pool.

    The parent keeps everything the single-process service has — admission,
    batch queueing, deadlines, per-request error isolation — and fans each
    taken batch out over :class:`~repro.serve.supervisor.WorkerPool` workers,
    with one batcher per worker.  Records that carry a build key (every
    record ``build_design_record`` makes) are pinned by that key, and each
    worker keeps the last ``record_cache_entries`` of them, so a repeated
    design ships its key instead of the record.  A worker crash/hang mid-request is
    retried on a sibling by the pool; while no worker is alive requests park
    until one respawns.  A request whose retry budget is spent is answered
    by the parent's own timer — the same bundle state, so every path is
    bit-identical.

    ``payload_provider`` supplies verified bundle payload bytes for worker
    (re)loads — typically ``lambda: registry.payload(ref)[0]``; by default
    the parent timer's own state is pickled once and reused.
    """

    def __init__(
        self,
        timer: RTLTimer,
        config: Optional[ServeConfig] = None,
        report: Optional[RuntimeReport] = None,
        manifest: Optional[Dict[str, Any]] = None,
        pool_config: Optional[PoolConfig] = None,
        payload_provider: Optional[Callable[[], bytes]] = None,
    ):
        report = report if report is not None else RuntimeReport()
        config = config or configure(ServeConfig)
        if payload_provider is None:
            from repro.serve.registry import state_payload

            payload = state_payload(timer.to_state())
            payload_provider = lambda: payload  # noqa: E731 - closure over bytes
        # Pool first: a bad bundle must fail construction before the
        # batcher threads start accepting requests.
        self.pool = WorkerPool(
            payload_provider,
            config=pool_config,
            report=report,
            record_cache_entries=config.record_cache_entries,
        )
        try:
            super().__init__(timer, config=config, report=report, manifest=manifest)
        except BaseException:
            self.pool.close()
            raise

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        super().close(drain=drain, timeout=timeout)
        self.pool.close()

    def _batcher_count(self) -> int:
        # A batch waits for all of its pool handles.  With one batcher a lone
        # request would hold the queue while the other workers sat idle; one
        # batcher per worker lets that many passes run at once.
        return max(self.pool.config.workers, 1)

    def _execute_batch(self, batch: List[_Request]) -> None:
        handles = [
            (
                request,
                self.pool.submit(
                    "predict",
                    request.record,
                    deadline=request.deadline,
                    content_key=request.record.key,
                ),
            )
            for request in batch
        ]
        for request, handle in handles:
            try:
                request.prediction = handle.result()
            except WorkerUnavailable:
                # Pool floor: the parent's own timer, bit-identical.
                self.report.incr("serve_pool_local_fallbacks")
                try:
                    request.prediction = self.timer.predict(request.record)
                except BaseException as exc:
                    request.error = exc
            except BaseException as exc:
                request.error = exc

    def metrics(self) -> Dict[str, Any]:
        snapshot = super().metrics()
        snapshot["serving"]["workers"] = self.pool.status()
        return snapshot

    def reload(
        self,
        timer: RTLTimer,
        manifest: Optional[Dict[str, Any]] = None,
        payload: Optional[bytes] = None,
    ) -> None:
        """Hot-swap the bundle on the parent *and* roll it across the pool.

        The parent swap is the atomic rebind of :meth:`TimingService.reload`;
        the pool swap is a rolling generation bump — the supervisor restarts
        one stale worker at a time on the new payload while siblings keep
        serving, and any request in flight on a restarting worker is retried
        on a sibling by the pool's existing failover path.  No request is
        dropped at any point of the roll.
        """
        super().reload(timer, manifest=manifest)
        provider: Optional[Callable[[], bytes]] = None
        if payload is not None:
            provider = lambda: payload  # noqa: E731 - closure over bytes
        self.pool.request_refresh(provider)
